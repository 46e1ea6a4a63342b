"""Flotation boundary and buoyancy (cap-centroid) curve of a convex body.

Every construction here is a pointwise transform of a solved ChordMap; the
tangents and curvatures are closed forms in the endpoint data, so a sweep of
chords yields a sweep of derived-curve samples with no extra differentiation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chord import FLOTATION, ChordMap, arc_moments, sweep
from .curve import area, det2, euclidean_curvature, norm2
from .errors import DomainError
from .numerics import periodic_trapezoid, signed_cbrt

FLOTATION_BOUNDARY = "flotation_boundary"
BUOYANCY_CURVE = "buoyancy_curve"
ILLUMINATION_BOUNDARY = "illumination_boundary"
ILLUMINATION_CENTROID = "illumination_centroid"


class EnvelopeWarning(UserWarning):
    """The flotation envelope self-intersects (swallowtails)."""


@dataclass
class DerivedCurveSample:
    """A point of a derived curve with its closed-form frame data.

    ``kappa`` is NaN at vertex singularities of the flotation boundary, where
    the parametrization cusps and the curvature is undefined.
    """

    family: str
    s: float
    point: np.ndarray
    tangent: np.ndarray
    kappa: float
    kappa_prime: float | None = None
    chord: ChordMap | None = None


def _require_kind(cm, kind):
    if cm.kind != kind:
        raise DomainError(f"expected a {kind} chord, got {cm.kind}")


def flotation_point(cm: ChordMap) -> DerivedCurveSample:
    """Midpoint parametrization of the flotation boundary with its curvature.

    At vertex singularities (parallel endpoint tangents) the tangent vector
    vanishes and the curvature is reported as NaN.
    """
    _require_kind(cm, FLOTATION)
    point = 0.5 * (cm.x + cm.y)
    if cm.z is None:
        return DerivedCurveSample(FLOTATION_BOUNDARY, cm.s, point, np.zeros(2), math.nan, chord=cm)
    curve = cm.curve
    d1 = curve.derivative(cm.s, 1)
    d2 = curve.derivative(cm.t, 1)
    v = det2(d1, d2)
    q = det2(cm.c, d2)
    tangent = cm.c * (v / (2.0 * q))
    kappa = cm.affine_norm_c**3 / cm.norm_c**3
    return DerivedCurveSample(FLOTATION_BOUNDARY, cm.s, point, tangent, float(kappa), chord=cm)


def buoyancy_point(cm: ChordMap, delta: float) -> DerivedCurveSample:
    """Centroid of the cut-off cap with tangent and curvature closed forms."""
    _require_kind(cm, FLOTATION)
    if not math.isclose(delta, cm.delta, rel_tol=1e-9):
        raise DomainError("delta does not match the chord's cut-off area")
    curve = cm.curve
    origin, x, y, dm = arc_moments(curve, cm.s, cm.t)
    # first moment about o: the arc's share plus the closing chord from y to x
    moment = dm[1:] / 3.0 - det2(x, y) * (x + y) / 6.0
    point = origin + moment / delta
    p = det2(cm.c, curve.derivative(cm.s, 1))
    tangent = cm.c * (-p / (6.0 * delta))
    kappa = 12.0 * delta / cm.norm_c**3
    return DerivedCurveSample(BUOYANCY_CURVE, cm.s, point, tangent, float(kappa), chord=cm)


def kappa_prime_flotation(cm: ChordMap, curve=None) -> float:
    """Arc-length derivative of the flotation-boundary curvature.

    Note: the second term uses k(s)/sin^3(a) - k(t)/sin^3(b); the often-quoted
    form with the reciprocal fractions fails the finite-difference oracle on
    non-homothetic bodies (both forms vanish together in the homothetic case).
    """
    curve = curve if curve is not None else cm.curve
    if cm.z is None:
        return math.nan
    cot_a = 1.0 / math.tan(cm.alpha)
    cot_b = 1.0 / math.tan(cm.beta)
    u = cot_a + cot_b
    v = cot_a - cot_b
    ks = float(euclidean_curvature(curve, cm.s))
    kt = float(euclidean_curvature(curve, cm.t))
    sa = math.sin(cm.alpha)
    sb = math.sin(cm.beta)
    return 24.0 * v / (u**2 * cm.norm_c**2) - 8.0 * (ks / sa**3 - kt / sb**3) / (
        u**3 * cm.norm_c
    )


def kappa_prime_buoyancy(cm: ChordMap, delta: float) -> float:
    """Arc-length derivative of the buoyancy-curve curvature."""
    cot_a = 1.0 / math.tan(cm.alpha)
    cot_b = 1.0 / math.tan(cm.beta)
    return 216.0 * delta**2 * (cot_a - cot_b) / cm.norm_c**6


def _chord_chain(cm: ChordMap):
    """First and second s-derivatives of the chord frame (t', t'', c-dot, ...)."""
    curve = cm.curve
    s, t = cm.s, cm.t
    xd1, xd2, xd3 = (curve.derivative(s, k) for k in (1, 2, 3))
    yd1, yd2 = curve.derivative(t, 1), curve.derivative(t, 2)
    c = cm.c
    p = det2(c, xd1)
    q = det2(c, yd1)
    t1 = -p / q
    cd1 = yd1 * t1 - xd1
    p_dot = det2(cd1, xd1) + det2(c, xd2)
    q_dot = det2(cd1, yd1) + t1 * det2(c, yd2)
    t2 = -(p_dot * q - p * q_dot) / q**2
    cd2 = yd2 * t1**2 + yd1 * t2 - xd2
    p_ddot = det2(cd2, xd1) + 2.0 * det2(cd1, xd2) + det2(c, xd3)
    return {
        "p": p, "q": q, "t1": t1, "t2": t2,
        "cd1": cd1, "cd2": cd2,
        "p_dot": p_dot, "p_ddot": p_ddot,
    }


def buoyancy_derivatives(cm: ChordMap, delta: float):
    """Exact first, second and third s-derivatives of the buoyancy curve point."""
    ch = _chord_chain(cm)
    g = -ch["p"] / (6.0 * delta)
    g_dot = -ch["p_dot"] / (6.0 * delta)
    g_ddot = -ch["p_ddot"] / (6.0 * delta)
    r2d1 = cm.c * g
    r2d2 = ch["cd1"] * g + cm.c * g_dot
    r2d3 = ch["cd2"] * g + 2.0 * ch["cd1"] * g_dot + cm.c * g_ddot
    return r2d1, r2d2, r2d3


def buoyancy_affine_normal(cm: ChordMap, delta: float):
    """Affine normal vector of the buoyancy curve at this chord's sample."""
    r2d1, r2d2, r2d3 = buoyancy_derivatives(cm, delta)
    d = det2(r2d1, r2d2)
    d_dot = det2(r2d1, r2d3)
    return r2d2 * d ** (-2.0 / 3.0) - r2d1 * (d_dot / 3.0) * d ** (-5.0 / 3.0)


def buoyancy_affine_normal_check(cm: ChordMap, delta: float):
    """Angle and relative magnitude error against (8 dbar^(1/3) / ||c||^3)(r1 - z).

    Returns (nan, nan) when the endpoint tangents are parallel and the apex z
    does not exist (the check is skipped).
    """
    if cm.z is None:
        return math.nan, math.nan
    normal = buoyancy_affine_normal(cm, delta)
    r1 = 0.5 * (cm.x + cm.y)
    w = r1 - cm.z
    angle = math.atan2(abs(det2(normal, w)), float(np.dot(normal, w)))
    delta_bar = 1.5 * delta
    expected = 8.0 * delta_bar ** (1.0 / 3.0) / cm.affine_norm_c**3 * norm2(w)
    magnitude_err = abs(norm2(normal) - expected) / expected
    return angle, float(magnitude_err)


def _chord_turning_is_monotone(chords):
    angles = np.unwrap([math.atan2(cm.c[1], cm.c[0]) for cm in chords])
    return np.all(np.diff(angles) > 0.0)


def flotation_body_area(curve, delta, n_samples, chords=None):
    """Area enclosed by the flotation envelope.

    Computed as Vol(K) - (1/4) * closed integral of det(-c, gamma'(s)) over
    one period of the chord sweep. A non-simple envelope only warns; the
    formula's value is still returned.
    """
    if chords is None:
        chords = sweep(curve, FLOTATION, delta, n_samples)
    if not _chord_turning_is_monotone(chords):
        warnings.warn(
            "flotation envelope tangent turning is not monotone; "
            "the envelope self-intersects and the area is a signed value",
            EnvelopeWarning,
        )
    vals = np.array([det2(-cm.c, curve.derivative(cm.s, 1)) for cm in chords])
    deficit = 0.25 * periodic_trapezoid(vals, curve.period)
    return area(curve) - float(deficit)


def buoyancy_affine_perimeter(curve, delta, n_samples, chords=None):
    """Affine arc length of the buoyancy curve from its curvature samples."""
    if chords is None:
        chords = sweep(curve, FLOTATION, delta, n_samples)
    vals = []
    for cm in chords:
        sample = buoyancy_point(cm, delta)
        vals.append(signed_cbrt(sample.kappa) * norm2(sample.tangent))
    return float(periodic_trapezoid(np.array(vals), curve.period))


def omega_identity_residual(curve, delta, n_samples, chords=None):
    """Relative residual of (Vol K - Vol F_delta)/dbar^(2/3) = Omega(buoyancy)/2."""
    if chords is None:
        chords = sweep(curve, FLOTATION, delta, n_samples)
    delta_bar = 1.5 * delta
    lhs = (area(curve) - flotation_body_area(curve, delta, n_samples, chords=chords)) / (
        delta_bar ** (2.0 / 3.0)
    )
    rhs = 0.5 * buoyancy_affine_perimeter(curve, delta, n_samples, chords=chords)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))
