"""Flotation boundary and buoyancy (cap-centroid) curve of a convex body.

Every construction here is a pointwise transform of solved chords; the
tangents and curvatures are closed forms in the endpoint data, so a sweep of
chords yields each derived curve as one array record with no extra
differentiation. Each transform runs on all chords of a sweep at once (one
curve call per derivative order at both chord ends); one-lane Chords are the
single-chord case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chord import FLOTATION, arc_moments, sweep
from .curve import area, det2, norm2
from .errors import DomainError
from .numerics import periodic_trapezoid, signed_cbrt

FLOTATION_BOUNDARY = "flotation_boundary"
BUOYANCY_CURVE = "buoyancy_curve"
ILLUMINATION_BOUNDARY = "illumination_boundary"
ILLUMINATION_CENTROID = "illumination_centroid"


class EnvelopeWarning(UserWarning):
    """The flotation envelope self-intersects (swallowtails)."""


@dataclass(frozen=True)
class DerivedCurve:
    """A derived curve sampled at the chords of a sweep, one row per chord.

    ``tangents`` are the closed-form derivatives in s. ``kappa`` is NaN at
    vertex singularities of the flotation boundary, where the
    parametrization cusps and the curvature is undefined. ``kappa_prime``,
    the arc-length derivative of the curvature, is None for the
    illumination families.
    """

    family: str
    points: np.ndarray
    tangents: np.ndarray
    kappa: np.ndarray
    kappa_prime: np.ndarray | None = None


def _require_kind(chords, kind):
    if chords.kind != kind:
        raise DomainError(f"expected a {kind} chord, got {chords.kind}")


def _require_delta(chords, delta, name):
    if not math.isclose(delta, chords.delta, rel_tol=1e-9):
        raise DomainError(f"{name} does not match the chord's area")


def flotation_point(chords):
    """Midpoint parametrization of the flotation boundary with its curvature and kappa'.

    At vertex singularities (parallel endpoint tangents) the tangent vector
    vanishes and the curvature and kappa' are reported as NaN.
    """
    _require_kind(chords, FLOTATION)
    c = chords.c
    d1, d2 = chords.ends(1)
    tangent = c * (det2(d1, d2) / (2.0 * det2(c, d2)))[:, None]
    kappa = chords.affine_norm_c**3 / chords.norm_c**3
    apex = chords.apex
    return DerivedCurve(
        FLOTATION_BOUNDARY,
        0.5 * (chords.x + chords.y),
        np.where(apex[:, None], tangent, 0.0),
        np.where(apex, kappa, math.nan),
        kappa_prime_flotation(chords),
    )


def _buoyancy_frame(chords, delta):
    """Cap centroid, tangent and curvature of every lane."""
    origin, x, y, dm = arc_moments(chords.curve, chords.s, chords.t)
    # first moment about o: the arc's share plus the closing chord from y to x
    moment = dm[:, 1:] / 3.0 - det2(x, y)[:, None] * (x + y) / 6.0
    p = det2(chords.c, chords.ends(1)[0])
    tangent = chords.c * (-p / (6.0 * delta))[:, None]
    return origin + moment / delta, tangent, 12.0 * delta / chords.norm_c**3


def buoyancy_point(chords, delta):
    """Centroid of the cut-off cap with tangent, curvature and kappa' closed forms."""
    _require_kind(chords, FLOTATION)
    _require_delta(chords, delta, "delta")
    return DerivedCurve(BUOYANCY_CURVE, *_buoyancy_frame(chords, delta), kappa_prime_buoyancy(chords, delta))


def kappa_prime_flotation(chords):
    """Arc-length derivative of the flotation-boundary curvature; NaN without an apex.

    Note: the second term uses k(s)/sin^3(a) - k(t)/sin^3(b); the often-quoted
    form with the reciprocal fractions fails the finite-difference oracle on
    non-homothetic bodies (both forms vanish together in the homothetic case).
    """
    alpha, beta, norm_c = chords.alpha, chords.beta, chords.norm_c
    ks, kt = chords.curvatures()
    with np.errstate(divide="ignore", invalid="ignore"):
        cot_a = 1.0 / np.tan(alpha)
        cot_b = 1.0 / np.tan(beta)
        u = cot_a + cot_b
        v = cot_a - cot_b
        value = 24.0 * v / (u**2 * norm_c**2) - 8.0 * (ks / np.sin(alpha) ** 3 - kt / np.sin(beta) ** 3) / (
            u**3 * norm_c
        )
    return np.where(chords.apex, value, math.nan)


def kappa_prime_buoyancy(chords, delta):
    """Arc-length derivative of the buoyancy-curve curvature."""
    with np.errstate(divide="ignore"):
        cot_a = 1.0 / np.tan(chords.alpha)
        cot_b = 1.0 / np.tan(chords.beta)
    return 216.0 * delta**2 * (cot_a - cot_b) / chords.norm_c**6


def _chord_chain(chords):
    """First and second s-derivatives of the chord frame (t', t'', c-dot, ...) of every lane."""
    (xd1, yd1), (xd2, yd2) = chords.ends(1), chords.ends(2)
    xd3 = chords.curve.derivative(chords.s, 3)
    c = chords.c
    p = det2(c, xd1)
    q = det2(c, yd1)
    t1 = -p / q
    cd1 = yd1 * t1[:, None] - xd1
    p_dot = det2(cd1, xd1) + det2(c, xd2)
    q_dot = det2(cd1, yd1) + t1 * det2(c, yd2)
    t2 = -(p_dot * q - p * q_dot) / q**2
    cd2 = yd2 * (t1**2)[:, None] + yd1 * t2[:, None] - xd2
    p_ddot = det2(cd2, xd1) + 2.0 * det2(cd1, xd2) + det2(c, xd3)
    return {
        "p": p, "q": q, "t1": t1, "t2": t2,
        "cd1": cd1, "cd2": cd2,
        "p_dot": p_dot, "p_ddot": p_ddot,
    }


def buoyancy_derivatives(chords, delta):
    """Exact first, second and third s-derivatives of the buoyancy curve point."""
    ch = _chord_chain(chords)
    g = (-ch["p"] / (6.0 * delta))[:, None]
    g_dot = (-ch["p_dot"] / (6.0 * delta))[:, None]
    g_ddot = (-ch["p_ddot"] / (6.0 * delta))[:, None]
    c = chords.c
    r2d1 = c * g
    r2d2 = ch["cd1"] * g + c * g_dot
    r2d3 = ch["cd2"] * g + 2.0 * ch["cd1"] * g_dot + c * g_ddot
    return r2d1, r2d2, r2d3


def buoyancy_affine_normal(chords, delta):
    """Affine normal vector of the buoyancy curve at every lane's sample."""
    r2d1, r2d2, r2d3 = buoyancy_derivatives(chords, delta)
    d = det2(r2d1, r2d2)[:, None]
    d_dot = det2(r2d1, r2d3)[:, None]
    return r2d2 * d ** (-2.0 / 3.0) - r2d1 * (d_dot / 3.0) * d ** (-5.0 / 3.0)


def buoyancy_affine_normal_check(chords, delta):
    """Angle and relative magnitude error against (8 dbar^(1/3) / ||c||^3)(r1 - z).

    Both are NaN in the lanes whose endpoint tangents are parallel, where
    the apex z does not exist (the check is skipped there).
    """
    normal = buoyancy_affine_normal(chords, delta)
    w = 0.5 * (chords.x + chords.y) - chords.z
    angle = np.arctan2(np.abs(det2(normal, w)), np.sum(normal * w, axis=-1))
    delta_bar = 1.5 * delta
    expected = 8.0 * delta_bar ** (1.0 / 3.0) / chords.affine_norm_c**3 * norm2(w)
    magnitude_err = np.abs(norm2(normal) - expected) / expected
    apex = chords.apex
    return np.where(apex, angle, math.nan), np.where(apex, magnitude_err, math.nan)


def _chord_turning_is_monotone(chords):
    c = chords.c
    return np.all(np.diff(np.unwrap(np.arctan2(c[:, 1], c[:, 0]))) > 0.0)


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
    deficit = 0.25 * periodic_trapezoid(det2(-chords.c, chords.ends(1)[0]), curve.period)
    return area(curve) - float(deficit)


def buoyancy_affine_perimeter(curve, delta, n_samples, chords=None):
    """Affine arc length of the buoyancy curve from its curvature samples."""
    if chords is None:
        chords = sweep(curve, FLOTATION, delta, n_samples)
    _, tangent, kappa = _buoyancy_frame(chords, delta)
    return float(periodic_trapezoid(signed_cbrt(kappa) * norm2(tangent), curve.period))


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
