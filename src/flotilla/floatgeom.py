"""Flotation boundary and buoyancy (cap-centroid) curve of a convex body.

Every construction here is a pointwise transform of solved chords; the
tangents and curvatures are closed forms in the endpoint data, so a sweep of
chords yields each derived curve as one array record with no extra
differentiation. Only the omega identity differentiates sampled points (the
flotation and buoyancy families, spectrally), so that neither of its sides
is built from the other's chord data. Each transform runs on all chords of
a sweep at once (one curve evaluation at both chord ends); one-lane Chords
are the single-chord case.
"""

import math

import numpy as np

from .chord import FLOTATION, arc_moments
from .curve import PERIOD, area, det2
from .errors import DomainError
from .numerics import TrigInterpolant

FLOTATION_BOUNDARY = "flotation_boundary"
BUOYANCY_CURVE = "buoyancy_curve"
ILLUMINATION_BOUNDARY = "illumination_boundary"
ILLUMINATION_CENTROID = "illumination_centroid"


class DerivedCurve:
    """A derived curve sampled at the chords of a sweep, one row per chord.

    ``tangents`` are the closed-form derivatives in s. ``kappa`` is NaN at
    vertex singularities of the flotation boundary, where the
    parametrization cusps and the curvature is undefined. ``kappa_prime``,
    the arc-length derivative of the curvature, is None for the
    illumination families.
    """

    def __init__(self, family, points, tangents, kappa, kappa_prime=None):
        self.family, self.points, self.tangents = family, points, tangents
        self.kappa, self.kappa_prime = kappa, kappa_prime


def _require_kind(chords, kind):
    if chords.kind != kind:
        raise DomainError(f"expected a {kind} chord, got {chords.kind}")


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


def _buoyancy_frame(chords):
    """Cap centroid, tangent and curvature of every lane."""
    _require_kind(chords, FLOTATION)
    delta = chords.delta
    origin, x, y, dm = arc_moments(chords)
    # first moment about o: the arc's share plus the closing chord from y to x
    moment = dm[:, 1:] / 3.0 - det2(x, y)[:, None] * (x + y) / 6.0
    p = det2(chords.c, chords.ends(1)[0])
    tangent = chords.c * (-p / (6.0 * delta))[:, None]
    return origin + moment / delta, tangent, 12.0 * delta / chords.norm_c**3


def buoyancy_point(chords):
    """Centroid of the cut-off cap with tangent, curvature and kappa' closed forms."""
    return DerivedCurve(BUOYANCY_CURVE, *_buoyancy_frame(chords), kappa_prime_buoyancy(chords))


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


def kappa_prime_buoyancy(chords):
    """Arc-length derivative of the buoyancy-curve curvature."""
    with np.errstate(divide="ignore"):
        cot_a = 1.0 / np.tan(chords.alpha)
        cot_b = 1.0 / np.tan(chords.beta)
    return 216.0 * chords.delta**2 * (cot_a - cot_b) / chords.norm_c**6


def _spectral_derivatives(points, chords, orders):
    """Derivatives in s of a family sampled on the sweep's uniform grid, from its trigonometric interpolant."""
    return TrigInterpolant(points).on_grid(len(points), orders)


def flotation_body_area(chords):
    """Area enclosed by the flotation boundary, 1/2 the closed integral of det(pi, pi').

    pi' is the derivative of the interpolant of the sampled midpoints pi, not
    the closed-form tangent, so the area depends on the chords only through
    the points they give.
    """
    _require_kind(chords, FLOTATION)
    points = 0.5 * (chords.x + chords.y)
    (d1,) = _spectral_derivatives(points, chords, (1,))
    return 0.5 * PERIOD * float(np.mean(det2(points, d1)))


def omega_identity_residual(chords):
    """Relative residual of (Vol K - Vol F_delta)/dbar^(2/3) = Omega(buoyancy)/2 on a flotation sweep.

    Omega, the affine perimeter of the buoyancy curve, is the closed integral
    of det(beta', beta'')^(1/3), with both derivatives taken from the
    interpolant of the sampled buoyancy points; neither side reads the other.
    """
    return _omega_residual(chords, _buoyancy_frame(chords)[0])


def _omega_residual(chords, buoyancy_points):
    """``omega_identity_residual`` from the buoyancy points the sweep's bundle already holds."""
    delta_bar = 1.5 * chords.delta
    lhs = (area(chords.curve) - flotation_body_area(chords)) / delta_bar ** (2.0 / 3.0)
    d1, d2 = _spectral_derivatives(buoyancy_points, chords, (1, 2))
    rhs = 0.5 * PERIOD * float(np.mean(np.cbrt(det2(d1, d2))))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))
