"""The derived families: flotation boundary, buoyancy (cap-centroid) curve, illumination boundary, its centroid curve.

Every construction here is a pointwise transform of solved chords; the
tangents and curvatures are closed forms in the endpoint data, so a sweep of
chords yields each derived curve as one array record with no extra
differentiation. Only the omega identity differentiates sampled points (the
flotation and buoyancy families, spectrally), so that neither of its sides
is built from the other's chord data. Each transform runs on all chords of
a sweep at once (one curve evaluation at both chord ends); one-lane Chords
are the single-chord case. The flotation families take a flotation sweep and
the illumination families an illumination sweep. The illumination boundary is
traced by the apex of the silhouette cone, and its centroid curve by the
cone's centroid; the apex of a chord (its pole under the tangential polarity)
is the sweep's ``Chords.z``, NaN where the end tangents are parallel.
"""

import math

import numpy as np

from .chord import FLOTATION, ILLUMINATION
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
    tangent = chords.c * (chords.v / (2.0 * chords.q))[:, None]
    kappa = chords.affine_norm_c**3 / chords.norm_c**3
    apex = chords.apex
    return DerivedCurve(
        FLOTATION_BOUNDARY,
        0.5 * (chords.x + chords.y),
        np.where(apex[:, None], tangent, 0.0),
        np.where(apex, kappa, math.nan),
        kappa_prime_flotation(chords),
    )


def buoyancy_point(chords):
    """Centroid of the cut-off cap with tangent, curvature and kappa' closed forms."""
    _require_kind(chords, FLOTATION)
    delta = chords.delta
    origin = chords.curve.moments[0]
    x, y = chords.x - origin, chords.y - origin
    # first moment about o: the arc's share plus the closing chord from y to x
    moment = chords.dm[:, 1:] / 3.0 - det2(x, y)[:, None] * (x + y) / 6.0
    tangent = chords.c * (-chords.p / (6.0 * delta))[:, None]
    kappa = 12.0 * delta / chords.norm_c**3
    return DerivedCurve(BUOYANCY_CURVE, origin + moment / delta, tangent, kappa, kappa_prime_buoyancy(chords))


def kappa_prime_flotation(chords):
    """Arc-length derivative of the flotation-boundary curvature; NaN without an apex.

    Note: the second term uses k(s)/sin^3(a) - k(t)/sin^3(b); the often-quoted
    form with the reciprocal fractions fails the finite-difference oracle on
    non-homothetic bodies (both forms vanish together in the homothetic case).
    """
    alpha, beta, norm_c, ks, kt = chords.alpha, chords.beta, chords.norm_c, chords.ks, chords.kt
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


def _spectral_derivatives(points, orders):
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
    (d1,) = _spectral_derivatives(points, (1,))
    return 0.5 * PERIOD * float(np.mean(det2(points, d1)))


def omega_identity_residual(chords, buoyancy_points):
    """Relative residual of (Vol K - Vol F_delta)/dbar^(2/3) = Omega(buoyancy)/2 on a flotation sweep.

    ``buoyancy_points`` are the sweep's buoyancy points, ``buoyancy_point(chords).points``.
    Omega, the affine perimeter of the buoyancy curve, is the closed integral
    of det(beta', beta'')^(1/3), with both derivatives taken from the
    interpolant of the sampled buoyancy points; neither side reads the other.
    """
    delta_bar = 1.5 * chords.delta
    lhs = (area(chords.curve) - flotation_body_area(chords)) / delta_bar ** (2.0 / 3.0)
    d1, d2 = _spectral_derivatives(buoyancy_points, (1, 2))
    rhs = 0.5 * PERIOD * float(np.mean(np.cbrt(det2(d1, d2))))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def _sines(chords):
    """The sum sin^3(a)/k(s) + sin^3(b)/k(t) of every lane, infinite at a flat end point."""
    with np.errstate(divide="ignore"):
        return np.sin(chords.alpha) ** 3 / chords.ks + np.sin(chords.beta) ** 3 / chords.kt


def illumination_point(chords):
    """Apex parametrization of the illumination boundary with its curvature."""
    _require_kind(chords, ILLUMINATION)
    tangent = chords.c * (-chords.q * chords.ws / (chords.p * chords.v))[:, None]
    kappa = 4.0 * _sines(chords) / chords.affine_norm_c**3
    return DerivedCurve(ILLUMINATION_BOUNDARY, chords.z, tangent, kappa)


def illumination_centroid_point(chords):
    """Centroid of the silhouette cone with tangent and curvature closed forms."""
    _require_kind(chords, ILLUMINATION)
    delta_hat = chords.delta
    origin = chords.curve.moments[0]
    x, y, z = chords.x - origin, chords.y - origin, chords.z - origin
    # first moment about o: the arc traversed backwards, then the tangent segments x -> z -> y
    moment = -(chords.dm[:, 1:] + _segment_moment(y, z) + _segment_moment(z, x)) / 3.0
    tangent = chords.c * (chords.q**2 * chords.ws / (6.0 * delta_hat * chords.v**2))[:, None]
    kappa = 96.0 * delta_hat * _sines(chords) / chords.affine_norm_c**6
    return DerivedCurve(ILLUMINATION_CENTROID, origin + moment / delta_hat, tangent, kappa)


def _segment_moment(a, b):
    """Integral of p det(p, dp) along the segment from a to b."""
    return det2(a, b)[..., None] * (a + b) / 2.0
