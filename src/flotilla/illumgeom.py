"""Illumination boundary, its centroid curve, and the tangential polarity.

The illumination boundary is traced by the apex of the silhouette cone; the
polarity maps exterior points to the chords joining their tangency points and
back. Poles of chords with parallel endpoint tangents live at infinity and
are reported with an explicit flag plus direction, never as huge coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chord import ILLUMINATION, PARALLEL_TOL, ChordMap, arc_moments, tangent_intersection
from .curve import det2, euclidean_curvature, norm2
from .errors import DomainError, SolverError
from .floatgeom import ILLUMINATION_BOUNDARY, ILLUMINATION_CENTROID, DerivedCurveSample, _require_kind
from .numerics import bracketed_newton


@dataclass(frozen=True)
class PolarityResult:
    """Pole point and the parameters (s, t) of its polar chord.

    ``at_infinity`` marks diametral-type chords; ``direction`` then carries
    the common tangent direction instead of a pole point.
    """

    pole: np.ndarray | None
    chord_params: tuple
    at_infinity: bool = False
    direction: np.ndarray | None = None


def illumination_point(cm: ChordMap) -> DerivedCurveSample:
    """Apex parametrization of the illumination boundary with its curvature."""
    _require_kind(cm, ILLUMINATION)
    curve = cm.curve
    d1 = curve.derivative(cm.s, 1)
    d2 = curve.derivative(cm.t, 1)
    p = det2(cm.c, d1)
    q = det2(cm.c, d2)
    v = det2(d1, d2)
    w_s = det2(d1, curve.derivative(cm.s, 2))
    tangent = cm.c * (-q * w_s / (p * v))
    ks = float(euclidean_curvature(curve, cm.s))
    kt = float(euclidean_curvature(curve, cm.t))
    kappa = 4.0 * (math.sin(cm.alpha) ** 3 / ks + math.sin(cm.beta) ** 3 / kt) / cm.affine_norm_c**3
    return DerivedCurveSample(ILLUMINATION_BOUNDARY, cm.s, cm.z, tangent, float(kappa), chord=cm)


def illumination_centroid_point(cm: ChordMap, delta_hat: float) -> DerivedCurveSample:
    """Centroid of the silhouette cone with tangent and curvature closed forms."""
    _require_kind(cm, ILLUMINATION)
    if not math.isclose(delta_hat, cm.delta, rel_tol=1e-9):
        raise DomainError("delta_hat does not match the chord's cone area")
    curve = cm.curve
    origin, x, y, dm = arc_moments(curve, cm.s, cm.t)
    z = cm.z - origin
    # first moment about o: the arc traversed backwards, then the tangent segments x -> z -> y
    moment = -(dm[1:] + _segment_moment(y, z) + _segment_moment(z, x)) / 3.0
    point = origin + moment / delta_hat
    d1 = curve.derivative(cm.s, 1)
    d2 = curve.derivative(cm.t, 1)
    q = det2(cm.c, d2)
    v = det2(d1, d2)
    w_s = det2(d1, curve.derivative(cm.s, 2))
    tangent = cm.c * (q**2 * w_s / (6.0 * delta_hat * v**2))
    ks = float(euclidean_curvature(curve, cm.s))
    kt = float(euclidean_curvature(curve, cm.t))
    kappa = (
        96.0
        * delta_hat
        * (math.sin(cm.alpha) ** 3 / ks + math.sin(cm.beta) ** 3 / kt)
        / cm.affine_norm_c**6
    )
    return DerivedCurveSample(ILLUMINATION_CENTROID, cm.s, point, tangent, float(kappa), chord=cm)


def _segment_moment(a, b):
    """Integral of p det(p, dp) along the segment from a to b."""
    return det2(a, b) * (a + b) / 2.0


def pole_of_chord(curve, s, t) -> PolarityResult:
    """Pole of the chord through gamma(s), gamma(t) under the tangential polarity."""
    if math.isclose((t - s) % curve.period, 0.0, abs_tol=1e-12):
        raise DomainError("chord endpoints coincide")
    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(t, 1)
    if abs(det2(d1, d2)) <= PARALLEL_TOL * norm2(d1) * norm2(d2):
        return PolarityResult(
            pole=None,
            chord_params=(float(s), float(t)),
            at_infinity=True,
            direction=d1 / norm2(d1),
        )
    return PolarityResult(pole=tangent_intersection(curve, s, t), chord_params=(float(s), float(t)))


def polar_of_point(curve, p) -> PolarityResult:
    """Polar chord of an exterior point: the two tangency parameters.

    Tangency parameters solve det(gamma(u) - p, gamma'(u)) = 0; they are
    isolated by a sign scan on a 4N grid and refined by bracketed iteration.
    Exactly two roots must exist, otherwise p is not strictly exterior.
    """
    p = np.asarray(p, dtype=float)

    def f(u):
        return det2(curve.derivative(u, 0) - p, curve.derivative(u, 1))

    def df(u):
        return det2(curve.derivative(u, 0) - p, curve.derivative(u, 2))

    n = 4 * max(curve.resolution, 128)
    grid = np.arange(n + 1) * (curve.period / n)
    vals = f(grid)
    crossings = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(vals[np.abs(vals) == 0.0]) or len(crossings) != 2:
        if len(crossings) < 2:
            raise DomainError("point is not strictly outside the curve (no polar chord)")
        raise SolverError(f"expected 2 tangency roots, found {len(crossings)}")
    a, b = np.sort(bracketed_newton(f, df, grid[crossings], grid[crossings + 1], grid[crossings], f_tol=0.0))
    return PolarityResult(pole=tangent_intersection(curve, a, b), chord_params=(float(a), float(b)))
