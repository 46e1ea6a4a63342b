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

from .chord import ILLUMINATION, PARALLEL_TOL, _pair, arc_moments, tangent_intersection
from .curve import det2, norm2
from .errors import DomainError, SolverError
from .floatgeom import ILLUMINATION_BOUNDARY, ILLUMINATION_CENTROID, DerivedCurve, _require_kind
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


def _silhouette_frame(chords):
    """Determinants p, q, v and w_s and the sum sin^3(a)/k(s) + sin^3(b)/k(t) of every lane."""
    (d1, d2), dd1 = chords.ends(1), chords.ends(2)[0]
    c = chords.c
    ks, kt = chords.curvatures()
    with np.errstate(divide="ignore"):  # infinite at a flat end point
        sines = np.sin(chords.alpha) ** 3 / ks + np.sin(chords.beta) ** 3 / kt
    return det2(c, d1), det2(c, d2), det2(d1, d2), det2(d1, dd1), sines


def illumination_point(chords):
    """Apex parametrization of the illumination boundary with its curvature."""
    _require_kind(chords, ILLUMINATION)
    p, q, v, w_s, sines = _silhouette_frame(chords)
    tangent = chords.c * (-q * w_s / (p * v))[:, None]
    kappa = 4.0 * sines / chords.affine_norm_c**3
    return DerivedCurve(ILLUMINATION_BOUNDARY, chords.z, tangent, kappa)


def illumination_centroid_point(chords):
    """Centroid of the silhouette cone with tangent and curvature closed forms."""
    _require_kind(chords, ILLUMINATION)
    delta_hat = chords.delta
    origin, x, y, dm = arc_moments(chords)
    z = chords.z - origin
    # first moment about o: the arc traversed backwards, then the tangent segments x -> z -> y
    moment = -(dm[:, 1:] + _segment_moment(y, z) + _segment_moment(z, x)) / 3.0
    _, q, v, w_s, sines = _silhouette_frame(chords)
    tangent = chords.c * (q**2 * w_s / (6.0 * delta_hat * v**2))[:, None]
    kappa = 96.0 * delta_hat * sines / chords.affine_norm_c**6
    return DerivedCurve(ILLUMINATION_CENTROID, origin + moment / delta_hat, tangent, kappa)


def _segment_moment(a, b):
    """Integral of p det(p, dp) along the segment from a to b."""
    return det2(a, b)[..., None] * (a + b) / 2.0


def pole_of_chord(curve, s, t) -> PolarityResult:
    """Pole of the chord through gamma(s), gamma(t) under the tangential polarity."""
    if math.isclose((t - s) % curve.period, 0.0, abs_tol=1e-12):
        raise DomainError("chord endpoints coincide")
    d1, d2 = curve.derivative(_pair(s, t), 1)
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

    def fdf(u):
        g, d1, d2 = curve.derivatives(u, (0, 1, 2))
        return det2(g - p, d1), det2(g - p, d2)

    n = 4 * max(curve.resolution, 128)
    grid = np.arange(n + 1) * (curve.period / n)
    g, d1 = curve.derivatives(grid, (0, 1))
    vals = det2(g - p, d1)
    crossings = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(vals[np.abs(vals) == 0.0]) or len(crossings) != 2:
        if len(crossings) < 2:
            raise DomainError("point is not strictly outside the curve (no polar chord)")
        raise SolverError(f"expected 2 tangency roots, found {len(crossings)}")
    a, b = np.sort(bracketed_newton(fdf, grid[crossings], grid[crossings + 1], grid[crossings], f_tol=0.0))
    return PolarityResult(pole=tangent_intersection(curve, a, b), chord_params=(float(a), float(b)))
