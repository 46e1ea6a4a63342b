"""Illumination boundary and its centroid curve.

The illumination boundary is traced by the apex of the silhouette cone, and
its centroid curve by the cone's centroid. Both are lane-wise over an
illumination sweep; the apex of a chord (its pole under the tangential
polarity) is the sweep's ``Chords.z``, NaN where the end tangents are parallel.
"""

import numpy as np

from .chord import ILLUMINATION, arc_moments
from .curve import det2
from .floatgeom import ILLUMINATION_BOUNDARY, ILLUMINATION_CENTROID, DerivedCurve, _require_kind


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
