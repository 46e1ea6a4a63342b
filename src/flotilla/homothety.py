"""Homothety criteria: chord-cube constancy, duality, cut lengths, carousels.

These are the executable verification suites: each operation reduces a sweep
(or a chained chord construction) to a small report that a test or the CLI
can threshold.
"""

import math

import numpy as np

from .chord import CAP_MARGIN, FLOTATION, MIN_CUT_FRACTION, _apex, chains
from .curve import PERIOD, affine_normal, area, det2, norm2
from .errors import DomainError, SolverError
from .numerics import bracketed_newton


class ConstancyReport:
    """Summary statistics for an 'is constant' claim over sweep samples."""

    def __init__(self, mean, coefficient_of_variation, max_abs_deviation):
        self.mean = mean
        self.coefficient_of_variation = coefficient_of_variation
        self.max_abs_deviation = max_abs_deviation

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        mean = float(values.mean())
        std = float(values.std())
        cv = std / abs(mean) if mean != 0.0 else math.inf
        return cls(mean, cv, float(np.max(np.abs(values - mean))))


class HomothetyFit:
    """Least-squares dilation taking curve A onto curve B at matched parameters.

    When the ratio is within 1e-9 of 1 the dilation center is ill-posed; the
    fit then degrades to translation mode and ``translation`` holds the offset.
    """

    def __init__(self, center, ratio, rms_residual, matched, translation=None):
        self.center, self.ratio, self.rms_residual = center, ratio, rms_residual
        self.matched, self.translation = matched, translation

    @property
    def is_translation(self):
        return self.translation is not None


class Carousel:
    """The chains of q equal-area chords from the CAROUSEL_STARTS starts s0 + k PERIOD / CAROUSEL_STARTS at one delta.

    ``vertices``, ``closure_defect`` and ``defect_slope`` (d(closure_defect)/d(delta),
    accumulated along the chain) are the chain from s0, lane 0 of the starts.
    ``closure_defect_max`` is the worst |t_q - t_0 - p PERIOD| over the starts.
    For q = 3 only, ``lambdas`` are the tangent-triangle side ratios of the
    chain from s0, and the triangles from the starts give ``lambda_report``,
    ``centroid_drift_max``, ``lambda_product_max_dev`` and
    ``medial_residual_max``; these stay empty where a tangent triangle
    degenerates, far from closure. ``chain_solves`` counts the ``chord.chains``
    calls that built it: 1 at a given delta and on an ellipse (``_closing_chain``).
    """

    def __init__(self, p, q, delta, s0, vertices, closure_defect, defect_slope, closure_defect_max, chain_solves):
        self.p, self.q, self.delta, self.s0 = p, q, delta, s0
        self.vertices, self.closure_defect, self.defect_slope = vertices, closure_defect, defect_slope
        self.closure_defect_max, self.chain_solves = closure_defect_max, chain_solves
        self.lambdas = []
        self.lambda_report = self.centroid_drift_max = None
        self.lambda_product_max_dev = self.medial_residual_max = None


def _diameter(points):
    hull_min = points.min(axis=0)
    hull_max = points.max(axis=0)
    return float(norm2(hull_max - hull_min))


def fit_homothety(points_a, points_b) -> HomothetyFit:
    """Fit center and ratio minimizing sum |B_i - center - ratio (A_i - center)|^2 over (N, 2) points."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if len(a) != len(b):
        raise DomainError("sample lists must be matched by parameter (equal counts)")
    if len(a) < 3:
        raise DomainError("need at least 3 matched samples")
    a_mean = a.mean(axis=0)
    b_mean = b.mean(axis=0)
    a0 = a - a_mean
    b0 = b - b_mean
    denom = float(np.sum(a0 * a0))
    ratio = float(np.sum(a0 * b0)) / denom if denom > 0.0 else 1.0
    shift = b_mean - ratio * a_mean
    residuals = b - ratio * a - shift
    rms = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    diameter = max(_diameter(a), _diameter(b))
    matched = rms < 1e-6 * diameter
    if abs(ratio - 1.0) < 1e-9:
        return HomothetyFit(
            center=np.full(2, math.nan),
            ratio=ratio,
            rms_residual=rms,
            matched=matched,
            translation=shift,
        )
    center = shift / (1.0 - ratio)
    return HomothetyFit(center=center, ratio=ratio, rms_residual=rms, matched=matched)


def chord_cube_report(chords):
    """Constancy report of the cubed affine chord length of a sweep, with the implied ratio.

    The implied homothety ratio is mean(||c||^3) / (12 delta) for flotation
    and mean(||c||^3) / (24 delta_hat) for illumination. Raises
    DomainError if a chord has parallel end tangents.
    """
    if not chords.apex.all():
        raise DomainError("a chord has parallel end tangents, so its affine length is infinite")
    report = ConstancyReport.from_values(chords.affine_norm_c**3)
    divisor = (12.0 if chords.kind == FLOTATION else 24.0) * chords.delta
    return report, report.mean / divisor


def duality_parameters(delta, lam):
    """Cone area and ratio of the dual illumination pair of a flotation pair.

    Solves delta_hat = (3/2) delta lam - delta and 1/lam_hat + 2/lam = 3;
    they give delta_hat lam_hat = delta lam / 2 identically.
    """
    if lam <= 2.0 / 3.0:
        raise DomainError("duality requires lam > 2/3 (otherwise lam_hat <= 0)")
    return 1.5 * delta * lam - delta, lam / (3.0 * lam - 2.0)


def duality_pointwise_check(chords, illum_chords):
    """Max relative distance between flotation-chord poles and the illumination boundary.

    Matched parametrically: the pole of the flotation chord at s is compared
    with the silhouette apex at the same s; ``illum_chords`` is the
    illumination sweep at the dual cone area on the same s grid. Each
    distance is over the larger of the pole's distance from its chord's
    midpoint and the body's diameter: the poles run off to infinity as the
    cut-off area nears half the body, and their rounding grows with them.
    Returns (max_error, skipped) where skipped counts poles at infinity.
    """
    both = chords.apex & illum_chords.apex
    z = chords.z[both]
    reach = norm2(z - 0.5 * (chords.x[both] + chords.y[both]))
    err = norm2(z - illum_chords.z[both]) / np.maximum(reach, _diameter(chords.x))
    return float(err.max(initial=0.0)), int(np.count_nonzero(~both))


def _normalised_difference(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale > 0.0, (a - b) / scale, 0.0)


def endpoint_balance_residual(chords):
    """Endpoint balance sin^3(alpha) k(t) - sin^3(beta) k(s), divided by the larger term.

    This is the condition sin^3(alpha)/k(s) = sin^3(beta)/k(t) multiplied by
    k(s) k(t), so it stays finite where a curvature vanishes; the value lies
    in [-2, 2]. Also evaluated through the translation-invariant
    normal-component form; the two must agree to 1e-10 in every lane or a
    SolverError is raised.
    """
    ks, kt = chords.ks, chords.kt
    value = _normalised_difference(np.sin(chords.alpha) ** 3 * kt, np.sin(chords.beta) ** 3 * ks)
    # independent form: cubed normal components of the chord at both endpoints
    # (the common factor |c|^3 cancels in the ratio)
    speed_s, speed_t = norm2(chords.jets[1])
    alt = _normalised_difference((-chords.p / speed_s) ** 3 * kt, -((-chords.q / speed_t) ** 3) * ks)
    if np.any(np.abs(value - alt) > 1e-10):
        raise SolverError("angle-form and normal-form residuals disagree")
    return value


def affine_cut_lengths(chords):
    """Affine arc length of the boundary cut off by every chord of a sweep, L(t) - L(s) in ``curve.affine_arc``."""
    at_s, at_t = chords.curve.affine_arc(np.stack([chords.s, chords.t]))
    return at_t - at_s


def affine_cut_length_report(chords) -> ConstancyReport:
    """Constancy of the affine arc length of the boundary cut off by the sweep."""
    return ConstancyReport.from_values(affine_cut_lengths(chords))


class ConcurrencyFit:
    """Least-squares common point of a bundle of lines."""

    def __init__(self, point, rms_distance):
        self.point, self.rms_distance = point, rms_distance


def proper_affine_sphere_residual(points, normals) -> ConcurrencyFit:
    """Least-squares concurrency point of the affine-normal lines.

    Each line passes through a sample point along its affine normal; the fit
    minimizes the sum of squared line-to-point distances.
    """
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if len(points) < 3:
        raise DomainError("need at least 3 affine-normal lines")
    directions = normals / norm2(normals)[:, None]
    line_normals = np.stack([-directions[:, 1], directions[:, 0]], axis=1)
    mats = line_normals[:, :, None] * line_normals[:, None, :]
    a = mats.sum(axis=0)
    rhs = (mats @ points[:, :, None]).sum(axis=0)[:, 0]
    point = np.linalg.solve(a, rhs)
    dists = np.sum(line_normals * (points - point), axis=1)
    return ConcurrencyFit(point, float(np.sqrt(np.mean(dists**2))))


def affine_sphere_residual(curve):
    """Rms distance of the body's affine-normal lines from their concurrency point, over its diameter.

    The lines pass through 128 half-offset uniform samples, from one
    evaluation of orders 0 to 3 there. A sample at a flat point
    (det(g', g'') <= 0 up to rounding) has no affine normal line and is
    left out. The residual is 0 on a proper affine sphere, an ellipse.
    """
    n = 128
    grid = (np.arange(n) + 0.5) * (PERIOD / n)
    pts, d1, d2, d3 = curve.derivatives(grid, (0, 1, 2, 3))
    live = det2(d1, d2) > 0.0
    fit = proper_affine_sphere_residual(pts[live], affine_normal(d1[live], d2[live], d3[live]))
    return fit.rms_distance / _diameter(pts)


def petty_ratios(curve):
    """det(g', g'') / det(g - c, g')^3 at 512 uniform samples: the reciprocal Petty condition about the centroid c.

    It is finite everywhere, flat points (det(g', g'') = 0) included, and
    does not depend on where the body sits.
    """
    g, d1, d2 = curve.on_grid(512, (0, 1, 2))
    return det2(d1, d2) / det2(g - _centroid(curve), d1) ** 3


def _centroid(curve):
    """The body's centroid, o + (2/3) mean((g - o) w) / mean(w) from its moments about o."""
    origin, moments = curve.moments
    return origin + (2.0 / 3.0) * moments.mean[1:] / moments.mean[0]


def _check_symmetric(curve, center, name):
    """Reject a curve that is not symmetric about the point ``center``, called ``name`` in the error."""
    n = max(4 * curve.resolution, 512)
    grid = np.arange(n) * (PERIOD / n)
    pts, opposite = curve.derivative(np.stack([grid, grid + PERIOD / 2.0]), 0) - center
    scale = float(np.max(norm2(pts)))
    defect = float(np.max(norm2(pts + opposite)))
    if defect > 1e-9 * scale:
        raise DomainError(f"curve is not symmetric about {name} (defect {defect:.3e})")


def radon_check(curve, n_samples=256) -> float:
    """Max angular defect of the tangent/radial involution about the centroid c.

    For each s the parameter t with gamma(t) - c parallel to gamma'(s) is
    found in (s, s + PERIOD/2); the residual is |det(gamma'(t), gamma(s) - c)|
    normalized. Zero characterizes Radon curves (bodies homothetic to their
    polar intersection body), wherever the body sits.
    """
    center = _centroid(curve)
    _check_symmetric(curve, center, "its centroid")
    s = np.arange(n_samples) * (PERIOD / n_samples)
    g_s, d1 = curve.on_grid(n_samples, (0, 1))
    lo, hi = s + 1e-12, s + PERIOD / 2.0 - 1e-12

    def fdf(u):
        # det(gamma'(s), gamma(u) - c) rises through its root on (s, s + PERIOD/2): the curve turns counterclockwise
        g, d = curve.derivatives(u, (0, 1))
        return det2(d1, g - center), det2(d1, d)

    # the residual's rounding: a few eps of |gamma'(s)| max|gamma - c|, up to 5 on the ellipses, as u
    # reaches 1.5 periods. A start on the root, as on every ellipse, then ends the solve
    f_tol = 16.0 * np.finfo(float).eps * norm2(d1) * np.max(norm2(g_s - center))
    t = bracketed_newton(fdf, lo, hi, 0.5 * (lo + hi), f_tol)
    d1_t = curve.derivative(t, 1)
    return float(np.max(np.abs(det2(d1_t, g_s - center)) / (norm2(d1_t) * norm2(g_s - center))))


# every carousel is chained from the starts s0 + k PERIOD / CAROUSEL_STARTS, the chain from s0 first
CAROUSEL_STARTS = 32


def _tangent_triangles(x, d):
    """Chord vertices of 3-chair chains and the tangent-triangle vertices after and before each.

    The vertex opposite chain vertex i is the apex of the tangents at vertices
    i + 1 and i + 2 (mod 3), from gamma and gamma' at the vertices as ``chord.chains``
    gives them. Returns three (3, lanes, 2) point arrays and the degenerate lanes.
    """
    apex, parallel, _ = _apex(x[[1, 2, 0]], x[[2, 0, 1]], d[[1, 2, 0]], d[[2, 0, 1]])
    return x[:3], apex[[1, 2, 0]], apex[[2, 0, 1]], parallel.any(axis=0)


def build_carousel(curve, p, q, delta=None, s0=0.0) -> Carousel:
    """Chain q equal-area chords from each of the CAROUSEL_STARTS starts from s0, all at one delta.

    The closure defects measure periodicity. For q = 3 the side ratios of
    the circumscribed tangent triangles are reported (all equal to 1 exactly
    when the chain is a closing carousel of an ellipse-like configuration),
    with the drift of the chord-triangle centroid and how far the chord
    vertices sit from the tangent-triangle side midpoints. With no
    ``delta``, the chains are the closing solve's (``_closing_chain``).
    """
    _require_carousel(p, q, s0)
    if delta is None:
        delta, (lanes, at_lanes, dt_ddelta), solves = _closing_chain(curve, p, q, s0)
    else:  # the chord solve rejects a delta outside (0, area)
        (lanes, at_lanes, dt_ddelta), solves = chains(curve, q, delta, CAROUSEL_STARTS, float(s0)), 1
    defects = lanes[q] - lanes[0] - p * PERIOD
    carousel = Carousel(
        p=p,
        q=q,
        delta=delta,
        s0=float(s0),
        vertices=lanes[:, 0].tolist(),
        closure_defect=float(defects[0]),
        defect_slope=float(dt_ddelta[0]),
        closure_defect_max=float(np.max(np.abs(defects))),
        chain_solves=solves,
    )
    if q == 3:
        v, ahead, behind, degenerate = _tangent_triangles(*at_lanes)
        if not degenerate[0]:  # no ratios where the tangent triangle degenerates, far from closure
            carousel.lambdas = (norm2(ahead[:, 0] - v[:, 0]) / norm2(v[:, 0] - behind[:, 0])).tolist()
        if not degenerate.any():
            lambdas = norm2(ahead - v) / norm2(v - behind)
            centroids = v.mean(axis=0)
            carousel.lambda_report = ConstancyReport.from_values(lambdas.T.ravel())
            carousel.centroid_drift_max = float(np.max(norm2(centroids - centroids[0])))
            carousel.lambda_product_max_dev = float(np.max(np.abs(lambdas.prod(axis=0) - 1.0)))
            carousel.medial_residual_max = float(np.max(norm2(v - 0.5 * (ahead + behind))))
    return carousel


def _require_carousel(p, q, s0):
    """Reject a chair count q, winding p or start s0 that no carousel has, or whose chords cannot be solved."""
    if q < 2:
        raise DomainError("carousel needs at least 2 chairs")
    if not 0 < p < q:
        raise DomainError("require 0 < p < q")
    if math.gcd(p, q) > 1:
        raise DomainError(f"p/q = {p}/{q} is not in lowest terms")
    if not math.isfinite(s0):
        raise DomainError(f"the start s0 must be finite, got {s0}")
    if s0 + CAP_MARGIN * PERIOD == s0:  # the first chord's bracket would start at s0 itself
        raise DomainError(f"the start s0 = {s0:g} is too far from 0: s0 + {CAP_MARGIN:g} period rounds to s0")


def _closing_chain(curve, p, q, s0):
    """The area delta* where the p/q carousel from s0 closes, the chains from every start there, and the chain calls."""
    total = area(curve)
    tried = {}  # the chains at every delta tried, so the ones at delta* are not solved again

    def fdf(d):
        # the closure defect of the chain from s0, lane 0, and its slope in delta. The
        # first delta tried, where every ellipse closes, chains every start; the rest s0 alone
        d = float(d[0])
        if d not in tried:
            tried[d] = chains(curve, q, d, 1 if tried else CAROUSEL_STARTS, float(s0))
        ts, _, slope = tried[d]
        return ts[q, :1] - ts[0, :1] - p * PERIOD, slope[:1]

    # the defect increases with delta, as every vertex does, so the whole range
    # of cut-off areas brackets it. Every ellipse closes at the cap of chord
    # angle 2 pi p / q, the start; raises SolverError when the defect does not
    # change sign on the bracket
    lo, hi = MIN_CUT_FRACTION * total, (1.0 - MIN_CUT_FRACTION) * total
    theta = 2.0 * math.pi * p / q
    delta0 = total * (theta - math.sin(theta)) / (2.0 * math.pi)
    delta_star = float(bracketed_newton(fdf, lo, hi, [delta0], f_tol=1e-14 * PERIOD)[0])
    defect = abs(fdf([delta_star])[0][0])
    if defect > 1e-10 * PERIOD:
        raise SolverError(f"carousel closure only reached |defect| = {defect:.3e}")
    closing, solves = tried[delta_star], len(tried)
    if closing[0].shape[1] == 1:  # the root is not the first delta tried: chain every start there once
        closing, solves = chains(curve, q, delta_star, CAROUSEL_STARTS, float(s0)), solves + 1
    return delta_star, closing, solves
