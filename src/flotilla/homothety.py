"""Homothety criteria: chord-cube constancy, duality, cut lengths, carousels.

These are the executable verification suites: each operation reduces a sweep
(or a chained chord construction) to a small report that a test or the CLI
can threshold.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chord import (
    FLOTATION,
    ILLUMINATION,
    _cap_area_dt,
    _flotation_dt_ds,
    _flotation_t,
    sweep,
    tangent_intersection,
)
from .curve import (
    SampledPeriodic,
    affine_arclengths,
    area,
    det2,
    norm2,
)
from .errors import AccuracyError, DomainError, ParallelElementsError, SolverError
from .numerics import bracketed_newton, signed_cbrt


@dataclass(frozen=True)
class ConstancyReport:
    """Summary statistics for an 'is constant' claim over sweep samples."""

    mean: float
    coefficient_of_variation: float
    max_abs_deviation: float

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        mean = float(values.mean())
        std = float(values.std())
        cv = std / abs(mean) if mean != 0.0 else math.inf
        return cls(mean, cv, float(np.max(np.abs(values - mean))))


@dataclass(frozen=True)
class HomothetyFit:
    """Least-squares dilation taking curve A onto curve B at matched parameters.

    When the ratio is within 1e-9 of 1 the dilation center is ill-posed; the
    fit then degrades to translation mode and ``translation`` holds the offset.
    """

    center: np.ndarray
    ratio: float
    rms_residual: float
    matched: bool
    translation: np.ndarray | None = None

    @property
    def is_translation(self):
        return self.translation is not None


@dataclass
class Carousel:
    """A closed chain of equal-area chords with q chairs."""

    p: int
    q: int
    delta: float
    s0: float
    vertices: list
    closure_defect: float
    defect_slope: float  # d(closure_defect)/d(delta), accumulated along the chain
    centroid_track: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)


def _points(samples):
    """The points of a derived curve, or the given (N, 2) points."""
    return np.asarray(getattr(samples, "points", samples), dtype=float)


def _diameter(points):
    hull_min = points.min(axis=0)
    hull_max = points.max(axis=0)
    return float(norm2(hull_max - hull_min))


def fit_homothety(samples_a, samples_b) -> HomothetyFit:
    """Fit center and ratio minimizing sum |B_i - center - ratio (A_i - center)|^2."""
    a = _points(samples_a)
    b = _points(samples_b)
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


def chord_cube_report(curve, delta, kind, n_samples=512, chords=None):
    """Constancy report of the cubed affine chord length, with the implied ratio.

    The implied homothety ratio is mean(||c||^3) / (12 delta) for flotation
    and mean(||c||^3) / (24 delta_hat) for illumination.
    """
    if chords is None:
        chords = sweep(curve, kind, delta, n_samples)
    # Python's pow, not numpy's vectorised one, which rounds differently in the last bit
    values = np.array([a**3 for a in chords.affine_norm_c.tolist()])
    report = ConstancyReport.from_values(values)
    divisor = 12.0 * delta if kind == FLOTATION else 24.0 * delta
    return report, report.mean / divisor


def duality_parameters(delta, lam):
    """Cone area and ratio of the dual illumination pair of a flotation pair.

    Solves delta_hat = (3/2) delta lam - delta and 1/lam_hat + 2/lam = 3;
    the product relation 1/(delta_hat lam_hat) = 2/(delta lam) is asserted.
    """
    if lam <= 2.0 / 3.0:
        raise DomainError("duality requires lam > 2/3 (otherwise lam_hat <= 0)")
    delta_hat = 1.5 * delta * lam - delta
    lam_hat = lam / (3.0 * lam - 2.0)
    lhs = 1.0 / (delta_hat * lam_hat)
    rhs = 2.0 / (delta * lam)
    if abs(lhs - rhs) > 1e-9 * abs(rhs):
        raise AccuracyError("duality parameter relations are inconsistent")
    return delta_hat, lam_hat


def duality_pointwise_check(curve, delta, n_samples=256, lam=None, chords=None, illum_chords=None):
    """Max distance between flotation-chord poles and the illumination boundary.

    Matched parametrically: the pole of the flotation chord at s is compared
    with the silhouette apex at the same s, at the dual cone area. Sweeps
    that are not passed in as ``chords`` / ``illum_chords`` are solved here.
    Returns (max_error, skipped) where skipped counts poles at infinity.
    """
    flot = chords if chords is not None else sweep(curve, FLOTATION, delta, n_samples)
    if illum_chords is None:
        if lam is None:
            _, lam = chord_cube_report(curve, delta, FLOTATION, chords=flot)
        delta_hat, _ = duality_parameters(delta, lam)
        illum_chords = sweep(curve, ILLUMINATION, delta_hat, n_samples)
    both = flot.apex & illum_chords.apex
    err = norm2(flot.z[both] - illum_chords.z[both])
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
    normal-component form; the two must agree to 1e-10 in every lane or an
    AccuracyError is raised.
    """
    ks, kt = chords.curvatures()
    value = _normalised_difference(np.sin(chords.alpha) ** 3 * kt, np.sin(chords.beta) ** 3 * ks)
    # independent form: cubed normal components of the chord at both endpoints
    # (the common factor |c|^3 cancels in the ratio)
    d1, d2 = chords.ends(1)
    c = chords.c
    alt = _normalised_difference((det2(d1, c) / norm2(d1)) ** 3 * kt, -((det2(d2, c) / norm2(d2)) ** 3) * ks)
    if np.any(np.abs(value - alt) > 1e-10):
        raise AccuracyError("angle-form and normal-form residuals disagree")
    return value


def affine_cut_rate(chords):
    """Closed-form s-derivative of the affine arc length cut off by the chord."""
    ks, kt = chords.curvatures()
    speed = norm2(chords.ends(1)[0])
    sa = np.sin(chords.alpha)
    sb = np.sin(chords.beta)
    return speed * sa * (signed_cbrt(kt) / sb - signed_cbrt(ks) / sa)


def affine_cut_lengths(curve, chords, rel_tol=1e-12):
    """Affine arc length of the boundary cut off by every chord of a sweep, in one pass.

    The chord ends, reduced to one period from the smallest s, are merged into
    one breakpoint array; one adaptive quadrature gives the affine length
    between consecutive breakpoints, and the cumulative sums give every
    chord's arc [s, t]. Only the few intervals next to a flat-point cusp of
    the integrand need splitting. The error budget is global (``rel_tol`` of
    the affine perimeter).
    """
    s, t = chords.s, chords.t
    start, period = s.min(), curve.period
    if s.max() >= start + period:
        raise DomainError("chord starts must lie within one period")
    wraps = t >= start + period
    t_reduced = np.where(wraps, t - period, t)
    breaks = np.unique(np.concatenate([s, t_reduced, [start + period]]))
    # extended precision keeps the rounding of the running sum below that of the pieces
    pieces = affine_arclengths(curve, breaks, rel_tol=rel_tol)
    cumulative = np.concatenate([[0.0], np.cumsum(pieces, dtype=np.longdouble)])
    at_s = cumulative[np.searchsorted(breaks, s)]
    at_t = cumulative[np.searchsorted(breaks, t_reduced)] + np.where(wraps, cumulative[-1], 0.0)
    return (at_t - at_s).astype(float)


def affine_cut_length_report(curve, delta, n_samples=256, chords=None, rel_tol=1e-12) -> ConstancyReport:
    """Constancy of the affine arc length of the boundary cut off by the sweep."""
    if chords is None:
        chords = sweep(curve, FLOTATION, delta, n_samples)
    return ConstancyReport.from_values(affine_cut_lengths(curve, chords, rel_tol=rel_tol))


@dataclass(frozen=True)
class ConcurrencyFit:
    """Least-squares common point of a bundle of lines."""

    point: np.ndarray
    rms_distance: float
    well_conditioned: bool


def proper_affine_sphere_residual(points, normals) -> ConcurrencyFit:
    """Least-squares concurrency point of the affine-normal lines.

    Each line passes through a sample point along its affine normal; the fit
    minimizes the sum of squared line-to-point distances. A nearly parallel
    normal bundle is flagged as ill-conditioned.
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
    cond = np.linalg.cond(a)
    point = np.linalg.solve(a, rhs)
    dists = np.sum(line_normals * (points - point), axis=1)
    return ConcurrencyFit(point, float(np.sqrt(np.mean(dists**2))), bool(cond < 1e8))


def petty_condition_report(curve, n_samples=512) -> ConstancyReport:
    """Constancy of det(g, g')^3 / det(g', g'') over uniform samples.

    The value depends on the origin; a warning is emitted if the origin does
    not see the curve with positive orientation (origin outside).
    """
    grid = np.arange(n_samples) * (curve.period / n_samples)
    g = curve.derivative(grid, 0)
    d1 = curve.derivative(grid, 1)
    d2 = curve.derivative(grid, 2)
    radial = det2(g, d1)
    if np.any(radial <= 0.0):
        warnings.warn("origin is not interior to the curve; report is origin-sensitive")
    values = radial**3 / det2(d1, d2)
    return ConstancyReport.from_values(values)


def _check_origin_symmetric(curve, tol=1e-9):
    n = max(4 * curve.resolution, 512)
    grid = np.arange(n) * (curve.period / n)
    pts = curve.derivative(grid, 0)
    opposite = curve.derivative(grid + curve.period / 2.0, 0)
    scale = float(np.max(norm2(pts)))
    defect = float(np.max(norm2(pts + opposite)))
    if defect > tol * scale:
        raise DomainError(f"curve is not origin-symmetric (defect {defect:.3e})")


def intersection_body_polar(curve, n_samples=None) -> SampledPeriodic:
    """The curve g'/(2 det(g, g')), the polar of the intersection body.

    Only defined for origin-symmetric curves with the origin inside; returned
    as a sampled curve whose tangent is parallel to the original position
    vector at matched parameters.
    """
    _check_origin_symmetric(curve)
    n = n_samples if n_samples is not None else max(2 * curve.resolution, 256)
    grid = np.arange(n) * (curve.period / n)
    g = curve.derivative(grid, 0)
    d1 = curve.derivative(grid, 1)
    radial = det2(g, d1)
    if np.any(radial <= 0.0):
        raise DomainError("origin must be strictly inside the curve")
    return SampledPeriodic(points=d1 / (2.0 * radial[:, None]))


def radon_check(curve, n_samples=256) -> float:
    """Max angular defect of the tangent/radial involution.

    For each s the parameter t with gamma(t) parallel to gamma'(s) is found in
    (s, s + period/2); the residual is |det(gamma'(t), gamma(s))| normalized.
    Zero characterizes Radon curves (bodies homothetic to their polar
    intersection body).
    """
    _check_origin_symmetric(curve)
    s = np.arange(n_samples) * (curve.period / n_samples)
    d1 = curve.derivative(s, 1)
    lo, hi = s + 1e-12, s + curve.period / 2.0 - 1e-12
    t = bracketed_newton(
        lambda u: det2(curve.derivative(u, 0), d1),
        lambda u: det2(curve.derivative(u, 1), d1),
        lo,
        hi,
        0.5 * (lo + hi),
        f_tol=0.0,
    )
    g_s = curve.derivative(s, 0)
    d1_t = curve.derivative(t, 1)
    return float(np.max(np.abs(det2(d1_t, g_s)) / (norm2(d1_t) * norm2(g_s))))


def _chains(curve, p, q, delta, starts):
    """Vertices (q + 1, lanes) of the chord chains from every start, and d(last vertex)/d(delta)."""
    ts = [starts]
    dt_ddelta = np.zeros_like(starts)  # the starts do not move with delta
    for _ in range(q):
        s = ts[-1]
        t = _flotation_t(curve, s, delta)
        # differentiate cap_area(t_i, t_{i+1}) = delta along the chain
        dt_ddelta = 1.0 / _cap_area_dt(curve, s, t) + _flotation_dt_ds(curve, s, t) * dt_ddelta
        ts.append(t)
    if np.any(ts[-1] - starts > (p + 1) * curve.period):
        raise SolverError("carousel chaining overflowed the expected winding")
    return np.array(ts), dt_ddelta


def _tangent_triangles(curve, ts):
    """Tangent-triangle vertices after and before each chord vertex of 3-chair chains, each (3, lanes, 2).

    The vertex opposite chain vertex i is the apex of the tangents at vertices
    i + 1 and i + 2 (mod 3); the chain vertices ts have shape (4, lanes).
    Raises ParallelElementsError if a tangent triangle degenerates.
    """
    wrap = np.array([[0.0], [curve.period], [0.0]])
    apex = tangent_intersection(curve, ts[[1, 2, 0]], ts[[2, 0, 1]] + wrap)
    return apex[[1, 2, 0]], apex[[2, 0, 1]]


def build_carousel(curve, p, q, delta, s0=0.0) -> Carousel:
    """Chain q equal-area chords from s0; the closure defect measures periodicity.

    For q = 3 the side ratios of the circumscribed tangent triangle are
    reported (all equal to 1 exactly when the chain is a closing carousel of
    an ellipse-like configuration).
    """
    if not 0 < p < q:
        raise DomainError("require 0 < p < q")
    total = area(curve)
    if not 0.0 < delta < total:
        raise DomainError("delta must lie in (0, area)")
    chain, dt_ddelta = _chains(curve, p, q, delta, np.array([float(s0)]))
    ts = chain[:, 0]
    carousel = Carousel(
        p=p,
        q=q,
        delta=delta,
        s0=float(s0),
        vertices=ts.tolist(),
        closure_defect=float(ts[q] - ts[0] - p * curve.period),
        defect_slope=float(dt_ddelta[0]),
    )
    if q == 3:
        v = curve.derivative(chain[:3], 0)
        try:
            ahead, behind = _tangent_triangles(curve, chain)
            carousel.lambdas = (norm2(ahead - v) / norm2(v - behind))[:, 0].tolist()
        except ParallelElementsError:
            pass  # tangent triangle degenerates far from closure
        carousel.centroid_track.append((float(s0), v[:, 0].mean(axis=0)))
    return carousel


def solve_carousel_delta(curve, p, q, s0=0.0) -> float:
    """Cut-off area at which the p/q carousel from s0 closes."""
    if q < 2:
        raise DomainError("carousel needs at least 2 chairs")
    total = area(curve)

    # Newton asks for the defect and its slope at the same delta: one chain serves both
    @functools.lru_cache(maxsize=1)
    def chain(d):
        return build_carousel(curve, p, q, d, s0=s0)

    def defect(d):
        return chain(d).closure_defect

    def slope(d):
        return chain(d).defect_slope

    # raises SolverError when the defect does not change sign on the bracket
    lo, hi = 1e-6 * total, 0.5 * total - 1e-9 * total
    delta_star = bracketed_newton(defect, slope, lo, hi, 0.5 * (lo + hi), f_tol=1e-14 * curve.period)
    residual = defect(delta_star)
    if abs(residual) > 1e-10 * curve.period:
        raise SolverError(f"carousel closure only reached |defect| = {abs(residual):.3e}")
    return float(delta_star)


@dataclass(frozen=True)
class CarouselDiagnostics:
    lambda_report: ConstancyReport
    centroid_drift_max: float
    lambda_product_max_dev: float
    medial_residual_max: float
    closure_defect_max: float


def carousel_diagnostics(curve, delta, n_samples=64) -> CarouselDiagnostics:
    """Track the 3-chair carousel invariants over a grid of starting points.

    Chains every start at once (three lane-wise chord solves). Reports the
    worst closure defect |t_3 - t_0 - period| over the starts, the spread of
    the tangent-triangle ratios, their product's deviation from 1, the drift
    of the chord-triangle centroid, and how far the chord vertices sit from
    the tangent-triangle side midpoints.
    """
    period = curve.period
    starts = np.arange(n_samples) * (period / n_samples)
    ts, _ = _chains(curve, 1, 3, delta, starts)
    v = curve.derivative(ts[:3], 0)
    ahead, behind = _tangent_triangles(curve, ts)
    lambdas = norm2(ahead - v) / norm2(v - behind)
    centroids = v.mean(axis=0)
    return CarouselDiagnostics(
        lambda_report=ConstancyReport.from_values(lambdas.T.ravel()),
        centroid_drift_max=float(np.max(norm2(centroids - centroids[0]))),
        lambda_product_max_dev=float(np.max(np.abs(lambdas.prod(axis=0) - 1.0))),
        medial_residual_max=float(np.max(norm2(v - 0.5 * (ahead + behind)))),
        closure_defect_max=float(np.max(np.abs(ts[3] - ts[0] - period))),
    )


def hausdorff_distance(samples_a, samples_b) -> float:
    """Symmetric Hausdorff distance between two point samples."""
    a = _points(samples_a)
    b = _points(samples_b)
    if len(a) == 0 or len(b) == 0:
        raise DomainError("sample sets must be non-empty")
    # squared distances in row blocks bound the temporary to 256 x len(b) pairs
    worst_a = 0.0
    nearest_b = np.full(len(b), math.inf)
    for block in np.array_split(a, -(-len(a) // 256)):
        d2 = np.sum((block[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        worst_a = max(worst_a, float(d2.min(axis=1).max()))
        nearest_b = np.minimum(nearest_b, d2.min(axis=0))
    return math.sqrt(max(worst_a, float(nearest_b.max())))
