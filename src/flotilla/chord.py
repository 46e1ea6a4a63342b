"""Equal-area chord maps: cut-off caps (flotation) and silhouette cones (illumination).

A chord is the pair (s, t) of boundary parameters with t kept unwrapped in
(s, s + period). The implicit function t(s) is defined by holding the cap or
cone area fixed and is solved by safeguarded Newton iteration with analytic
area derivatives. Every function here takes arrays of lanes (s, t): a sweep
solves all of its chords in one lane-wise iteration, each lane inside its own
global bracket, and a single chord is the one-lane case. By Green's theorem
both areas are closed forms in the endpoints and the curve's moment
antiderivative (``ClosedConvexCurve.moments``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .curve import area, curvature, det2, norm2
from .errors import DomainError, ParallelElementsError, SolverError
from .numerics import bracketed_newton, signed_cbrt

FLOTATION = "flotation"
ILLUMINATION = "illumination"

# tangents at the endpoints are treated as parallel below this relative determinant
PARALLEL_TOL = 1e-10
# rounding level of det(u, v) relative to |u| |v|
_ROUNDING_DET = 8.0 * np.finfo(float).eps


# the fields of Chords with one entry per lane
_LANES = ("s", "t", "x", "y", "c", "z", "apex", "alpha", "beta", "dt_ds", "norm_c", "affine_norm_c")


@dataclass(eq=False)
class Chords:
    """The chords of one sweep as arrays, one lane per chord.

    ``s`` and ``t`` are the end parameters, ``x`` and ``y`` the end points
    and ``c = y - x``. ``z`` is the intersection of the end tangents, NaN in
    the lanes where they are parallel (``apex`` False there). ``alpha`` and
    ``beta`` are the interior angles between the chord and the tangents at
    x and y; ``norm_c`` and ``affine_norm_c`` are the Euclidean and affine
    chord lengths. Indexing or slicing gives the chords of those lanes, and
    ``chords[i]`` is the one-lane case. ``ends(k)`` is the k-th curve
    derivative at both chord ends, shape (2, lanes, 2), from one curve call
    per order.
    """

    curve: object = field(repr=False)
    kind: str
    delta: float
    s: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    c: np.ndarray
    z: np.ndarray
    apex: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    dt_ds: np.ndarray
    norm_c: np.ndarray
    affine_norm_c: np.ndarray
    _ends: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.s)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            index = [index]
        return replace(self, **{name: getattr(self, name)[index] for name in _LANES})

    def ends(self, order):
        if order not in self._ends:
            self._ends[order] = _ends(self.curve, self.s, self.t, order)
        return self._ends[order]

    def curvatures(self):
        """Euclidean curvature at both chord ends, shape (2, lanes)."""
        return curvature(self.ends(1), self.ends(2))


def _pair(s, t):
    """Chord end parameters stacked on a leading axis of length 2."""
    return np.stack(np.broadcast_arrays(np.asarray(s, dtype=float), t))


def _ends(curve, s, t, order):
    """Order-th derivative at both chord ends, shape (2, ..., 2), from one curve call."""
    return curve.derivative(_pair(s, t), order)


def arc_moments(curve, s, t):
    """Moment origin o, endpoints gamma(s) - o and gamma(t) - o, and the moment increment over [s, t].

    The increment is the integral over [s, t] of [w, (gamma - o) w] with
    w = det(gamma - o, gamma'), from the curve's moment antiderivative.
    """
    origin, moments = curve.moments
    params = _pair(s, t)
    x, y = curve.derivative(params, 0) - origin
    m_s, m_t = moments(params, -1)
    return origin, x, y, m_t - m_s


def cap_area(curve, s, t):
    """Area swept between the chord [gamma(s), gamma(t)] and the arc, s < t."""
    if np.any(np.asarray(t) < s):
        raise DomainError("cap_area requires s <= t")
    _, x, y, dm = arc_moments(curve, s, t)
    return 0.5 * (dm[..., 0] - det2(x, y))


def _apex(x, y, d1, d2):
    """Tangent-line intersection of every lane and the mask of lanes whose tangents are parallel."""
    v = det2(d1, d2)
    parallel = np.abs(v) <= PARALLEL_TOL * norm2(d1) * norm2(d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x + d1 * (det2(y - x, d2) / v)[..., None], parallel


def tangent_intersection(curve, s, t):
    """Intersection of the tangent lines at gamma(s) and gamma(t)."""
    z, parallel = _apex(*_ends(curve, s, t, 0), *_ends(curve, s, t, 1))
    if np.any(parallel):
        raise ParallelElementsError("tangent lines are parallel; no apex")
    return z


def _cone_area_lanes(curve, s, t):
    """Cone area of every lane and the mask of lanes without an apex (area undefined there)."""
    _, x, y, dm = arc_moments(curve, s, t)
    z, parallel = _apex(x, y, *_ends(curve, s, t, 1))
    return -0.5 * (dm[..., 0] - det2(z, y - x)), parallel


def cone_area(curve, s, t):
    """Area of the silhouette region between the two tangent segments and the arc."""
    cone, parallel = _cone_area_lanes(curve, s, t)
    if np.any(parallel):
        raise ParallelElementsError("tangent lines are parallel; no apex")
    return cone


def _cap_area_dt(curve, s, t):
    x, y = _ends(curve, s, t, 0)
    return 0.5 * det2(y - x, curve.derivative(t, 1))


def _cone_area_dt(curve, s, t):
    x, y = _ends(curve, s, t, 0)
    d1, d2 = _ends(curve, s, t, 1)
    dd2 = curve.derivative(t, 2)
    c = y - x
    v = det2(d1, d2)
    q = det2(c, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dmu_dt = (det2(c, dd2) * v - q * det2(d1, dd2)) / v**2
    return -0.5 * det2(c, d1) * dmu_dt


def _flotation_dt_ds(curve, s, t):
    x, y = _ends(curve, s, t, 0)
    d1, d2 = _ends(curve, s, t, 1)
    return -det2(y - x, d1) / det2(y - x, d2)


def _chords(curve, kind, delta, s, t):
    """Chords of the lanes (s, t), from one pass over their frame arrays."""
    ends = {order: _ends(curve, s, t, order) for order in ((0, 1) if kind == FLOTATION else (0, 1, 2))}
    (x, y), (d1, d2) = ends[0], ends[1]
    c = y - x
    p = det2(c, d1)
    q = det2(c, d2)
    v = det2(d1, d2)
    alpha = np.arctan2(-p, np.sum(c * d1, axis=-1))
    beta = np.arctan2(q, np.sum(c * d2, axis=-1))
    z, parallel = _apex(x, y, d1, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # signed tangent-triangle area; affine chord length is 2 T^(1/3)
        affine_norm = np.where(parallel, np.inf, 2.0 * signed_cbrt(-0.5 * p * q / v))
        if kind == FLOTATION:
            dt_ds = -p / q
        else:
            dd1, dd2 = ends[2]
            dt_ds = q**2 * det2(d1, dd1) / (p**2 * det2(d2, dd2))
    z = np.where(parallel[:, None], np.nan, z)
    chords = Chords(curve, kind, delta, s, t, x, y, c, z, ~parallel, alpha, beta, dt_ds, norm2(c), affine_norm)
    chords._ends.update(ends)
    return chords


def _flotation_t(curve, s, delta):
    """t in (s, s + period) with cap_area(s, t) = delta, for every lane of s.

    The cap area increases strictly from 0 to the body area on (s, s + period),
    so that whole interval brackets every lane.
    """
    total = area(curve)
    if not 0.0 < delta < total:
        raise DomainError(f"delta must lie in (0, area) = (0, {total})")
    period = curve.period
    tiny = 1e-12 * period
    return bracketed_newton(
        lambda t: cap_area(curve, s, t) - delta,
        lambda t: _cap_area_dt(curve, s, t),
        s + tiny,
        s + period - tiny,
        s + period * (delta / total),
        f_tol=1e-12 * total,
    )


def solve_flotation_chord(curve, s, delta):
    """Find t with cap_area(s, t) = delta and assemble the chord frame, as one-lane Chords."""
    s = np.array([float(s)])
    return _chords(curve, FLOTATION, delta, s, _flotation_t(curve, s, delta))


def antipodal_tangent_param(curve, s):
    """First t > s at which the tangent is parallel to the tangent at s, for every lane of s."""
    d1 = curve.derivative(s, 1)
    # the tangent turns monotonically: det > 0 until it has turned by pi, then det < 0
    period = curve.period
    x0 = s + 0.5 * period
    # stop at the rounding level of det: where the antipode is a flat point,
    # det ~ (t - t_par)^3 fixes t_par only to about eps^(1/3) and Newton
    # converges linearly toward it
    f_tol = _ROUNDING_DET * norm2(d1) * norm2(curve.derivative(x0, 1))
    return bracketed_newton(
        lambda t: det2(d1, curve.derivative(t, 1)),
        lambda t: det2(d1, curve.derivative(t, 2)),
        s + 0.02 * period,
        s + 0.98 * period,
        x0,
        f_tol=f_tol,
    )


def _silhouette_t(curve, s, delta_hat):
    """t in (s, t_par) with cone_area(s, t) = delta_hat, for every lane of s.

    The cone area increases on (s, t_par), from 0 next to s to infinity where
    the end tangents turn parallel, so that interval brackets every lane.
    """
    if delta_hat <= 0.0:
        raise DomainError("delta_hat must be positive")
    t_par = antipodal_tangent_param(curve, s)

    def f(t):
        cone, parallel = _cone_area_lanes(curve, s, t)
        # at a flat point s the tangents stay parallel for a while after s, where
        # the cone area tends to 0; next to t_par the apex escapes to infinity
        no_apex = np.where(t - s < t_par - t, -delta_hat, np.inf)
        return np.where(parallel, no_apex, cone - delta_hat)

    tiny = 1e-9 * curve.period
    lo, hi = s + tiny, t_par - tiny
    f_hi = f(hi)
    if np.any(f_hi < 0.0):
        i = int(np.argmin(f_hi))
        raise SolverError(
            f"delta_hat={delta_hat} not reachable at s={s[i]} before tangents turn parallel "
            f"(max representable cone area {f_hi[i] + delta_hat:.6g})"
        )
    return bracketed_newton(
        f, lambda t: _cone_area_dt(curve, s, t), lo, hi, 0.5 * (lo + hi), f_tol=1e-12 * area(curve)
    )


def solve_silhouette_chord(curve, s, delta_hat):
    """Find t with cone_area(s, t) = delta_hat, as one-lane Chords.

    The admissible range for t is (s, t_par) where the endpoint tangents
    stop intersecting; the cone area grows without bound as t -> t_par.
    """
    s = np.array([float(s)])
    return _chords(curve, ILLUMINATION, delta_hat, s, _silhouette_t(curve, s, delta_hat))


def sweep(curve, kind, delta, n_samples, s0=0.0):
    """Solve the chord map on a uniform s grid, all chords in one lane-wise solve.

    The unwrapped t values must be strictly increasing in s, or a SolverError
    diagnostic is raised.
    """
    if n_samples < 16:
        raise DomainError("n_samples must be at least 16")
    if kind not in (FLOTATION, ILLUMINATION):
        raise DomainError(f"unknown chord kind {kind!r}")
    s = s0 + np.arange(n_samples) * (curve.period / n_samples)
    t = (_flotation_t if kind == FLOTATION else _silhouette_t)(curve, s, delta)
    lost = np.nonzero(np.diff(t) <= 0.0)[0]
    if len(lost):
        i = lost[0] + 1
        raise SolverError(f"chord continuation lost monotonicity at s={s[i]} (t={t[i]} after {t[i - 1]})")
    return _chords(curve, kind, delta, s, t)
