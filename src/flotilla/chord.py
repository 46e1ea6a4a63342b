"""Equal-area chord maps: cut-off caps (flotation) and silhouette cones (illumination).

A chord is the pair (s, t) of boundary parameters with t kept unwrapped in
(s, s + period). The implicit function t(s) is defined by holding the cap or
cone area fixed and is solved by safeguarded Newton iteration with analytic
area derivatives; sweeps continue the solution branch around the curve with
warm starts. By Green's theorem both areas are closed forms in the endpoints
and the curve's moment antiderivative (``ClosedConvexCurve.moments``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import area, det2, norm2
from .errors import DomainError, ParallelElementsError, SolverError
from .numerics import bracketed_newton, expand_bracket, signed_cbrt

FLOTATION = "flotation"
ILLUMINATION = "illumination"

# tangents at the endpoints are treated as parallel below this relative determinant
PARALLEL_TOL = 1e-10


@dataclass
class ChordMap:
    """A solved chord with its endpoint frame data.

    ``z`` is the intersection of the endpoint tangent lines (None when they
    are parallel); ``alpha`` and ``beta`` are the interior angles between the
    chord and the tangents at x and y.
    """

    kind: str
    delta: float
    s: float
    t: float
    x: np.ndarray
    y: np.ndarray
    c: np.ndarray
    z: np.ndarray | None
    alpha: float
    beta: float
    dt_ds: float
    norm_c: float
    affine_norm_c: float
    curve: object = field(repr=False, default=None)


def arc_moments(curve, s, t):
    """Moment origin o, endpoints gamma(s) - o and gamma(t) - o, and the moment increment over [s, t].

    The increment is the integral over [s, t] of [w, (gamma - o) w] with
    w = det(gamma - o, gamma'), from the curve's moment antiderivative.
    """
    origin, moments = curve.moments
    params = np.array([s, t], dtype=float)
    x, y = curve.derivative(params, 0) - origin
    m_s, m_t = moments(params, -1)
    return origin, x, y, m_t - m_s


def cap_area(curve, s, t):
    """Area swept between the chord [gamma(s), gamma(t)] and the arc, s < t."""
    if t < s:
        raise DomainError("cap_area requires s <= t")
    _, x, y, dm = arc_moments(curve, s, t)
    return 0.5 * float(dm[0] - det2(x, y))


def tangent_intersection(curve, s, t):
    """Intersection of the tangent lines at gamma(s) and gamma(t)."""
    x = curve.derivative(s, 0)
    y = curve.derivative(t, 0)
    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(t, 1)
    denom = det2(d1, d2)
    if abs(denom) <= PARALLEL_TOL * norm2(d1) * norm2(d2):
        raise ParallelElementsError("tangent lines are parallel; no apex")
    return x + d1 * (det2(y - x, d2) / denom)


def cone_area(curve, s, t):
    """Area of the silhouette region between the two tangent segments and the arc."""
    z = tangent_intersection(curve, s, t)
    origin, x, y, dm = arc_moments(curve, s, t)
    return -0.5 * float(dm[0] - det2(z - origin, y - x))


def _cap_area_dt(curve, s, t):
    x = curve.derivative(s, 0)
    return 0.5 * det2(curve.derivative(t, 0) - x, curve.derivative(t, 1))


def _cone_area_dt(curve, s, t):
    x = curve.derivative(s, 0)
    y = curve.derivative(t, 0)
    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(t, 1)
    dd2 = curve.derivative(t, 2)
    c = y - x
    v = det2(d1, d2)
    q = det2(c, d2)
    dmu_dt = (det2(c, dd2) * v - q * det2(d1, dd2)) / v**2
    return -0.5 * det2(c, d1) * dmu_dt


def _flotation_dt_ds(curve, s, t):
    c = curve.derivative(t, 0) - curve.derivative(s, 0)
    p = det2(c, curve.derivative(s, 1))
    q = det2(c, curve.derivative(t, 1))
    return -p / q


def _illumination_dt_ds(curve, s, t):
    c = curve.derivative(t, 0) - curve.derivative(s, 0)
    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(t, 1)
    p = det2(c, d1)
    q = det2(c, d2)
    w_s = det2(d1, curve.derivative(s, 2))
    w_t = det2(d2, curve.derivative(t, 2))
    return q**2 * w_s / (p**2 * w_t)


def _make_chord(curve, kind, delta, s, t, dt_ds):
    x = curve.derivative(s, 0)
    y = curve.derivative(t, 0)
    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(t, 1)
    c = y - x
    p = det2(c, d1)
    q = det2(c, d2)
    v = det2(d1, d2)
    alpha = math.atan2(-p, float(np.dot(c, d1)))
    beta = math.atan2(q, float(np.dot(c, d2)))
    if abs(v) > PARALLEL_TOL * norm2(d1) * norm2(d2):
        z = x + d1 * (q / v)
        # signed tangent-triangle area; affine chord length is 2 T^(1/3)
        t_area = -0.5 * p * q / v
        affine_norm = 2.0 * signed_cbrt(t_area)
    else:
        z = None
        affine_norm = math.inf
    return ChordMap(
        kind=kind,
        delta=delta,
        s=float(s),
        t=float(t),
        x=x,
        y=y,
        c=c,
        z=z,
        alpha=alpha,
        beta=beta,
        dt_ds=float(dt_ds),
        norm_c=float(norm2(c)),
        affine_norm_c=float(affine_norm),
        curve=curve,
    )


def solve_flotation_chord(curve, s, delta, hint=None, bracket_width=None):
    """Find t with cap_area(s, t) = delta and assemble the chord frame.

    The cap area is strictly increasing in t, so the root is unique; the
    solver is Newton with a maintained sign-change bracket.
    """
    total = area(curve)
    if not 0.0 < delta < total:
        raise DomainError(f"delta must lie in (0, area) = (0, {total})")
    f_tol = 1e-12 * total

    def f(t):
        return cap_area(curve, s, t) - delta

    def df(t):
        return _cap_area_dt(curve, s, t)

    period = curve.period
    tiny = 1e-12 * period
    if hint is not None:
        width = bracket_width if bracket_width is not None else period / 64.0
        lo, hi = expand_bracket(f, hint, width, s + tiny, s + period - tiny)
        t0 = min(max(hint, lo), hi)
    else:
        lo, hi = s + tiny, s + period - tiny
        t0 = s + period * (delta / total)
    t = bracketed_newton(f, df, lo, hi, t0, f_tol=f_tol)
    return _make_chord(curve, FLOTATION, delta, s, t, _flotation_dt_ds(curve, s, t))


def antipodal_tangent_param(curve, s):
    """First t > s at which the tangent is parallel to the tangent at s."""
    d1 = curve.derivative(s, 1)

    def v(t):
        return det2(d1, curve.derivative(t, 1))

    def dv(t):
        return det2(d1, curve.derivative(t, 2))

    # the tangent turns monotonically: v > 0 until it has turned by pi, then v < 0
    period = curve.period
    return bracketed_newton(v, dv, s + 0.02 * period, s + 0.98 * period, s + 0.5 * period, f_tol=0.0)


def solve_silhouette_chord(curve, s, delta_hat, hint=None, bracket_width=None):
    """Find t with cone_area(s, t) = delta_hat.

    The admissible range for t is (s, t_par) where the endpoint tangents
    stop intersecting; the cone area grows without bound as t -> t_par.
    """
    if delta_hat <= 0.0:
        raise DomainError("delta_hat must be positive")
    f_tol = 1e-12 * area(curve)
    t_par = antipodal_tangent_param(curve, s)

    def f(t):
        # near t_par the apex escapes to infinity and so does the cone area
        try:
            return cone_area(curve, s, t) - delta_hat
        except ParallelElementsError:
            return math.inf

    def df(t):
        try:
            return _cone_area_dt(curve, s, t)
        except ParallelElementsError:
            return math.nan

    period = curve.period
    tiny = 1e-9 * period
    lo_limit, hi_limit = s + tiny, t_par - tiny
    if f(hi_limit) < 0.0:
        raise SolverError(
            f"delta_hat={delta_hat} not reachable before tangents turn parallel "
            f"(max representable cone area {f(hi_limit) + delta_hat:.6g})"
        )
    if hint is not None and lo_limit < hint < hi_limit:
        width = bracket_width if bracket_width is not None else period / 64.0
        lo, hi = expand_bracket(f, hint, width, lo_limit, hi_limit)
        t0 = min(max(hint, lo), hi)
    else:
        lo, hi = lo_limit, hi_limit
        t0 = 0.5 * (lo + hi)
    t = bracketed_newton(f, df, lo, hi, t0, f_tol=f_tol)
    return _make_chord(curve, ILLUMINATION, delta_hat, s, t, _illumination_dt_ds(curve, s, t))


def sweep(curve, kind, delta, n_samples, s0=0.0):
    """Solve the chord map on a uniform s grid, continuing t around the curve.

    Each solve warm-starts from the previous chord; the unwrapped t values
    must be strictly increasing or a SolverError diagnostic is raised.
    """
    if n_samples < 16:
        raise DomainError("n_samples must be at least 16")
    if kind not in (FLOTATION, ILLUMINATION):
        raise DomainError(f"unknown chord kind {kind!r}")
    solve = solve_flotation_chord if kind == FLOTATION else solve_silhouette_chord
    h = curve.period / n_samples
    chords = []
    hint = None
    for i in range(n_samples):
        s = s0 + i * h
        cm = solve(curve, s, delta, hint=hint, bracket_width=h)
        if chords and cm.t <= chords[-1].t:
            raise SolverError(
                f"chord continuation lost monotonicity at s={s} (t={cm.t} after {chords[-1].t})"
            )
        chords.append(cm)
        hint = cm.t + h
    return chords

