"""Equal-area chord maps: cut-off caps (flotation) and silhouette cones (illumination).

A chord is the pair (s, t) of boundary parameters with t kept unwrapped in
(s, s + PERIOD). The implicit function t(s) is defined by holding the cap or
cone area fixed and is solved by safeguarded Newton iteration with analytic
area derivatives. Every function here takes arrays of lanes (s, t): a sweep
solves all of its chords in one lane-wise iteration, each lane inside its own
global bracket, and a single chord is the one-lane case. A cone chord takes
one such solve too, on the cone area times det(gamma'(s), gamma'(t)), which
stays smooth where the end tangents turn parallel, so no antipode is solved
for first. By Green's theorem both areas are closed forms in the endpoints
and the curve's moment antiderivative (``ClosedConvexCurve.moments``).
Chains of flotation chords, each starting where the last ended, are the
carousels' (``chains``).
"""

import math

import numpy as np

from .curve import PERIOD, area, curvature, det2, dot2, norm2
from .errors import DomainError, SolverError
from .numerics import bracketed_newton, convex_newton

FLOTATION = "flotation"
ILLUMINATION = "illumination"

# tangents at the endpoints are treated as parallel below this relative determinant
PARALLEL_TOL = 1e-10
# a cap's chord (s, t) is solved for t in (s + m, s + PERIOD - m), with m = CAP_MARGIN PERIOD
CAP_MARGIN = 1e-12
# a run's cut-off areas, and the carousels' closing ones, lie in [MIN_CUT_FRACTION, 1 - MIN_CUT_FRACTION] times
# the body area: nearer 0 or the whole body the identities' rounding floor grows like f^(-2/3), and on the 2:1
# ellipse it passes the endpoint_balance and omega thresholds by f = 1e-12
MIN_CUT_FRACTION = 1e-9


# the fields of Chords with one entry per lane
_LANES = (
    "s", "t", "x", "y", "c", "z", "apex", "alpha", "beta", "norm_c", "affine_norm_c", "p", "q", "v", "ws", "ks", "kt",
    "dm",
)


class Chords:
    """The chords of one sweep as arrays, one lane per chord.

    ``s`` and ``t`` are the end parameters, ``x`` and ``y`` the end points
    and ``c = y - x``. ``z`` is the intersection of the end tangents, NaN in
    the lanes where they are parallel (``apex`` False there). ``alpha`` and
    ``beta`` are the interior angles between the chord and the tangents at
    x and y; ``norm_c`` and ``affine_norm_c`` are the Euclidean and affine
    chord lengths. ``p``, ``q`` and ``v`` are the end determinants
    det(c, gamma'(s)), det(c, gamma'(t)) and det(gamma'(s), gamma'(t)), ``ws``
    is det(gamma'(s), gamma''(s)), the numerator of ``ks``, and ``ks`` and
    ``kt`` are the curvatures at x and y. ``dm`` is the increment over the
    arc [s, t] of the curve's moment antiderivative (``curve.moments``):
    the integral of [w, (gamma - o) w], w = det(gamma - o, gamma'), about its
    origin o, shape (lanes, 3). ``jets`` holds the curve derivatives of
    orders 0 to 2 at both chord ends, ``jets[k]`` of shape (2, lanes, 2).
    All of them come from the evaluations of the solve that built the chords.
    ``residual_calls`` is the number of residual evaluations that solve
    made, each over all of its lanes. Indexing or slicing gives the chords
    of those lanes, jets included, and ``chords[i]`` is the one-lane case.
    """

    def __init__(
        self, curve, kind, delta, s, t, x, y, c, z, apex, alpha, beta, norm_c, affine_norm_c, p, q, v, ws, ks, kt,
        dm, jets, residual_calls,
    ):
        self.curve, self.kind, self.delta, self.s, self.t = curve, kind, delta, s, t
        self.x, self.y, self.c, self.z, self.apex = x, y, c, z, apex
        self.alpha, self.beta, self.norm_c, self.affine_norm_c = alpha, beta, norm_c, affine_norm_c
        self.p, self.q, self.v, self.ws, self.ks, self.kt, self.dm = p, q, v, ws, ks, kt, dm
        self.jets, self.residual_calls = jets, residual_calls

    def replace(self, **changes):
        """A copy with the given fields changed; an unknown field is a TypeError."""
        return Chords(**{**vars(self), **changes})

    def __len__(self):
        return len(self.s)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            index = [index]
        jets = tuple(jet[:, index] for jet in self.jets)
        return self.replace(jets=jets, **{name: getattr(self, name)[index] for name in _LANES})


def _area_fdf(curve, kind, side, target):
    """The residual of the cap (flotation) or cone (illumination) area target of the lanes (s, t) as a function of t.

    The returned callable maps t to a residual and its t-derivative: cap -
    target and half det(c, gamma'(t)) for a cap, the scaled cone residual of
    ``_solve_t`` for a cone. ``side`` is the s side (s, orders 0 to 2 at s,
    moment antiderivative row at s) of ``_grid`` or of a solve, so a call
    makes one curve evaluation at t, of orders 0 to 2, and one moment
    evaluation; the callable keeps t with both evaluations as its ``last``,
    for ``_solve_t``, and counts its ``calls``.
    """
    origin, moments = curve.moments
    _, at_s, m_s = side
    x, d1, m_s = at_s[0] - origin, at_s[1], m_s[..., 0]
    total = area(curve)

    def fdf(t):
        fdf.calls += 1
        fdf.last = t, curve.derivatives(t, (0, 1, 2)), moments(t, -1)
        (y, d2, dd2), m_t = fdf.last[1:]
        y = y - origin
        c = y - x
        q = det2(c, d2)
        cap = 0.5 * (m_t[..., 0] - m_s - det2(x, y))
        if kind == FLOTATION:
            return cap - target, 0.5 * q
        p, v, dv = det2(c, d1), det2(d1, d2), det2(d1, dd2)
        # the cone is the tangent triangle -pq / 2v less the cap: f = v (cone - target) and its
        # t-derivative, with p' = -v and q' = det(c, gamma''(t))
        rest = cap + target
        f, df = -0.5 * p * q - v * rest, -0.5 * p * det2(c, dd2) - dv * rest
        with np.errstate(divide="ignore", invalid="ignore"):
            # f / v is cone - target near the root, where the triangle is below
            # area + target. Once it exceeds twice that, on to the antipode and past
            # it, where v <= 0, f is divided by |pq| / 4 (area + target) instead, a
            # positive scale that keeps f's sign and Newton step (-p and q may read
            # negative to rounding next to s)
            scale = np.maximum(v, np.abs(p * q) / (4.0 * (total + target)))
            # at a flat point s the tangents stay parallel to rounding for a while
            # after s, less than a quarter turn on, where the cone tends to 0
            parallel = np.abs(v) <= PARALLEL_TOL * norm2(d1) * norm2(d2)
            flat = parallel & (dot2(d1, d2) > 0.0)
            return np.where(flat, -target, f / scale), df / scale

    fdf.calls = 0
    return fdf


def _apex(x, y, d1, d2):
    """Tangent-line intersection of every lane, the mask of lanes whose tangents are parallel, and v = det(d1, d2)."""
    v = det2(d1, d2)
    parallel = np.abs(v) <= PARALLEL_TOL * norm2(d1) * norm2(d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x + d1 * (det2(y - x, d2) / v)[..., None], parallel, v


def _chords(curve, kind, delta, s_side, t_side, calls):
    """Chords of the lanes (s, t) from their s and t sides, as ``_solve_t`` takes and gives them, and its ``calls``."""
    (s, at_s, m_s), (t, at_t, m_t) = s_side, t_side
    jets = tuple(np.stack(pair) for pair in zip(at_s, at_t))
    (x, y), (d1, d2) = jets[:2]
    c = y - x
    p = det2(c, d1)
    q = det2(c, d2)
    w = det2(jets[1], jets[2])  # det(gamma', gamma''), the curvatures' numerators at both ends
    ks, kt = curvature(jets[1], w)
    alpha = np.arctan2(-p, dot2(c, d1))
    beta = np.arctan2(q, dot2(c, d2))
    z, parallel, v = _apex(x, y, d1, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # signed tangent-triangle area; affine chord length is 2 T^(1/3)
        affine_norm = np.where(parallel, np.inf, 2.0 * np.cbrt(-0.5 * p * q / v))
    z = np.where(parallel[:, None], np.nan, z)
    return Chords(
        curve, kind, delta, s, t, x, y, c, z, ~parallel, alpha, beta, norm2(c), affine_norm, p, q, v, w[0], ks, kt,
        m_t - m_s, jets, calls,
    )


def _cap_angle(f):
    """The eccentric chord angle of the cap that is the fraction f of an ellipse: theta - sin theta = 2 pi f."""
    if f > 0.5:
        return 2.0 * math.pi - _cap_angle(1.0 - f)
    # theta - sin theta >= theta^3 / 12 on (0, pi], so the start is an upper bound
    start = min(math.pi, (24.0 * math.pi * f) ** (1.0 / 3.0))
    return convex_newton(lambda x: x - math.sin(x), lambda x: 2.0 * math.sin(0.5 * x) ** 2, 2.0 * math.pi * f, start)


def _cone_angle(g):
    """The eccentric chord angle of the cone that is g times an ellipse's area: tan(phi/2) - phi/2 = pi g."""
    y = math.pi * g
    # tan u - u >= u^3 / 3 and tan u = y + u < y + pi/2 bound phi = 2u from above
    start = min((24.0 * y) ** (1.0 / 3.0), 2.0 * math.atan(y + 0.5 * math.pi))
    return convex_newton(lambda x: math.tan(0.5 * x) - 0.5 * x, lambda x: 0.5 * math.tan(0.5 * x) ** 2, y, start)


def _solve_t(curve, kind, side, delta):
    """The t side of the chords of cap or cone area delta from every lane of the s side, and the residual calls.

    The cap area increases strictly from 0 to the body area on (s, s + PERIOD),
    so that whole interval brackets every lane and the residual rises
    through its root. A cone takes Newton steps on F = v (cone - delta) =
    -pq / 2 - v (cap + delta), with v = det(gamma'(s), gamma'(t)),
    p = det(c, gamma'(s)) and q = det(c, gamma'(t)), as in ``Chords``. F < 0
    before the root and F > 0 after it, up to s + PERIOD: the cone exceeds
    delta up to the antipode, and past it v < 0 while p < 0 < q. So
    (s, s + 0.98 PERIOD) brackets every lane. F is divided by a positive
    scale that is v near the root, where the residual reads cone - delta. A
    lane that stops on f_tol is within 1e-12 area of delta. Both kinds start
    at the root on every ellipse, the cap or cone angle's share of the
    period. A side is (parameters, orders 0 to 2 there, moment row there).
    The t side's evaluations are the last residual call's, evaluated again
    only in the lanes whose t moved after it.
    """
    total = area(curve)
    s = side[0]
    if kind == FLOTATION:
        if not 0.0 < delta < total:
            raise DomainError(f"delta must lie in (0, area) = (0, {total})")
        tiny = CAP_MARGIN * PERIOD
        lo, hi, angle = s + tiny, s + PERIOD - tiny, _cap_angle(delta / total)
    else:
        if delta <= 0.0:
            raise DomainError("delta_hat must be positive")
        lo, hi, angle = s + 1e-9 * PERIOD, s + 0.98 * PERIOD, _cone_angle(delta / total)
    fdf = _area_fdf(curve, kind, side, delta)
    t = bracketed_newton(fdf, lo, hi, s + PERIOD * (angle / (2.0 * math.pi)), f_tol=1e-12 * total)
    u, at_t, m_t = fdf.last
    moved = t != u
    if moved.any():
        fresh = (*curve.derivatives(t[moved], (0, 1, 2)), curve.moments[1](t[moved], -1))
        for d, new in zip((*at_t, m_t), fresh):
            d[moved] = new
    return (t, at_t, m_t), fdf.calls


def _grid(curve, n, s0):
    """The s side of the uniform grid of n chords from s0 (s, orders 0 to 2 and moment row at s), built once per curve.

    Every sweep on the grid shares it: the arrays are kept in the curve's
    ``sweep_grids`` and are read-only.
    """
    key = n, s0
    if key not in curve.sweep_grids:
        s = s0 + np.arange(n) * (PERIOD / n)
        at_s, m_s = tuple(curve.derivatives(s, (0, 1, 2))), curve.moments[1](s, -1)
        for array in (s, *at_s, m_s):
            array.flags.writeable = False
        curve.sweep_grids[key] = s, at_s, m_s
    return curve.sweep_grids[key]


def _solve(curve, kind, delta, side):
    """The chords of area delta from every lane of an s side, in one lane-wise solve.

    The s side (s, orders 0 to 2 and the moment row at s) of ``_grid``
    serves the t solve and the chords, and the t solve's t side serves the chords.
    """
    t_side, calls = _solve_t(curve, kind, side, delta)
    s, t = side[0], t_side[0]
    lost = np.nonzero(np.diff(t) <= 0.0)[0]
    if len(lost):
        i = lost[0] + 1
        raise SolverError(f"chord continuation lost monotonicity at s={s[i]} (t={t[i]} after {t[i - 1]})")
    chords = _chords(curve, kind, delta, side, t_side, calls)
    if kind == ILLUMINATION and not chords.apex.all():
        i = int(np.argmin(chords.apex))
        raise SolverError(f"delta_hat={delta} not reachable at s={s[i]} before the end tangents turn parallel")
    return chords


def sweep(curve, kind, delta, n_samples, s0=0.0):
    """Solve the chord map on a uniform s grid, all chords in one lane-wise solve.

    The unwrapped t values must be strictly increasing in s, or a SolverError
    diagnostic is raised.
    """
    if n_samples < 16:
        raise DomainError("n_samples must be at least 16")
    if kind not in (FLOTATION, ILLUMINATION):
        raise DomainError(f"unknown chord kind {kind!r}")
    return _solve(curve, kind, delta, _grid(curve, n_samples, s0))


def chains(curve, q, delta, n, s0):
    """Vertices (q + 1, n) of the flotation chord chains from n starts, (gamma, gamma') there, and d(t_q)/d(delta).

    Each chord starts where the last ended. The starts s0 + k PERIOD / n are
    a sweep grid (``_grid``), evaluated once per curve whatever the delta.
    Each vertex after them is evaluated once, in the last Newton round of the
    chord solve that ends there, and its t side is the s side of the solve
    that starts there.
    """
    sides = [_grid(curve, n, s0)]
    dt_ddelta = np.zeros(n)  # the starts do not move with delta
    for _ in range(q):
        side, _ = _solve_t(curve, FLOTATION, sides[-1], delta)
        # differentiate cap_area(t_i, t_{i+1}) = delta along the chain: with
        # c = gamma(t) - gamma(s), d cap = (det(c, gamma'(t)) dt - det(c, gamma'(s)) ds) / 2
        (x, d1), (y, d2) = sides[-1][1][:2], side[1][:2]
        c = y - x
        dt_ddelta = (2.0 - det2(c, d1) * dt_ddelta) / det2(c, d2)
        sides.append(side)
    vertices = tuple(np.array([side[1][k] for side in sides]) for k in (0, 1))
    return np.array([side[0] for side in sides]), vertices, dt_ddelta
