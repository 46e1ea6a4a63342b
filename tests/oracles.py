"""Independent oracles for the test suite.

Everything here is computed from first principles (closed-form circle
geometry, dense Riemann sums, a fixed Gauss-Legendre rule, scipy's adaptive
``quad``, plain finite differences of position samples) and deliberately
avoids the package's own quadrature and derivative paths.
The alternate closed forms are the exception: they recompute a solved
chord's curvatures, closure and cut lengths by a second route through the
package. So is the last section, the package's forms that no run calls: the
one-chord API, the affine curvature and normal at given parameters, the
Petty condition, the affine cut rate, and the closed-form affine normal of
the buoyancy curve with its proposition, an identity in the chord frame.
They are built from the package's kernels and live here, not in the
package, which every CLI call compiles. The affine arc length sits with
them, but by ``quad`` on the curve's jets, not by the package's table.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from flotilla.chord import FLOTATION, ILLUMINATION, _apex, _area_fdf, _chords, _solve, sweep
from flotilla.curve import PERIOD, det2, dot2, norm2
from flotilla.curve import affine_normal as affine_normal_of_jets
from flotilla.errors import DomainError
from flotilla.floatgeom import _require_kind
from flotilla.homothety import ConstancyReport, petty_ratios

TWO_PI = 2.0 * math.pi


# -- unit-circle chord geometry (half-angle theta, chord spans 2*theta) -----


def circle_segment_area(theta):
    return theta - math.sin(theta) * math.cos(theta)


def circle_cone_area(theta):
    return math.tan(theta) - theta


def circle_tangent_triangle_area(theta):
    return math.sin(theta) ** 3 / math.cos(theta)


def circle_theta_from_segment(delta):
    return brentq(lambda th: circle_segment_area(th) - delta, 1e-9, math.pi / 2 - 1e-12)


def circle_segment_centroid_distance(theta):
    return (2.0 / 3.0) * math.sin(theta) ** 3 / circle_segment_area(theta)


def circle_cone_centroid_distance(theta):
    t_area = circle_tangent_triangle_area(theta)
    tri_centroid = (2.0 * math.cos(theta) + 1.0 / math.cos(theta)) / 3.0
    seg_moment = (2.0 / 3.0) * math.sin(theta) ** 3
    return (t_area * tri_centroid - seg_moment) / (t_area - circle_segment_area(theta))


def circle_flotation_kappa(theta):
    return 1.0 / math.cos(theta)


def circle_buoyancy_kappa(theta):
    return 1.0 / circle_segment_centroid_distance(theta)


def circle_illumination_kappa(theta):
    return math.cos(theta)


def circle_illumination_centroid_kappa(theta):
    return 1.0 / circle_cone_centroid_distance(theta)


# -- brute-force integrals ---------------------------------------------------


def riemann_area(curve, n=2_000_000):
    """Dense midpoint Riemann sum of (1/2) det(gamma, gamma')."""
    s = (np.arange(n) + 0.5) * (TWO_PI / n)
    g = curve.derivative(s, 0)
    d1 = curve.derivative(s, 1)
    vals = g[:, 0] * d1[:, 1] - g[:, 1] * d1[:, 0]
    return 0.5 * vals.mean() * TWO_PI


def shoelace(points):
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def triangle_area(a, b, c):
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


# -- quadrature reference for cap and cone areas and centroids ---------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def gauss_legendre(f, a, b, panels=8):
    """Fixed composite Gauss-Legendre rule, 48 nodes per panel, of a vector integrand."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _GL_NODES
    values = np.asarray(f(nodes.ravel())).reshape(panels, len(_GL_NODES), -1)
    return np.einsum("pnk,n,p->k", values, _GL_WEIGHTS, half)


def _apex_moments(curve, apex, s, t):
    """Integral over [s, t] of [w, (gamma - apex) w] with w = det(gamma - apex, gamma')."""

    def integrand(u):
        g = curve.derivative(u, 0) - apex
        w = det2(g, curve.derivative(u, 1))
        return np.stack([w, g[..., 0] * w, g[..., 1] * w], axis=-1)

    return gauss_legendre(integrand, s, t)


def quadrature_cap(curve, s, t):
    """Area and centroid of the cap cut off by the chord [gamma(s), gamma(t)]."""
    x = curve.derivative(s, 0)
    vals = _apex_moments(curve, x, s, t)
    area = 0.5 * vals[0]
    return area, x + vals[1:] / (3.0 * area)


def quadrature_cone(curve, s, t, apex):
    """Area and centroid of the silhouette cone with the given apex over the arc [s, t]."""
    vals = _apex_moments(curve, apex, s, t)
    area = -0.5 * vals[0]
    return area, apex - vals[1:] / (3.0 * area)


# -- finite differences of uniform periodic position samples ----------------


def fd4_derivative(values, h, order=1):
    """Fourth-order central differences of periodic samples (positions only)."""
    values = np.asarray(values, dtype=float)
    if order == 1:
        return (
            -np.roll(values, -2, axis=0)
            + 8.0 * np.roll(values, -1, axis=0)
            - 8.0 * np.roll(values, 1, axis=0)
            + np.roll(values, 2, axis=0)
        ) / (12.0 * h)
    if order == 2:
        return (
            -np.roll(values, -2, axis=0)
            + 16.0 * np.roll(values, -1, axis=0)
            - 30.0 * values
            + 16.0 * np.roll(values, 1, axis=0)
            - np.roll(values, 2, axis=0)
        ) / (12.0 * h**2)
    raise ValueError("order must be 1 or 2")


def fd_curvature(points, h):
    d1 = fd4_derivative(points, h, 1)
    d2 = fd4_derivative(points, h, 2)
    num = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return num / np.sum(d1**2, axis=1) ** 1.5


def spectral_fd(values, order=1):
    """FFT differentiation of uniform periodic samples; an independent oracle
    because it consumes only the sampled values."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    k = np.fft.rfftfreq(n, d=1.0 / n)
    mult = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0
    shape = (-1,) + (1,) * (values.ndim - 1)
    return np.fft.irfft(np.fft.rfft(values, axis=0) * mult.reshape(shape), n=n, axis=0)


# -- random equi-affine frames ----------------------------------------------


def random_unimodular_frame(rng, max_shear=0.6, translate=True):
    """Rotation * diag(m, 1/m) * rotation with |det| = 1 and modest condition."""
    from flotilla.curve import AffineFrame

    phi1, phi2 = rng.uniform(0.0, TWO_PI, size=2)
    m = rng.uniform(1.0 - max_shear / 2.0, 1.0 + max_shear)

    def rot(phi):
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, -s], [s, c]])

    matrix = rot(phi1) @ np.diag([m, 1.0 / m]) @ rot(phi2)
    shift = rng.uniform(-1.0, 1.0, size=2) if translate else np.zeros(2)
    return AffineFrame(matrix, shift)


def convex_polygon_contains(vertices, points, tol=0.0):
    """All points inside the convex, positively oriented polygon?"""
    vertices = np.asarray(vertices, dtype=float)
    points = np.asarray(points, dtype=float)
    edges = np.roll(vertices, -1, axis=0) - vertices
    rel = points[None, :, :] - vertices[:, None, :]
    cross = edges[:, None, 0] * rel[:, :, 1] - edges[:, None, 1] * rel[:, :, 0]
    return bool(np.all(cross >= -tol))


# -- alternate closed forms of package quantities ----------------------------


def flotation_kappa_cot_form(chords):
    """Flotation-boundary curvature as 4 / (|c| (cot a + cot b)) of every chord; NaN when degenerate."""
    denom = 1.0 / np.tan(chords.alpha) + 1.0 / np.tan(chords.beta)
    with np.errstate(divide="ignore"):
        return np.where(denom == 0.0, math.nan, 4.0 / (chords.norm_c * denom))


def illumination_kappa_raw(chords):
    """Curvature of the illumination boundary of every chord straight from the determinants."""
    curve = chords.curve
    d1 = curve.derivative(chords.s, 1)
    d2 = curve.derivative(chords.t, 1)
    p = det2(chords.c, d1)
    q = det2(chords.c, d2)
    v = det2(d1, d2)
    w_s = det2(d1, curve.derivative(chords.s, 2))
    w_t = det2(d2, curve.derivative(chords.t, 2))
    num = -v * (q**3 * w_s - p**3 * w_t)
    return num / (chords.norm_c**3 * p * q * w_s * w_t)


def sweep_closure_defect(curve, kind, delta, n_samples, s0=0.0):
    """Signed defect t(s0 + period) - t(s0) - period after one continuation loop."""
    chords = sweep(curve, kind, delta, n_samples, s0=s0)
    solve = solve_flotation_chord if kind == FLOTATION else solve_silhouette_chord
    final = solve(curve, s0 + PERIOD, delta)
    return final.t[0] - chords.t[0] - PERIOD


def incremental_cut_lengths(curve, chords, rel_tol=1e-12):
    """Affine cut length of every chord of a sweep from 2n - 1 separate adaptive integrals.

    One full integral for the first chord, then the endpoint increments
    between consecutive chords, each within rel_tol of itself. The first
    integral's error carries into every value: at rel_tol = 1e-9 it is
    5.4e-9 relative on bump3 at a quarter of the area.
    """
    s, t = chords.s.tolist(), chords.t.tolist()
    base = affine_arclength(curve, s[0], t[0], rel_tol=rel_tol)
    abs_tol = 1e-12 * abs(base)
    values = [base]
    for i in range(1, len(s)):
        values.append(
            values[-1]
            - affine_arclength(curve, s[i - 1], s[i], rel_tol=rel_tol, abs_tol=abs_tol)
            + affine_arclength(curve, t[i - 1], t[i], rel_tol=rel_tol, abs_tol=abs_tol)
        )
    return np.array(values)


# -- Fourier radial curve, every harmonic evaluated --------------------------


def fourier_radial_derivative(r0, cos_coeffs, sin_coeffs, s, order):
    """Order-th derivative of r(s) (cos s, sin s), r = r0 + sum_k (a_k cos ks + b_k sin ks).

    The Leibniz loop of FourierRadial as it was when every harmonic, zero
    coefficients included, was evaluated; FourierRadial must agree with it
    bit for bit.
    """

    def radial(s, order):
        r = np.full_like(s, r0 if order == 0 else 0.0)
        for k, a in enumerate(cos_coeffs, start=1):
            r = r + a * float(k) ** order * np.cos(k * s + order * math.pi / 2.0)
        for k, b in enumerate(sin_coeffs, start=1):
            r = r + b * float(k) ** order * np.sin(k * s + order * math.pi / 2.0)
        return r

    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape + (2,))
    for j in range(order + 1):
        rj = radial(s, j)
        phase = s + (order - j) * (math.pi / 2.0)
        u = np.stack([np.cos(phase), np.sin(phase)], axis=-1)
        out += math.comb(order, j) * rj[..., None] * u
    return out


# -- trigonometric interpolant, one exp per table entry ------------------------


def trig_interpolant_exp_outer(interpolant, s, order):
    """TrigInterpolant's value at s as it was evaluated before the shared table.

    Every order took exp of the whole outer product s x (i k omega) and
    scaled it by the order's factor: (i k omega)^order, or for order -1 the
    antiderivative 1 / (i k omega) with the mean term mean * s.
    """
    s = np.asarray(s, dtype=float)
    wave = 1j * np.arange(interpolant.coeffs.shape[0])
    factor = np.concatenate([[0.0], 1.0 / wave[1:]]) if order == -1 else wave**order
    out = ((np.exp(np.multiply.outer(s, wave)) * factor) @ interpolant.coeffs).real
    return out + np.multiply.outer(s, interpolant.mean) if order == -1 else out


# -- SVG writer, one format call per value ------------------------------------


def export_svg_per_value(curves, path, chords=None, chord_stride=0, size=640):
    """flotilla.svg.export_svg as it was written before the block formatting.

    Every coordinate went through its own f"{x:.8g}" on a numpy scalar, and
    the lines were joined with "\n" at the end.
    """
    from flotilla.svg import _FALLBACK_COLORS, _PALETTE, MARGIN_FRACTION, _chord_ends, figure_bounds

    def fmt(x):
        return f"{x:.8g}"

    def flip(points):
        return np.asarray(points, dtype=float) * np.array([1.0, -1.0])

    x0, y0, x1, y1 = figure_bounds(curves, chords)
    span = max(x1 - x0, y1 - y0)
    margin = MARGIN_FRACTION * span
    vx, vy = x0 - margin, -y1 - margin
    vw, vh = (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin
    stroke = span / 300.0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{fmt(vx)} {fmt(vy)} {fmt(vw)} {fmt(vh)}" '
        'preserveAspectRatio="xMidYMid meet">',
    ]
    if chord_stride > 0:
        starts, ends = _chord_ends(chords)
        for a, b in zip(flip(starts[::chord_stride]), flip(ends[::chord_stride])):
            lines.append(
                f'<line x1="{fmt(a[0])}" y1="{fmt(a[1])}" x2="{fmt(b[0])}" y2="{fmt(b[1])}" '
                f'stroke="#bbbbbb" stroke-width="{fmt(0.5 * stroke)}"/>'
            )
    fallback = iter(_FALLBACK_COLORS * 8)
    legend = []
    for c in curves:
        color = _PALETTE.get(c["label"]) or next(fallback)
        pts = " ".join(f"{fmt(p[0])},{fmt(p[1])}" for p in flip(c["points"]))
        lines.append(f'<polygon points="{pts}" fill="none" stroke="{color}" stroke-width="{fmt(stroke)}"/>')
        legend.append((c["label"], color))
    font = 0.04 * span
    for i, (label, color) in enumerate(legend):
        lines.append(
            f'<text x="{fmt(vx + font)}" y="{fmt(vy + (1.5 + i) * font)}" '
            f'font-size="{fmt(font)}" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- forms of the package that no run calls ------------------------------------


def side_at(curve, s, orders):
    """The s side of chords from s, as ``chord._grid`` builds it, with the curve's derivatives of the given orders."""
    return s, tuple(curve.derivatives(s, orders)), curve.moments[1](s, -1)


def chords_at(curve, kind, delta, s, t, at_s):
    """The chords of given lanes (s, t), with orders 0 to 2 at s (``at_s``) and t evaluated afresh, and no solve."""
    moments = curve.moments[1]
    t_side = t, curve.derivatives(t, (0, 1, 2)), moments(t, -1)
    return _chords(curve, kind, delta, (s, at_s, moments(s, -1)), t_side, 0)


def solve_flotation_chord(curve, s, delta):
    """Find t with cap_area(s, t) = delta and assemble the chord frame, as one-lane Chords."""
    return _solve(curve, FLOTATION, delta, side_at(curve, np.array([float(s)]), (0, 1, 2)))


def solve_silhouette_chord(curve, s, delta_hat):
    """Find t with cone_area(s, t) = delta_hat, as one-lane Chords.

    The cone area grows without bound as t nears the antipode of s, where
    the end tangents turn parallel; a delta_hat whose chord has no apex to
    rounding (PARALLEL_TOL) is out of reach and raises SolverError.
    """
    return _solve(curve, ILLUMINATION, delta_hat, side_at(curve, np.array([float(s)]), (0, 1, 2)))


def cap_area(curve, s, t):
    """Area swept between the chord [gamma(s), gamma(t)] and the arc, s < t."""
    if np.any(np.asarray(t) < s):
        raise DomainError("cap_area requires s <= t")
    return _area_fdf(curve, FLOTATION, side_at(curve, s, (0, 1)), 0.0)(t)[0]


def _pair(s, t):
    """Chord end parameters stacked on a leading axis of length 2."""
    return np.stack(np.broadcast_arrays(np.asarray(s, dtype=float), t))


def tangent_intersection(curve, s, t):
    """Intersection of the tangent lines at gamma(s) and gamma(t)."""
    (x, y), (d1, d2) = curve.derivatives(_pair(s, t), (0, 1))
    z, parallel, _ = _apex(x, y, d1, d2)
    if np.any(parallel):
        raise DomainError("tangent lines are parallel; no apex")
    return z


def cone_area(curve, s, t):
    """Area of the silhouette region between the two tangent segments and the arc: the tangent triangle less the cap."""
    x, y = curve.derivative(_pair(s, t), 0)
    return 0.5 * det2(tangent_intersection(curve, s, t) - x, y - x) - cap_area(curve, s, t)


def affine_arclength(curve, s0, s1, rel_tol=1e-12, abs_tol=0.0):
    """Integral of det(g', g'')^(1/3) over [s0, s1], by scipy's adaptive ``quad``.

    The integrand takes det2 of the curve's jets at one abscissa at a time.
    Curves with isolated flat points give it cube-root cusps, which quad
    resolves by bisecting the subintervals next to them. Raises
    DomainError if the determinant is negative beyond rounding of
    its scale somewhere on the arc. It never reads ``affine_arc`` and runs
    none of the package's quadrature.
    """
    if not (s0 <= s1 <= s0 + PERIOD + 1e-9):
        raise DomainError("require s0 <= s1 <= s0 + period")
    scale = max(float(det2(*curve.derivatives(np.linspace(s0, s1, 17), (1, 2))).max()), 0.0)

    def integrand(u):
        d = float(det2(*curve.derivatives(u, (1, 2))))
        if d < -1e-12 * scale:
            raise DomainError("non-convex sub-arc: det(g', g'') <= 0")
        return max(d, 0.0) ** (1.0 / 3.0)

    return quad(integrand, s0, s1, epsabs=abs_tol, epsrel=rel_tol, limit=500)[0]


def affine_curvature(curve, s):
    """Affine curvature; constant (ab)^(-2/3) on an ellipse with semi-axes a, b.

    Uses the fourth parameter derivative internally (spectral for sampled
    curves), since the chain rule to affine arc length needs it.
    """
    d1, d2, d3, d4 = curve.derivatives(s, (1, 2, 3, 4))
    d = det2(d1, d2)
    if np.any(d <= 0.0):
        raise DomainError("affine curvature requires det(g', g'') > 0")
    return (4.0 * det2(d2, d3) + det2(d1, d4)) / (3.0 * d ** (5.0 / 3.0)) - (
        5.0 / 9.0
    ) * det2(d1, d3) ** 2 / d ** (8.0 / 3.0)


def affine_normal(curve, s):
    """Second derivative with respect to affine arc length."""
    return affine_normal_of_jets(*curve.derivatives(s, (1, 2, 3)))


def petty_condition_report(curve):
    """Constancy of det(g - c, g')^3 / det(g', g'') about the centroid c, the conic value (ab)^2 on an ellipse.

    It is infinite at flat points; ``petty_ratios`` is the form that stays finite.
    """
    return ConstancyReport.from_values(1.0 / petty_ratios(curve))


def affine_cut_rate(chords):
    """Closed-form s-derivative of the affine arc length cut off by the chord."""
    ks, kt = chords.ks, chords.kt
    speed = norm2(chords.jets[1][0])
    sa = np.sin(chords.alpha)
    sb = np.sin(chords.beta)
    return speed * sa * (np.cbrt(kt) / sb - np.cbrt(ks) / sa)


def buoyancy_affine_normal(chords):
    """Affine normal vector of the buoyancy curve at every lane's sample, in closed form.

    With p = det(c, g'(s)), q = det(c, g'(t)) and the flotation condition
    t' = -p/q, the buoyancy tangent is -p c / (6 delta) and
    det(beta', beta'') = -p^3 / (18 delta^2). Its s-derivative cancels every
    p' term of the affine normal, which leaves dbar^(1/3) (g'(s)/p + g'(t)/q)
    with dbar = 3 delta / 2.
    """
    _require_kind(chords, FLOTATION)
    d1, d2 = chords.jets[1]
    return (1.5 * chords.delta) ** (1.0 / 3.0) * (d1 / chords.p[:, None] + d2 / chords.q[:, None])


def buoyancy_affine_normal_check(chords):
    """Angle and relative magnitude error against (8 dbar^(1/3) / ||c||^3)(r1 - z).

    Here r1 is the chord midpoint. Both are NaN in the lanes whose endpoint
    tangents are parallel, where the apex z does not exist. A cap larger than half the body has a negative tangent
    triangle: the end tangents meet on the far side of the chord, so r1 - z
    turns by pi and the proposition holds with z - r1 and |c|_aff^3.
    With the closed-form normal both sides are functions of the chord frame
    alone, so the check is an identity there: it holds at rounding level for
    any (s, t, delta), a shifted t or a relabelled delta included.
    """
    normal = buoyancy_affine_normal(chords)
    affine_norm_c = chords.affine_norm_c
    w = np.sign(affine_norm_c)[:, None] * (0.5 * (chords.x + chords.y) - chords.z)
    angle = np.arctan2(np.abs(det2(normal, w)), dot2(normal, w))
    delta_bar = 1.5 * chords.delta
    expected = 8.0 * delta_bar ** (1.0 / 3.0) / np.abs(affine_norm_c) ** 3 * norm2(w)
    magnitude_err = np.abs(norm2(normal) - expected) / expected
    apex = chords.apex
    return np.where(apex, angle, math.nan), np.where(apex, magnitude_err, math.nan)
