"""Independent oracles for the test suite.

Everything here is computed from first principles (closed-form circle
geometry, dense Riemann sums, a fixed Gauss-Legendre rule, plain finite
differences of position samples) and deliberately avoids the package's own
quadrature and derivative paths.
The alternate closed forms at the end are the exception: they recompute a
solved chord's curvatures, closure and cut lengths by a second route through
the package.
"""

import math

import numpy as np
from scipy.optimize import brentq

from flotilla.chord import FLOTATION, solve_flotation_chord, solve_silhouette_chord, sweep
from flotilla.curve import affine_arclength, det2

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
    final = solve(curve, s0 + curve.period, delta)
    return final.t[0] - chords.t[0] - curve.period


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
