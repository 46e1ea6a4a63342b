import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flotilla.curve import Ellipse, det2
from flotilla.chord import FLOTATION, sweep
from flotilla.errors import AccuracyError, SolverError
from flotilla.numerics import (
    MAX_NODES_PER_CALL,
    TrigInterpolant,
    bracketed_newton,
    panel_quadrature,
    periodic_trapezoid,
    signed_cbrt,
)


def test_panel_quadrature_polynomial():
    val = panel_quadrature(lambda x: x**3 - 2 * x, [0.0, 2.0])[0]
    assert abs(val - 0.0) < 1e-14


def test_panel_quadrature_empty_interval():
    assert panel_quadrature(np.sin, [1.0, 1.0])[0] == 0.0


def test_panel_quadrature_cube_root_cusp():
    exact = 0.75 * ((2.0 / 3.0) ** (4.0 / 3.0) + (1.0 / 3.0) ** (4.0 / 3.0))
    val = panel_quadrature(lambda x: np.abs(x - 1.0 / 3.0) ** (1.0 / 3.0), [0.0, 1.0])[0]
    assert abs(val - exact) < 1e-12


def test_panel_quadrature_per_interval_values():
    # one global budget over all intervals; one of them ends on the cusp
    def primitive(x):
        return 0.75 * np.sign(x - 1.0 / 3.0) * np.abs(x - 1.0 / 3.0) ** (4.0 / 3.0)

    edges = np.array([0.0, 0.1, 1.0 / 3.0, 0.4, 0.9, 1.0])
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.abs(x - 1.0 / 3.0) ** (1.0 / 3.0)

    values = panel_quadrature(f, edges)
    assert values.shape == (5,)
    assert np.max(np.abs(values - np.diff(primitive(edges)))) < 1e-12
    assert max(sizes) <= MAX_NODES_PER_CALL


def test_panel_quadrature_node_blocks():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.cos(x)

    values = panel_quadrature(f, np.linspace(0.0, 3.0, 513))
    assert abs(values.sum() - math.sin(3.0)) < 1e-13
    # 512 panels, each whole and in halves: 12,288 abscissae in blocks
    assert sum(sizes) == 512 * 3 * 8 and max(sizes) <= MAX_NODES_PER_CALL


def test_panel_quadrature_divergent_integrand_raises():
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(AccuracyError):
            panel_quadrature(lambda x: 1.0 / x**2, [-1.0, 1.0])


def test_panel_quadrature_smooth_cap_takes_one_call():
    # smooth integrands converge in the first round: panels and halves from one call
    curve = Ellipse(2.0, 1.0)
    chords = sweep(curve, FLOTATION, 1.0, 64)
    calls = 0
    for s, t, x in zip(chords.s, chords.t, chords.x):

        def integrand(u, x=x):
            nonlocal calls
            calls += 1
            return det2(curve.derivative(u, 0) - x, curve.derivative(u, 1))

        panel_quadrature(integrand, [s, t], rel_tol=1e-13)
    assert calls <= len(chords)


def test_periodic_trapezoid_is_spectral():
    n = 64
    s = np.arange(n) * (2 * np.pi / n)
    vals = np.exp(np.sin(s))
    from scipy.integrate import quad

    exact, _ = quad(lambda x: math.exp(math.sin(x)), 0, 2 * math.pi, epsabs=1e-14)
    assert abs(periodic_trapezoid(vals, 2 * np.pi) - exact) < 1e-12


def test_spectral_derivative_matches_analytic():
    n = 128
    s = np.arange(n) * (2 * np.pi / n)
    vals = np.sin(3 * s) + 0.5 * np.cos(5 * s)
    d = TrigInterpolant(vals, 2 * np.pi)(s, 1)
    expected = 3 * np.cos(3 * s) - 2.5 * np.sin(5 * s)
    assert np.max(np.abs(d - expected)) < 1e-11


def test_trig_interpolant_reproduces_samples_and_derivatives():
    n = 64
    s = np.arange(n) * (2 * np.pi / n)
    samples = np.cos(2 * s)
    interp = TrigInterpolant(samples, 2 * np.pi)
    probe = np.array([0.1, 1.7, 4.4])
    assert np.max(np.abs(interp(probe) - np.cos(2 * probe))) < 1e-12
    assert np.max(np.abs(interp(probe, order=1) + 2 * np.sin(2 * probe))) < 1e-11
    assert np.max(np.abs(interp(probe, order=3) - 8 * np.sin(2 * probe))) < 1e-10


def test_trig_interpolant_antiderivative_matches_analytic():
    n = 32
    s = np.arange(n) * (2 * np.pi / n)
    samples = np.stack([1.0 + np.cos(2 * s) + 0.5 * np.sin(3 * s), np.sin(s)], axis=-1)
    interp = TrigInterpolant(samples, 2 * np.pi)
    probe = np.array([0.0, 0.7, 2.9, 6.0, 9.5])
    exact = np.stack(
        [probe + 0.5 * np.sin(2 * probe) - np.cos(3 * probe) / 6.0, -np.cos(probe)], axis=-1
    )
    got = interp(probe, order=-1)
    assert np.max(np.abs((got - got[0]) - (exact - exact[0]))) < 1e-13


def test_trig_interpolant_drops_rounding_level_modes():
    n = 256
    s = np.arange(n) * (2 * np.pi / n)
    interp = TrigInterpolant(np.stack([np.cos(2 * s), 3.0 + np.sin(s)], axis=-1), 2 * np.pi)
    assert len(interp.modes) == 3
    assert np.max(np.abs(interp(s) - np.stack([np.cos(2 * s), 3.0 + np.sin(s)], axis=-1))) < 1e-14


def test_bracketed_newton_finds_root():
    root = bracketed_newton(lambda x: x**2 - 2.0, lambda x: 2 * x, 0.0, 2.0, 1.9, f_tol=1e-14)
    assert abs(root - math.sqrt(2)) < 1e-12


def test_bracketed_newton_accepts_converged_step_at_bracket_end():
    # sin(pi) rounds to +1.2e-16, so the start becomes the bracket's low end; its
    # zero-length Newton step must end the iteration instead of falling back to bisection
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.sin(x)

    root = bracketed_newton(f, math.cos, 0.1, 6.1, math.pi, f_tol=0.0)
    assert root == pytest.approx(math.pi, abs=1e-15)
    assert calls <= 4


def test_bracketed_newton_requires_sign_change():
    with pytest.raises(SolverError):
        bracketed_newton(lambda x: x**2 + 1, lambda x: 2 * x, -1.0, 1.0, 0.5, f_tol=1e-12)


def test_bracketed_newton_solves_independent_lanes():
    k = np.array([1.0, 2.0, 3.0, 50.0])
    roots = bracketed_newton(lambda x: x**2 - k, lambda x: 2 * x, np.zeros(4), k + 1.0, 0.5 * (k + 1.0), f_tol=0.0)
    assert roots.shape == (4,)
    assert np.max(np.abs(roots - np.sqrt(k))) < 1e-14


def test_bracketed_newton_lanes_bisect_on_their_own():
    # lane 1 has a useless derivative and must bisect; lane 0 converges by Newton and freezes
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.array([x[0] - 0.25, math.atan(x[1] - 0.7)])

    def df(x):
        return np.array([1.0, 0.0])

    roots = bracketed_newton(f, df, np.zeros(2), np.ones(2), np.array([0.9, 0.9]), f_tol=1e-14)
    assert roots[0] == 0.25
    assert abs(roots[1] - 0.7) < 1e-13
    # after converging, lane 0 stays at its root while lane 1 keeps bisecting
    assert all(x[0] == 0.25 for x in seen[3:])
    assert len(seen) > 10


def test_bracketed_newton_reports_the_lane_without_sign_change():
    with pytest.raises(SolverError, match=r"\[2\.0, 3\.0\]"):
        bracketed_newton(lambda x: x - 1.5, lambda x: np.ones_like(x), np.array([0.0, 2.0]), np.array([3.0, 3.0]),
                         np.array([1.0, 2.5]), f_tol=1e-14)


def test_bracketed_newton_scalar_lane_passes_floats():
    # a 0-d start is one lane: f sees plain floats (hashable), the result is a float
    seen = []

    def f(x):
        seen.append(type(x))
        return x**3 - 8.0

    root = bracketed_newton(f, lambda x: 3 * x**2, 0.0, 5.0, np.float64(1.0), f_tol=1e-13)
    assert isinstance(root, float) and abs(root - 2.0) < 1e-14
    assert set(seen) == {float}


@settings(deadline=None, max_examples=100)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_signed_cbrt_cubes_back(x):
    assert math.isclose(signed_cbrt(x) ** 3, x, rel_tol=1e-12, abs_tol=1e-12)


@settings(deadline=None, max_examples=50)
@given(st.floats(1e-6, 1e6))
def test_signed_cbrt_is_odd(x):
    assert signed_cbrt(-x) == -signed_cbrt(x)
