import math

import numpy as np
import pytest

from flotilla.errors import SolverError
from flotilla import numerics
from flotilla.numerics import (
    MAX_NODES_PER_CALL,
    PERIOD,
    TABLE_FIRST_PANELS,
    TABLE_SPLIT,
    PeriodicAntiderivative,
    TrigInterpolant,
    bracketed_newton,
)

from oracles import trig_interpolant_exp_outer


def test_periodic_antiderivative_is_exact_on_polynomials():
    # the degree-7 interpolant of every half-panel holds a degree-7 polynomial,
    # whose error estimate is rounding: one round, and F to rounding everywhere
    def primitive(u):
        return u**8 / 8.0 - 2.0 * u**5 + u

    calls = 0

    def f(u):
        nonlocal calls
        calls += 1
        return u**7 - 10.0 * u**4 + 1.0

    table = PeriodicAntiderivative(f)
    u = np.linspace(0.0, PERIOD, 1001)
    assert (table.rounds, calls) == (1, 1)
    assert table.total == pytest.approx(primitive(PERIOD), rel=1e-14)
    assert np.max(np.abs(table(u) - primitive(u))) <= 1e-14 * np.max(np.abs(primitive(u)))


def test_periodic_antiderivative_smooth_integrand_takes_one_round():
    # the first round's 32 panels, each whole and in halves, are 768 nodes in one call
    sizes = []

    def f(u):
        sizes.append(u.size)
        return 1.0 + 0.5 * np.cos(3.0 * u)

    table = PeriodicAntiderivative(f)
    assert (table.rounds, sizes) == (1, [TABLE_FIRST_PANELS * 3 * 8])
    u = np.linspace(-1.0, 8.0, 1001)
    assert np.max(np.abs(table(u) - (u + np.sin(3.0 * u) / 6.0))) <= 1e-14 * table.total


def test_periodic_antiderivative_node_blocks():
    # 40 turns outrun the first round's 32 panels: each is cut in TABLE_SPLIT, and
    # the second round's 6,144 nodes go to f in blocks
    sizes = []

    def f(u):
        sizes.append(u.size)
        return 1.0 + np.cos(40.0 * u)

    table = PeriodicAntiderivative(f)
    u = np.linspace(0.0, 2.0 * math.pi, 1001)
    assert np.max(np.abs(table(u) - (u + np.sin(40.0 * u) / 40.0))) <= 1e-14 * table.total
    assert sizes == [TABLE_FIRST_PANELS * 3 * 8] + [MAX_NODES_PER_CALL] * 3
    assert sum(sizes[1:]) == TABLE_FIRST_PANELS * TABLE_SPLIT * 3 * 8


def test_periodic_antiderivative_across_a_cusp():
    # |u - 1|^(1/3) has a cube-root cusp inside a panel of the first round; the
    # table matches the closed form everywhere, inside panels too, and wraps
    def primitive(u):
        return 0.75 * (np.sign(u - 1.0) * np.abs(u - 1.0) ** (4.0 / 3.0) + 1.0)

    table = PeriodicAntiderivative(lambda u: np.abs(u - 1.0) ** (1.0 / 3.0))
    assert table.total == pytest.approx(primitive(2.0 * math.pi), rel=1e-12)
    u = np.linspace(0.0, 2.0 * math.pi, 1001)
    assert np.max(np.abs(table(u) - primitive(u))) <= 1e-12 * table.total
    np.testing.assert_allclose(table(u + 2.0 * math.pi), table(u) + table.total, rtol=0.0, atol=1e-14 * table.total)
    assert abs(table(0.0)) <= 1e-15 * table.total


def test_periodic_antiderivative_divergent_integrand_raises():
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(SolverError, match="did not converge below rel_tol"):
            PeriodicAntiderivative(lambda x: 1.0 / (x - 1.0) ** 2)


def test_spectral_derivative_matches_analytic():
    n = 128
    s = np.arange(n) * (2 * np.pi / n)
    vals = np.sin(3 * s) + 0.5 * np.cos(5 * s)
    d = TrigInterpolant(vals)(s, 1)
    expected = 3 * np.cos(3 * s) - 2.5 * np.sin(5 * s)
    assert np.max(np.abs(d - expected)) < 1e-11


def test_trig_interpolant_reproduces_samples_and_derivatives():
    n = 64
    s = np.arange(n) * (2 * np.pi / n)
    samples = np.cos(2 * s)
    interp = TrigInterpolant(samples)
    probe = np.array([0.1, 1.7, 4.4])
    assert np.max(np.abs(interp(probe) - np.cos(2 * probe))) < 1e-12
    assert np.max(np.abs(interp(probe, order=1) + 2 * np.sin(2 * probe))) < 1e-11
    assert np.max(np.abs(interp(probe, order=3) - 8 * np.sin(2 * probe))) < 1e-10


def test_trig_interpolant_antiderivative_matches_analytic():
    n = 32
    s = np.arange(n) * (2 * np.pi / n)
    samples = np.stack([1.0 + np.cos(2 * s) + 0.5 * np.sin(3 * s), np.sin(s)], axis=-1)
    interp = TrigInterpolant(samples)
    probe = np.array([0.0, 0.7, 2.9, 6.0, 9.5])
    exact = np.stack(
        [probe + 0.5 * np.sin(2 * probe) - np.cos(3 * probe) / 6.0, -np.cos(probe)], axis=-1
    )
    got = interp(probe, order=-1)
    assert np.max(np.abs((got - got[0]) - (exact - exact[0]))) < 1e-13


def test_trig_interpolant_drops_rounding_level_modes():
    n = 256
    s = np.arange(n) * (2 * np.pi / n)
    interp = TrigInterpolant(np.stack([np.cos(2 * s), 3.0 + np.sin(s)], axis=-1))
    assert len(interp.modes) == 3
    assert np.max(np.abs(interp(s) - np.stack([np.cos(2 * s), 3.0 + np.sin(s)], axis=-1))) < 1e-14


def test_trig_interpolant_from_its_coefficients_is_the_same_series():
    n = 64
    s = np.arange(n) * (2 * np.pi / n)
    interp = TrigInterpolant(np.stack([np.cos(3 * s) + 0.5 * np.sin(s), np.exp(np.sin(s))], axis=-1))
    again = TrigInterpolant.from_coefficients(interp.coeffs)
    probe = np.linspace(-1.0, 8.0, 37)
    for got, want in zip(again.derivatives(probe, (-1, 0, 1, 2)), interp.derivatives(probe, (-1, 0, 1, 2))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(), (2,)], ids=["scalar", "vector"])
@pytest.mark.parametrize("n", [32, 33])
def test_on_grid_matches_derivatives_on_the_grid(n, shape):
    # one inverse FFT against the table at s_j = j PERIOD / n, relative to sum_k |f_k c_k|, for
    # series from the DC term alone to one that fills the grid (at even n, up to a real Nyquist mode)
    rng = np.random.default_rng(n)
    grid = np.arange(n) * (PERIOD / n)
    orders = (0, 1, 2, 3, 4)
    for m in (1, 2, n // 2, n // 2 + 1):
        coeffs = rng.standard_normal((m,) + shape) + 1j * rng.standard_normal((m,) + shape)
        coeffs[0] = coeffs[0].real
        if 2 * (m - 1) == n:
            coeffs[-1] = coeffs[-1].real
        interp = TrigInterpolant.from_coefficients(coeffs)
        for order, got, want in zip(orders, interp.on_grid(n, orders), interp.derivatives(grid, orders)):
            scale = np.arange(m) ** order @ np.abs(coeffs)
            assert got.shape == want.shape == (n,) + shape
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (m, order)


@pytest.mark.parametrize("n", [16, 17])
def test_on_grid_too_coarse_for_the_series_evaluates_a_finer_one(n):
    # modes 0..9 fit a grid of 18 points (9 is its Nyquist mode), not one of 17, where 9 would alias
    # to -8: that series, and ones of up to 3n + 1 modes, are evaluated on the k-times-finer grid
    # that holds them and every k-th point kept, to the table at s_j = j PERIOD / n
    rng = np.random.default_rng(n)
    grid = np.arange(n) * (PERIOD / n)
    orders = (0, 1, 2)
    for m in (10, n // 2 + 2, n, 2 * n, 3 * n + 1):
        coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        coeffs[0] = coeffs[0].real
        interp = TrigInterpolant.from_coefficients(coeffs)
        for order, got, want in zip(orders, interp.on_grid(n, orders), interp.derivatives(grid, orders)):
            scale = np.arange(m) ** order @ np.abs(coeffs)
            assert got.shape == want.shape == (n,)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (m, order)


def test_gauss_rule_equals_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(numerics._GAUSS_NODES - nodes)) <= 1e-15
    assert np.max(np.abs(numerics._GAUSS_WEIGHTS - weights)) <= 1e-15


@pytest.mark.parametrize(
    "n_samples, n_points",
    [(256, 1001), (32, 3), (32, 5)],
    ids=["129-modes", "17-modes-one-exp", "17-modes-product"],
)
def test_trig_table_matches_exp_of_outer_product(n_samples, n_points):
    # the table e^(iks) is one exp and a cumulative product (or, up to
    # _SMALL_TABLE entries, one exp of the outer product); both must match
    # the old per-entry exp to its own argument-rounding level, about
    # 2.7e-13 at |k s| = 2400, relative to sum_k |f_k c_k|
    rng = np.random.default_rng(81)
    interp = TrigInterpolant(rng.standard_normal((n_samples, 2)))
    modes = len(interp.modes)
    assert modes == n_samples // 2 + 1
    s = np.linspace(-2.0 * PERIOD, 3.0 * PERIOD, n_points)
    assert (n_points * modes <= numerics._SMALL_TABLE) == (n_points == 3)
    wave = np.arange(modes)
    for order in range(-1, 5):
        factor = np.concatenate([[0.0], 1.0 / wave[1:]]) if order == -1 else wave**order
        scale = factor @ np.abs(interp.coeffs)
        err = np.abs(interp(s, order) - trig_interpolant_exp_outer(interp, s, order))
        assert np.all(err <= 1e-12 * scale), order


def test_bracketed_newton_finds_root():
    root = bracketed_newton(lambda x: (x**2 - 2.0, 2 * x), 0.0, 2.0, [1.9], f_tol=1e-14)
    assert root.shape == (1,) and abs(root[0] - math.sqrt(2)) < 1e-12


def test_bracketed_newton_accepts_converged_step_at_bracket_end():
    # -sin rises through pi, where it rounds to -1.2e-16, so the start becomes the
    # bracket's low end; its zero-length Newton step must end the iteration instead of
    # falling back to bisection
    calls = 0

    def fdf(x):
        nonlocal calls
        calls += 1
        return -np.sin(x), -np.cos(x)

    root = bracketed_newton(fdf, 0.1, 6.1, [math.pi], f_tol=0.0)
    assert root[0] == pytest.approx(math.pi, abs=1e-15)
    assert calls <= 4


def test_bracketed_newton_requires_sign_change():
    with pytest.raises(SolverError):
        bracketed_newton(lambda x: (x**2 + 1, 2 * x), -1.0, 1.0, [0.5], f_tol=1e-12)


def test_bracketed_newton_solves_independent_lanes():
    k = np.array([1.0, 2.0, 3.0, 50.0])
    roots = bracketed_newton(lambda x: (x**2 - k, 2 * x), np.zeros(4), k + 1.0, 0.5 * (k + 1.0), f_tol=0.0)
    assert roots.shape == (4,)
    assert np.max(np.abs(roots - np.sqrt(k))) < 1e-14


def test_bracketed_newton_lanes_bisect_on_their_own():
    # lane 1 has a useless derivative and must bisect; lane 0 converges by Newton and freezes
    seen = []

    def fdf(x):
        seen.append(x.copy())
        return np.array([x[0] - 0.25, math.atan(x[1] - 0.7)]), np.array([1.0, 0.0])

    roots = bracketed_newton(fdf, np.zeros(2), np.ones(2), np.array([0.9, 0.9]), f_tol=1e-14)
    assert roots[0] == 0.25
    assert abs(roots[1] - 0.7) < 1e-13
    # after converging in its first step, lane 0 stays at its root while lane 1 keeps bisecting
    assert all(x[0] == 0.25 for x in seen[1:])
    assert len(seen) > 10


def test_bracketed_newton_reports_the_lane_without_sign_change():
    with pytest.raises(SolverError, match=r"\[2\.0, 3\.0\]"):
        bracketed_newton(lambda x: (x - 1.5, np.ones_like(x)), np.array([0.0, 2.0]), np.array([3.0, 3.0]),
                         np.array([1.0, 2.5]), f_tol=1e-14)


def test_bracketed_newton_start_on_a_root_is_one_call():
    # every lane meets f_tol at its start: the bracket ends are neither evaluated
    # nor checked, though (x - r)^2 changes sign on none of these brackets
    seen = []
    r = np.array([0.25, 0.5, 0.75])

    def fdf(x):
        seen.append(x.copy())
        return (x - r) ** 2, 2.0 * (x - r)

    roots = bracketed_newton(fdf, np.zeros(3), np.ones(3), r, f_tol=1e-14)
    assert np.array_equal(roots, r)
    assert len(seen) == 1


def test_bracketed_newton_start_off_a_root_needs_a_sign_change():
    # the lane off its root never sees f < 0: it bisects down to its low end, where
    # the bracket ends are evaluated and show no rise through a root
    r = np.array([0.25, 0.5])
    with pytest.raises(SolverError, match="no sign change"):
        bracketed_newton(lambda x: ((x - r) ** 2, 2.0 * (x - r)), np.zeros(2), np.ones(2), np.array([0.25, 0.3]),
                         f_tol=1e-14)


def test_bracketed_newton_missed_start_is_the_first_round():
    # a start that misses is evaluated once, then once per Newton step from it; the
    # rising residual places each iterate on its side of the root, so the bracket
    # ends are never evaluated
    seen = []

    def fdf(x):
        seen.append(float(x[0]))
        return x * x - 2.0, 2.0 * x

    root = bracketed_newton(fdf, 0.0, 2.0, [1.9], f_tol=1e-14)
    steps = []
    x = 1.9
    while abs(x * x - 2.0) > 1e-14:
        x_new = x - (x * x - 2.0) / (2.0 * x)
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x)):
            break
        x = x_new
        steps.append(x)
    assert seen == [1.9, *steps]
    assert root[0] == x and len(steps) >= 3


def test_bracketed_newton_rejects_a_falling_residual():
    # 1 - x has its root at 1 in [0, 2] but falls through it: the start's f > 0 makes
    # it the high end, so the iterates bisect down to 0, where f(0) > 0 gives it away
    with pytest.raises(SolverError, match=r"no sign change on bracket \[0\.0, 2\.0\]"):
        bracketed_newton(lambda x: (1.0 - x, -1.0), 0.0, 2.0, [0.5], f_tol=1e-14)
    # in lanes too, beside a lane that rises
    with pytest.raises(SolverError, match=r"\[0\.0, 2\.0\]"):
        bracketed_newton(lambda x: (np.array([x[0] - 1.0, 1.0 - x[1]]), np.array([1.0, -1.0])),
                         np.zeros(2), np.full(2, 2.0), np.array([0.5, 0.5]), f_tol=1e-14)


def test_bracketed_newton_lane_without_a_root_bisects_to_its_end_then_raises():
    # x - 5 stays negative on [0, 1]: its Newton steps leave the bracket, so the lane
    # bisects up to 1 within NEWTON_MAX_ITER rounds; then both bracket ends are
    # evaluated, once each, and the error names the bracket. Lane 0 meets f_tol
    seen = []

    def fdf(x):
        seen.append(x.copy())
        return np.array([x[0] - 0.5, x[1] - 5.0]), np.ones(2)

    lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    with pytest.raises(SolverError, match=r"no sign change on bracket \[0\.0, 1\.0\]"):
        bracketed_newton(fdf, lo, hi, np.array([0.5, 0.5]), f_tol=1e-14)
    assert len(seen) <= numerics.NEWTON_MAX_ITER + 3
    np.testing.assert_array_equal(seen[-2], lo)
    np.testing.assert_array_equal(seen[-1], hi)
    assert 1.0 - seen[-3][1] <= 1e-14

