import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flotilla.chord as chord_module
from flotilla.chord import (
    FLOTATION,
    ILLUMINATION,
    PARALLEL_TOL,
    sweep,
)
from flotilla.curve import PERIOD, AffineFrame, AffineImage, Ellipse, FourierRadial, SampledPeriodic, area, det2, norm2
from flotilla.errors import DomainError, SolverError
from flotilla.numerics import TrigInterpolant, bracketed_newton

from oracles import (
    cap_area,
    circle_cone_area,
    circle_segment_area,
    cone_area,
    random_unimodular_frame,
    side_at,
    solve_flotation_chord,
    solve_silhouette_chord,
    sweep_closure_defect,
    tangent_intersection,
    triangle_area,
)

TWO_PI = 2.0 * math.pi
# bodies built afresh for tests that count evaluations: a body's sweep grids are kept
FRESH_BODIES = {"ellipse21": lambda: Ellipse(2.0, 1.0), "bump3": lambda: FourierRadial(1.0, (0.0, 0.0, 0.1))}
THETA = math.pi / 3
DELTA = circle_segment_area(THETA)  # 0.614185...
DELTA_HAT = circle_cone_area(THETA)  # 0.684853...


class TestCapArea:
    def test_circle_segment(self, unit_circle):
        assert cap_area(unit_circle, 0.0, 2 * THETA) == pytest.approx(DELTA, abs=1e-13)

    def test_degenerate_chord(self, unit_circle):
        assert cap_area(unit_circle, 1.0, 1.0) == 0.0

    def test_full_period_gives_area(self, unit_circle):
        assert cap_area(unit_circle, 0.3, 0.3 + TWO_PI) == pytest.approx(math.pi, rel=1e-12)


class TestConeArea:
    def test_circle_cone(self, unit_circle):
        assert cone_area(unit_circle, -THETA, THETA) == pytest.approx(DELTA_HAT, abs=1e-12)

    def test_shrinks_to_zero(self, unit_circle):
        assert cone_area(unit_circle, 0.5, 0.5 + 1e-4) < 1e-10

    def test_cap_plus_cone_is_tangent_triangle(self, ellipse21):
        s, t = 0.4, 2.1
        z = tangent_intersection(ellipse21, s, t)
        x = ellipse21.derivative(s, 0)
        y = ellipse21.derivative(t, 0)
        total = cap_area(ellipse21, s, t) + cone_area(ellipse21, s, t)
        assert total == pytest.approx(triangle_area(x, y, z), rel=1e-10)

    def test_parallel_tangents_no_apex(self, unit_circle):
        with pytest.raises(DomainError, match="tangent lines are parallel"):
            cone_area(unit_circle, 0.0, math.pi)


class TestTangentIntersection:
    def test_circle_symmetric_chord(self, unit_circle):
        z = tangent_intersection(unit_circle, -THETA, THETA)
        assert np.allclose(z, [1.0 / math.cos(THETA), 0.0], atol=1e-12)

    def test_apex_on_perpendicular_bisector(self, unit_circle):
        s0 = 0.83
        z = tangent_intersection(unit_circle, s0 - 0.6, s0 + 0.6)
        mid_dir = np.array([math.cos(s0), math.sin(s0)])
        assert abs(det2(z, mid_dir)) < 1e-12

    def test_equivariance(self, ellipse21):
        rng = np.random.default_rng(17)
        z = tangent_intersection(ellipse21, 0.2, 1.9)
        for _ in range(20):
            frame = random_unimodular_frame(rng)
            image = AffineImage(ellipse21, frame)
            assert np.allclose(tangent_intersection(image, 0.2, 1.9), frame.apply(z), atol=1e-9)


class TestSolveFlotation:
    def test_circle_known_delta(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.77, DELTA)
        assert cm.t[0] - cm.s[0] == pytest.approx(2 * THETA, abs=1e-12)

    def test_half_disk_by_symmetry(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.3, math.pi / 2)
        assert cm.t[0] - cm.s[0] == pytest.approx(math.pi, abs=1e-12)

    def test_angles_match_sign_conventions(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.5, DELTA)
        alpha, beta, c, norm_c = cm.alpha[0], cm.beta[0], cm.c[0], cm.norm_c[0]
        assert alpha == pytest.approx(THETA, abs=1e-10)
        assert beta == pytest.approx(THETA, abs=1e-10)
        d1 = unit_circle.derivative(cm.s[0], 1)
        d2 = unit_circle.derivative(cm.t[0], 1)
        assert math.sin(alpha) == pytest.approx(-det2(c, d1) / (norm_c * np.linalg.norm(d1)), abs=1e-12)
        assert math.sin(beta) == pytest.approx(det2(c, d2) / (norm_c * np.linalg.norm(d2)), abs=1e-12)
        assert 0.0 < alpha < math.pi and 0.0 < beta < math.pi

    def test_delta_out_of_range(self, unit_circle):
        with pytest.raises(DomainError):
            solve_flotation_chord(unit_circle, 0.0, 4.0)
        with pytest.raises(DomainError):
            solve_flotation_chord(unit_circle, 0.0, -0.1)

    def test_area_residual_tolerance(self, bump3):
        cm = solve_flotation_chord(bump3, 2.2, 0.8)
        residual = abs(cap_area(bump3, cm.s[0], cm.t[0]) - 0.8)
        assert residual < 1e-12 * area(bump3)


class TestSolveSilhouette:
    def test_circle_known_delta_hat(self, unit_circle):
        cm = solve_silhouette_chord(unit_circle, 0.77, DELTA_HAT)
        assert cm.t[0] - cm.s[0] == pytest.approx(2 * THETA, abs=1e-11)

    def test_apex_distance(self, unit_circle):
        cm = solve_silhouette_chord(unit_circle, 0.0, DELTA_HAT)
        assert np.linalg.norm(cm.z[0]) == pytest.approx(1.0 / math.cos(THETA), abs=1e-11)

    def test_unreachable_delta_hat(self, unit_circle):
        with pytest.raises((SolverError, DomainError)):
            solve_silhouette_chord(unit_circle, 0.0, -1.0)

    @pytest.mark.parametrize("fraction", [1e10, 1e11])
    def test_beyond_reach_at_a_flat_antipode_raises(self, bump3, fraction):
        # the antipode pi of s = 0 is a flat point of bump3; a bracket that ended
        # just before it returned a chord without an apex (1e10) or with a cone
        # of 2.0e10 where 3.2e11 was asked (1e11)
        with pytest.raises(SolverError, match="not reachable"):
            solve_silhouette_chord(bump3, 0.0, fraction * area(bump3))


class TestSweep:
    def test_circle_offset_constant(self, unit_circle):
        chords = sweep(unit_circle, FLOTATION, DELTA, 64)
        offsets = chords.t - chords.s
        assert np.max(np.abs(offsets - 2 * THETA)) < 1e-11

    def test_half_area_chords_pass_through_center(self, ellipse21):
        chords = sweep(ellipse21, FLOTATION, math.pi, 64)
        assert np.all(np.abs(chords.t - chords.s - math.pi) <= 1e-9)
        dist = np.abs(det2(chords.c, -chords.x)) / chords.norm_c
        assert np.all(dist < 1e-9)

    def test_closure(self, bump3):
        assert abs(sweep_closure_defect(bump3, FLOTATION, 0.8, 64)) < 1e-9

    def test_closure_illumination(self, ellipse21):
        assert abs(sweep_closure_defect(ellipse21, ILLUMINATION, 1.0, 64)) < 1e-9

    def test_unwrapped_t_strictly_increasing(self, bump3):
        chords = sweep(bump3, FLOTATION, 0.8, 64)
        assert np.all(np.diff(chords.t) > 0.0)

    def test_cap_area_monotone_via_endpoint_determinant(self, bump3):
        # d(cap area)/dt = det(c, gamma'(t))/2 stays positive along the sweep
        chords = sweep(bump3, FLOTATION, 0.8, 64)
        assert np.all(det2(chords.c, bump3.derivative(chords.t, 1)) > 0.0)

    def test_eccentric_rotated_translated_ellipse(self):
        from flotilla.curve import Ellipse

        ell = Ellipse(5.0, 1.0, rotation=0.7, center=(3.0, -2.0))
        chords = sweep(ell, FLOTATION, 2.0, 64)
        assert np.all(np.diff(chords.t) > 0.0)
        assert np.all((0.0 < chords.alpha) & (chords.alpha < math.pi) & (0.0 < chords.beta) & (chords.beta < math.pi))

    def test_minimum_sample_count(self, unit_circle):
        with pytest.raises(DomainError):
            sweep(unit_circle, FLOTATION, DELTA, 8)

    def test_equivariance_of_chord_endpoints(self, unit_circle):
        rng = np.random.default_rng(23)
        chords = sweep(unit_circle, FLOTATION, DELTA, 32)
        for _ in range(5):
            frame = random_unimodular_frame(rng)
            image = AffineImage(unit_circle, frame)
            # unimodular: same delta cuts the same chords
            image_chords = sweep(image, FLOTATION, DELTA, 32)
            assert np.allclose(image_chords.x, frame.apply(chords.x), atol=1e-8)
            assert np.allclose(image_chords.y, frame.apply(chords.y), atol=1e-8)

    def test_degenerate_half_area_sweep_succeeds(self, unit_circle):
        chords = sweep(unit_circle, FLOTATION, math.pi / 2, 32)
        assert not chords.apex.any() and np.all(np.isnan(chords.z))
        assert np.all(np.isinf(chords.affine_norm_c))


def _count_evaluations(monkeypatch, curve, counts):
    """Count into ``counts`` the points of every curve and every moment evaluation of ``curve``.

    ``counts["calls"]`` counts the curve evaluations themselves.
    """
    _, moments = curve.moments
    derivatives = type(curve).derivatives
    interpolant = TrigInterpolant.derivatives

    def counting_curve(self, s, orders):
        counts["calls"] += 1
        counts["curve"] += np.size(s)
        return derivatives(self, s, orders)

    def counting_moments(self, s, orders):
        if self is moments:
            counts["moments"] += np.size(s)
        return interpolant(self, s, orders)

    monkeypatch.setattr(type(curve), "derivatives", counting_curve)
    monkeypatch.setattr(TrigInterpolant, "derivatives", counting_moments)


class TestLaneSweep:
    """A sweep solves all of its chords in one lane-wise Newton iteration."""

    @pytest.mark.parametrize("kind", [FLOTATION, ILLUMINATION])
    def test_derivative_calls_per_sweep(self, monkeypatch, kind):
        # deterministic work counter of curve evaluations (one derivatives
        # call, of one or more orders): one chord at a time took about 3.3k
        # (flotation) and 11.5k (illumination) one-order calls for this sweep
        calls = 0
        derivatives = Ellipse.derivatives

        def counting(curve, s, orders):
            nonlocal calls
            calls += 1
            return derivatives(curve, s, orders)

        monkeypatch.setattr(Ellipse, "derivatives", counting)
        chords = sweep(Ellipse(2.0, 1.0), kind, 1.0, 256)
        assert len(chords) == 256
        assert calls <= 150

    @pytest.mark.parametrize(
        "body, kind, delta, curve_points, moment_points",
        [
            ("ellipse21", FLOTATION, 1.0, 10_240, 4_608),
            ("ellipse21", ILLUMINATION, 1.0, 20_992, 5_120),
            ("bump3", ILLUMINATION, 0.8, 39_680, 8_192),
        ],
    )
    def test_curve_points_per_sweep(self, request, monkeypatch, body, kind, delta, curve_points, moment_points):
        # deterministic work counter: the points at which the curve and its
        # moment antiderivative are evaluated, each evaluation counted once
        # whatever its orders. The bounds are 0.65 of the counts when the
        # value and the slope were separate callables that each evaluated
        # both chord ends, one order per call
        curve = request.getfixturevalue(body)
        _, moments = curve.moments
        counts = {"calls": 0, "curve": 0, "moments": 0}
        _count_evaluations(monkeypatch, curve, counts)
        assert len(sweep(curve, kind, delta, 256)) == 256
        assert counts["curve"] <= 0.65 * curve_points
        assert counts["moments"] <= 0.65 * moment_points

    @pytest.mark.parametrize(
        "body, kind, delta, curve_points, calls",
        [
            ("ellipse21", FLOTATION, 1.0, 512, 2),
            ("ellipse21", ILLUMINATION, 1.0, 512, 2),
        ],
    )
    def test_s_side_evaluated_once_per_sweep(self, monkeypatch, body, kind, delta, curve_points, calls):
        # orders 0 to 2 at s are evaluated once, for the t solve and the chords,
        # and either solve's last round at t serves the chords. The body is
        # built here: a session fixture's grids may hold an earlier sweep's s side.
        # bump3's sweeps, which take 4 and 14 residual calls after the s side, are
        # pinned by the report's residual_calls (tests/test_cli.py)
        curve = FRESH_BODIES[body]()
        counts = {"calls": 0, "curve": 0, "moments": 0}
        _count_evaluations(monkeypatch, curve, counts)
        chords = sweep(curve, kind, delta, 256)
        assert len(chords) == 256
        assert (counts["curve"], counts["calls"]) == (curve_points, calls)
        assert chords.residual_calls == calls - 1

    @pytest.mark.parametrize("kind", [FLOTATION, ILLUMINATION])
    def test_second_sweep_on_a_shared_grid_evaluates_only_t(self, monkeypatch, kind):
        # the s side of a grid (orders 0 to 2 and the moment antiderivative at s)
        # is built by the first sweep on it and shared, read-only, by every later
        # one: on the 2:1 ellipse at n = 256 a later sweep evaluates the curve and
        # the moment antiderivative only at t, 256 points in 1 call each
        curve = Ellipse(2.0, 1.0)
        first = sweep(curve, FLOTATION, 0.5, 256)
        counts = {"calls": 0, "curve": 0, "moments": 0}
        _count_evaluations(monkeypatch, curve, counts)
        second = sweep(curve, kind, 1.0, 256)
        assert (counts["curve"], counts["calls"], counts["moments"]) == (256, 1, 256)
        assert second.s is first.s and not second.s.flags.writeable
        monkeypatch.undo()
        fresh = sweep(Ellipse(2.0, 1.0), kind, 1.0, 256)
        for name in ("s", "t", "alpha", "beta", "affine_norm_c"):
            np.testing.assert_array_equal(getattr(second, name), getattr(fresh, name))
        for k in range(3):
            np.testing.assert_array_equal(second.jets[k], fresh.jets[k])

    def test_each_grid_has_its_own_s_side(self):
        # a grid is keyed by its size and start: other sizes and starts are
        # their own grids, and a grid of the same size and start is shared
        curve = Ellipse(2.0, 1.0)
        grids = [(64, 0.0), (128, 0.0), (64, 0.1), (64, 0.0)]
        sides = [chord_module._grid(curve, n, s0) for n, s0 in grids]
        assert sorted(curve.sweep_grids) == [(64, 0.0), (64, 0.1), (128, 0.0)]
        assert sides[3] is sides[0]
        for (n, s0), (s, at_s, m_s) in zip(grids, sides):
            np.testing.assert_array_equal(s, s0 + np.arange(n) * (PERIOD / n))
            for d, expected in zip(at_s, curve.derivatives(s, (0, 1, 2))):
                np.testing.assert_array_equal(d, expected)
            np.testing.assert_array_equal(m_s, curve.moments[1](s, -1))
            assert not any(a.flags.writeable for a in (s, *at_s, m_s))

    @pytest.mark.parametrize("step", ["flotation_sweep", "illumination_sweep", "chain_step"])
    def test_orders_at_t_reuse_the_last_evaluation_where_it_was_taken(self, monkeypatch, bump3, step):
        # a solve's latest evaluation serves the lanes it was taken at; the
        # others (here every third, as if stopped by the step tolerance) are
        # evaluated again, curve and moments, and the chords, or the next
        # vertices of a carousel chain (chord.chains), are those of a fresh evaluation
        kind = ILLUMINATION if step == "illumination_sweep" else FLOTATION
        fresh = sweep(bump3, kind, 0.8, 64)
        at_t = bump3.derivatives(fresh.t, (0, 1, 2))
        counts = {"calls": 0, "curve": 0, "moments": 0}

        def solve_then_step_off(fdf, lo, hi, x0, f_tol):
            t = bracketed_newton(fdf, lo, hi, x0, f_tol)
            u = t.copy()
            u[::3] += 1e-3
            fdf(u)
            counts.update(calls=0, curve=0, moments=0)
            return t

        _count_evaluations(monkeypatch, bump3, counts)
        monkeypatch.setattr(chord_module, "bracketed_newton", solve_then_step_off)
        if step == "chain_step":
            _, (points, tangents), _ = chord_module.chains(bump3, 1, 0.8, 64, 0.0)
            ends = [points[1], tangents[1]]
        else:
            chords = sweep(bump3, kind, 0.8, 64)
            ends = [chords.jets[k][1] for k in range(3)]
            assert chords.residual_calls == fresh.residual_calls + 1
        assert (counts["calls"], counts["curve"], counts["moments"]) == (1, 22, 22)
        for got, want in zip(ends, at_t):
            np.testing.assert_array_equal(got, want)
        if step != "chain_step":
            m_s, m_t = bump3.moments[1](np.stack([chords.s, chords.t]), -1)
            assert np.all(np.abs(chords.dm - (m_t - m_s)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(m_t), axis=0))

    @pytest.mark.parametrize("kind", [FLOTATION, ILLUMINATION])
    @pytest.mark.parametrize("body", ["rotated_shifted_ellipse", "bump3", "sampled_64", "reflected_bump3_small"])
    def test_handed_on_ends_are_a_fresh_evaluation(self, request, body, kind):
        # the chords take the end at t from the solve's last round, evaluated
        # again only where t moved after it: bit for bit the curve at t
        if body == "rotated_shifted_ellipse":
            curve = ROTATED_ELLIPSE
        elif body == "sampled_64":
            u = np.arange(64) * (2.0 * math.pi / 64)
            r = 1.0 + 0.1 * np.cos(3 * u)
            curve = SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))
        elif body == "reflected_bump3_small":
            reflection = AffineFrame([[0.9, 0.3], [0.2, -1.1]], (0.4, 0.1))
            curve = AffineImage(request.getfixturevalue("bump3_small"), reflection)
        else:
            curve = request.getfixturevalue(body)
        chords = sweep(curve, kind, 0.1 * area(curve), 256, s0=0.1)
        for k, d in enumerate(curve.derivatives(chords.t, (0, 1, 2))):
            np.testing.assert_array_equal(chords.jets[k][1], d)

    @pytest.mark.parametrize("kind", [FLOTATION, ILLUMINATION])
    @pytest.mark.parametrize("body", ["ellipse21", "bump3", "sampled_64"])
    def test_fields_match_their_definitions(self, request, body, kind):
        # p, q, v, ws, the end curvatures and the arc moments come from the solve's
        # own evaluations; each is its definition from the jets and a fresh
        # evaluation of the moment antiderivative at both ends, to a few ulps
        if body == "sampled_64":
            u = np.arange(64) * (2.0 * math.pi / 64)
            r = 1.0 + 0.1 * np.cos(3 * u)
            curve = SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))
        else:
            curve = request.getfixturevalue(body)
        chords = sweep(curve, kind, 0.1 * area(curve), 256, s0=0.1)
        (x, y), (d1, d2), (dd1, dd2) = chords.jets
        c = y - x
        eps = 4.0 * np.finfo(float).eps
        for got, u, w in ((chords.p, c, d1), (chords.q, c, d2), (chords.v, d1, d2), (chords.ws, d1, dd1)):
            np.testing.assert_allclose(got, det2(u, w), rtol=0.0, atol=eps * np.max(norm2(u) * norm2(w)))
        for got, d, dd in ((chords.ks, d1, dd1), (chords.kt, d2, dd2)):
            scale = np.max(norm2(dd) / norm2(d) ** 2)
            np.testing.assert_allclose(got, det2(d, dd) / norm2(d) ** 3, rtol=0.0, atol=eps * scale)
        m_s, m_t = curve.moments[1](np.stack([chords.s, chords.t]), -1)
        scale = np.max(np.abs([m_s, m_t]), axis=(0, 1))
        assert chords.dm.shape == (256, 3)
        assert np.all(np.abs(chords.dm - (m_t - m_s)) <= eps * scale)

    def test_sliced_and_replaced_chords_evaluate_nothing(self, monkeypatch, ellipse21):
        # the end jets of orders 0 to 2, the end determinants and curvatures and
        # the arc moments are lane data of the chords; sliced and replaced chords
        # used to evaluate the jets again, one call for each
        chords = sweep(ellipse21, FLOTATION, 1.0, 64)
        ends = np.stack([chords.s, chords.t])
        for k in range(3):
            np.testing.assert_array_equal(chords.jets[k], ellipse21.derivative(ends, k))
        counts = {"calls": 0, "curve": 0, "moments": 0}
        _count_evaluations(monkeypatch, ellipse21, counts)
        for k in range(3):
            np.testing.assert_array_equal(chords[5].jets[k], chords.jets[k][:, [5]])
        replaced = chords.replace(alpha=chords.alpha + 0.1)
        for name in ("p", "q", "v", "ks", "kt", "dm"):
            np.testing.assert_array_equal(getattr(chords[::16], name), getattr(chords, name)[::16])
            np.testing.assert_array_equal(getattr(replaced, name), getattr(chords, name))
        assert chords[5].dm.shape == (1, 3)
        assert counts["calls"] == counts["moments"] == 0

    @pytest.mark.parametrize("body", ["ellipse21", "bump3", "sampled_bump3"])
    @pytest.mark.parametrize("solver", [FLOTATION, ILLUMINATION], ids=["flotation", "cone"])
    def test_one_curve_and_one_moment_evaluation_per_round(self, request, monkeypatch, body, solver):
        # every Newton round of a sweep evaluates the curve once at the lanes'
        # t, all orders it needs together, and the moment antiderivative once
        if body == "sampled_bump3":
            u = np.arange(64) * (2.0 * math.pi / 64)
            r = 1.0 + 0.1 * np.cos(3 * u)
            curve = SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))
        else:
            curve = request.getfixturevalue(body)
        s = np.arange(256) * (PERIOD / 256)
        at_s = curve.derivatives(s, (0, 1, 2))
        counts = {"calls": 0, "curve": 0, "moments": 0}
        _count_evaluations(monkeypatch, curve, counts)
        _, rounds = chord_module._solve_t(curve, solver, (s, at_s, curve.moments[1](s, -1)), 0.8)
        # on an ellipse the cap and cone starts are the roots: one round, no bracket ends
        assert rounds == 1 if body == "ellipse21" else rounds >= 3
        # one curve evaluation of all 256 lanes per round and none besides
        assert (counts["calls"], counts["curve"]) == (rounds, 256 * rounds)
        # the moments at s once, then at t once per round
        assert counts["moments"] == 256 * (1 + rounds)

    def test_flat_point_lanes_match_one_lane_solves(self, bump3):
        # lanes whose tangent is still parallel at s + 1e-9 period: next to the
        # flat points the cone residual must read -delta_hat, not +inf
        period = PERIOD
        chords = sweep(bump3, ILLUMINATION, 0.8, 256)
        s = chords.s
        d1, d2 = bump3.derivative(s, 1), bump3.derivative(s + 1e-9 * period, 1)
        flat = np.nonzero(np.abs(det2(d1, d2)) <= 1e-10 * norm2(d1) * norm2(d2))[0]
        assert len(flat) >= 3
        for i in flat:
            assert abs(chords.t[i] - solve_silhouette_chord(bump3, s[i], 0.8).t[0]) < 1e-12

    def test_unreachable_lane_raises(self, ellipse21):
        # a lane reaches the cones whose end tangents are not parallel to
        # PARALLEL_TOL. On the 2:1 ellipse (ab = 2) the largest has cone angle
        # phi with 2 sin(phi) = PARALLEL_TOL |g'(s)|^2 to first order, and
        # area (tan(phi/2) - phi/2) / pi; it differs by lane, so a delta_hat
        # between the smallest and the largest is out of reach in some lanes only
        s = np.arange(16) * (PERIOD / 16)
        phi = math.pi - 0.5 * PARALLEL_TOL * norm2(ellipse21.derivative(s, 1)) ** 2
        top = area(ellipse21) * (np.tan(0.5 * phi) - 0.5 * phi) / math.pi
        assert top.max() > 1.2 * top.min()
        assert len(sweep(ellipse21, ILLUMINATION, 0.5 * top.min(), 16)) == 16
        with pytest.raises(SolverError, match="not reachable"):
            sweep(ellipse21, ILLUMINATION, math.sqrt(top.min() * top.max()), 16)

    def test_illumination_sweep_matches_one_lane_solves(self, bump3):
        chords = sweep(bump3, ILLUMINATION, 0.8, 256)
        one = np.concatenate([solve_silhouette_chord(bump3, s, 0.8).t for s in chords.s])
        assert np.max(np.abs(chords.t - one)) < 1e-12

    def test_lanes_match_one_lane_solves(self, ellipse21):
        chords = sweep(ellipse21, FLOTATION, 1.0, 32)
        for cm in chords[::5]:
            one = solve_flotation_chord(ellipse21, cm.s[0], 1.0)
            assert one.t[0] == pytest.approx(cm.t[0], abs=1e-12)
            assert one.affine_norm_c[0] == pytest.approx(cm.affine_norm_c[0], rel=1e-12)



def _start_at(monkeypatch, start):
    """Start every chord-module Newton solve at ``start(lo, hi)`` instead of its own start."""

    def restarted(fdf, lo, hi, x0, f_tol):
        return bracketed_newton(fdf, lo, hi, start(lo, hi), f_tol)

    monkeypatch.setattr(chord_module, "bracketed_newton", restarted)


ROTATED_ELLIPSE = Ellipse(2.0, 1.0, center=np.array([0.7, -1.3]), rotation=0.6)


class TestEllipseStarts:
    """Every chord solve starts at the ellipse's answer, in the eccentric angle of any ellipse."""

    @pytest.mark.parametrize("curve", [Ellipse(2.0, 1.0), ROTATED_ELLIPSE], ids=["axes", "rotated_shifted"])
    @pytest.mark.parametrize("fraction", [1e-6, 0.1955, 0.3, 0.5, 0.9])
    def test_cap_start_is_the_root(self, curve, fraction):
        total = area(curve)
        s = 0.1 + np.arange(64) * (PERIOD / 64)
        (t, _, _), calls = chord_module._solve_t(curve, FLOTATION, side_at(curve, s, (0, 1)), fraction * total)
        assert calls == 1
        assert np.max(np.abs(cap_area(curve, s, t) - fraction * total)) <= 1e-12 * total

    @pytest.mark.parametrize("curve", [Ellipse(2.0, 1.0), ROTATED_ELLIPSE], ids=["axes", "rotated_shifted"])
    @pytest.mark.parametrize("fraction", [0.1, 0.8, 5.0])
    def test_cone_start_is_the_root(self, curve, fraction):
        total = area(curve)
        s = 0.1 + np.arange(64) * (PERIOD / 64)
        (t, _, _), calls = chord_module._solve_t(curve, ILLUMINATION, side_at(curve, s, (0, 1)), fraction * total)
        assert calls == 1
        assert np.max(np.abs(cone_area(curve, s, t) - fraction * total)) <= 1e-12 * total

    @pytest.mark.parametrize("curve", [Ellipse(2.0, 1.0), ROTATED_ELLIPSE], ids=["axes", "rotated_shifted"])
    @pytest.mark.parametrize("fraction", [1e-6, 1e-2, 1.0, 1e3, 1e6, 1e9])
    def test_cone_chord_is_the_closed_form(self, curve, fraction):
        # in the eccentric angle every cone chord spans the cone angle, up to a
        # cone of a billion body areas, whose angle is 6e-10 short of pi
        chords = sweep(curve, ILLUMINATION, fraction * area(curve), 64, s0=0.1)
        assert np.max(np.abs(chords.t - (chords.s + chord_module._cone_angle(fraction)))) <= 4e-15

    @pytest.mark.parametrize("curve", [Ellipse(2.0, 1.0), ROTATED_ELLIPSE], ids=["axes", "rotated_shifted"])
    def test_cone_beyond_reach_raises(self, curve):
        with pytest.raises(SolverError, match="not reachable"):
            sweep(curve, ILLUMINATION, 1e10 * area(curve), 64, s0=0.1)

    def test_cap_angle_round_trip(self):
        # from both ends of the fraction to the angle and back, to rounding; f > 1/2 mirrors f < 1/2
        fractions = [1e-12, 1e-6, *np.linspace(0.0, 1.0, 65)[1:-1].tolist(), 1.0 - 1e-6, 1.0 - 1e-12]
        for f in fractions:
            theta = chord_module._cap_angle(f)
            assert 0.0 < theta < TWO_PI
            assert abs((theta - math.sin(theta)) / TWO_PI - f) <= 1e-15
        assert chord_module._cap_angle(0.5) == math.pi
        assert chord_module._cap_angle(0.75) == TWO_PI - chord_module._cap_angle(0.25)

    def test_cone_angle_round_trip(self):
        # from a vanishing cone to one of a thousand body areas and back; near pi the
        # cone area's rounding grows with its condition number phi h'(phi) / h(phi)
        for g in np.geomspace(1e-12, 1e3, 61).tolist():
            phi = chord_module._cone_angle(g)
            assert 0.0 < phi < math.pi
            h = math.tan(0.5 * phi) - 0.5 * phi
            condition = phi * 0.5 * math.tan(0.5 * phi) ** 2 / h
            assert abs(h / math.pi - g) <= 1e-15 * max(1.0, g) * max(1.0, condition)

    @pytest.mark.parametrize("kind", [FLOTATION, ILLUMINATION])
    def test_bump3_matches_a_midpoint_started_solve(self, monkeypatch, bump3, kind):
        # off the ellipse the start is only close: Newton still ends on the same
        # chords, each area within 1e-12 of the body's of delta, so the two t
        # differ by at most twice that over the area's slope
        total = area(bump3)
        s = np.arange(256) * (PERIOD / 256)
        side = side_at(bump3, s, (0, 1))
        t = chord_module._solve_t(bump3, kind, side, 0.8)[0][0]
        _start_at(monkeypatch, lambda lo, hi: 0.5 * (lo + hi))
        t_mid = chord_module._solve_t(bump3, kind, side, 0.8)[0][0]
        for u in (t, t_mid):
            # near the root either residual is the area less 0.8
            value, slope = chord_module._area_fdf(bump3, kind, side, 0.8)(u)
            assert np.max(np.abs(value)) <= 1e-12 * total
        assert np.all(np.abs(t - t_mid) * np.abs(slope) <= 2e-12 * total)


@settings(deadline=None, max_examples=25)
@given(t1=st.floats(0.2, 2.8), t2=st.floats(0.2, 2.8))
def test_cap_area_strictly_increasing_in_t(t1, t2):
    from flotilla.curve import Ellipse

    circle = Ellipse(1.0, 1.0)
    a1 = cap_area(circle, 0.0, min(t1, t2))
    a2 = cap_area(circle, 0.0, max(t1, t2))
    if t1 != t2:
        assert (a2 - a1) >= 0.0
        if abs(t1 - t2) > 1e-6:
            assert a2 > a1
