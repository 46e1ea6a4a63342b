import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flotilla.chord as chord_module
from flotilla.chord import (
    FLOTATION,
    ILLUMINATION,
    antipodal_tangent_param,
    cap_area,
    cone_area,
    solve_flotation_chord,
    solve_silhouette_chord,
    sweep,
    tangent_intersection,
)
from flotilla.curve import Ellipse, FourierRadial, apply_affine, area, det2, norm2
from flotilla.errors import DomainError, ParallelElementsError, SolverError
from flotilla.numerics import bracketed_newton

from oracles import (
    circle_cone_area,
    circle_segment_area,
    random_unimodular_frame,
    sweep_closure_defect,
    triangle_area,
)

TWO_PI = 2.0 * math.pi
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
        with pytest.raises(ParallelElementsError):
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
            image = apply_affine(ellipse21, frame)
            assert np.allclose(tangent_intersection(image, 0.2, 1.9), frame.apply(z), atol=1e-9)


class TestSolveFlotation:
    def test_circle_known_delta(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.77, DELTA)
        assert cm.t[0] - cm.s[0] == pytest.approx(2 * THETA, abs=1e-12)

    def test_half_disk_by_symmetry(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.3, math.pi / 2)
        assert cm.t[0] - cm.s[0] == pytest.approx(math.pi, abs=1e-12)

    def test_dt_ds_constant_on_circle(self, unit_circle):
        for s in (0.0, 1.3, 5.1):
            cm = solve_flotation_chord(unit_circle, s, DELTA)
            assert cm.dt_ds[0] == pytest.approx(1.0, abs=1e-12)

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

    def test_dt_ds_matches_fresh_solve_fd(self, bump3):
        h = 1e-5
        for s in (0.4, 2.0, 4.5):
            cm = solve_flotation_chord(bump3, s, 0.8)
            tp = solve_flotation_chord(bump3, s + h, 0.8).t[0]
            tm = solve_flotation_chord(bump3, s - h, 0.8).t[0]
            assert (tp - tm) / (2 * h) == pytest.approx(cm.dt_ds[0], rel=1e-6)


class TestSolveSilhouette:
    def test_circle_known_delta_hat(self, unit_circle):
        cm = solve_silhouette_chord(unit_circle, 0.77, DELTA_HAT)
        assert cm.t[0] - cm.s[0] == pytest.approx(2 * THETA, abs=1e-11)
        assert cm.dt_ds[0] == pytest.approx(1.0, abs=1e-10)

    def test_apex_distance(self, unit_circle):
        cm = solve_silhouette_chord(unit_circle, 0.0, DELTA_HAT)
        assert np.linalg.norm(cm.z[0]) == pytest.approx(1.0 / math.cos(THETA), abs=1e-11)

    def test_dt_ds_matches_fresh_solve_fd(self, bump3):
        h = 1e-5
        for s in (0.4, 2.0, 4.5):
            cm = solve_silhouette_chord(bump3, s, 0.8)
            tp = solve_silhouette_chord(bump3, s + h, 0.8).t[0]
            tm = solve_silhouette_chord(bump3, s - h, 0.8).t[0]
            assert (tp - tm) / (2 * h) == pytest.approx(cm.dt_ds[0], rel=1e-6)

    def test_dt_ds_fd_on_ellipse(self, ellipse21):
        h = 1e-5
        cm = solve_silhouette_chord(ellipse21, 0.4, 1.0)
        tp = solve_silhouette_chord(ellipse21, 0.4 + h, 1.0).t[0]
        tm = solve_silhouette_chord(ellipse21, 0.4 - h, 1.0).t[0]
        assert (tp - tm) / (2 * h) == pytest.approx(cm.dt_ds[0], rel=1e-6)

    def test_antipodal_limit(self, unit_circle):
        assert antipodal_tangent_param(unit_circle, 0.4) == pytest.approx(0.4 + math.pi, abs=1e-10)

    def test_unreachable_delta_hat(self, unit_circle):
        with pytest.raises((SolverError, DomainError)):
            solve_silhouette_chord(unit_circle, 0.0, -1.0)


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
            image = apply_affine(unit_circle, frame)
            # unimodular: same delta cuts the same chords
            image_chords = sweep(image, FLOTATION, DELTA, 32)
            assert np.allclose(image_chords.x, frame.apply(chords.x), atol=1e-8)
            assert np.allclose(image_chords.y, frame.apply(chords.y), atol=1e-8)

    def test_degenerate_half_area_sweep_succeeds(self, unit_circle):
        chords = sweep(unit_circle, FLOTATION, math.pi / 2, 32)
        assert not chords.apex.any() and np.all(np.isnan(chords.z))
        assert np.all(np.isinf(chords.affine_norm_c))


class TestLaneSweep:
    """A sweep solves all of its chords in one lane-wise Newton iteration."""

    @pytest.mark.parametrize("kind", [FLOTATION, ILLUMINATION])
    def test_derivative_calls_per_sweep(self, monkeypatch, kind):
        # deterministic work counter: one chord at a time took about 3.3k
        # (flotation) and 11.5k (illumination) curve calls for this sweep
        calls = 0
        derivative = Ellipse.derivative

        def counting(curve, s, order):
            nonlocal calls
            calls += 1
            return derivative(curve, s, order)

        monkeypatch.setattr(Ellipse, "derivative", counting)
        chords = sweep(Ellipse(2.0, 1.0), kind, 1.0, 256)
        assert len(chords) == 256
        assert calls <= 150

    def test_flat_point_lanes_match_one_lane_solves(self, bump3):
        # lanes whose tangent is still parallel at s + 1e-9 period: next to the
        # flat points the cone residual must read -delta_hat, not +inf
        period = bump3.period
        chords = sweep(bump3, ILLUMINATION, 0.8, 256)
        s = chords.s
        d1, d2 = bump3.derivative(s, 1), bump3.derivative(s + 1e-9 * period, 1)
        flat = np.nonzero(np.abs(det2(d1, d2)) <= 1e-10 * norm2(d1) * norm2(d2))[0]
        assert len(flat) >= 3
        for i in flat:
            assert abs(chords.t[i] - solve_silhouette_chord(bump3, s[i], 0.8).t[0]) < 1e-12

    def test_unreachable_lane_raises(self):
        # the largest cone area below t_par differs by lane on a non-conic body;
        # a delta_hat between the smallest and the largest is out of reach in some lanes only
        body = FourierRadial(1.0, (0.0, 0.1))
        period = body.period
        s = np.arange(16) * (period / 16)
        top = cone_area(body, s, antipodal_tangent_param(body, s) - 1e-9 * period)
        assert top.max() > 1.2 * top.min()
        assert len(sweep(body, ILLUMINATION, 0.5 * top.min(), 16)) == 16
        with pytest.raises(SolverError, match="not reachable"):
            sweep(body, ILLUMINATION, math.sqrt(top.min() * top.max()), 16)

    @pytest.mark.parametrize("body, max_rounds", [("bump3", 12), ("ellipse21", 4)])
    def test_antipode_rounds(self, request, monkeypatch, body, max_rounds):
        # t_par stops at the rounding level of det(g'(s), g'(t)); with f_tol = 0
        # the lanes whose antipode is a flat point of bump3 took 63 rounds
        curve = request.getfixturevalue(body)
        evaluations = 0

        def counting(f, *args, **kwargs):
            def counted(t):
                nonlocal evaluations
                evaluations += 1
                return f(t)

            return bracketed_newton(counted, *args, **kwargs)

        monkeypatch.setattr(chord_module, "bracketed_newton", counting)
        antipodal_tangent_param(curve, np.arange(256) * (curve.period / 256))
        # two evaluations are the bracket ends, each round is one more
        assert evaluations - 2 <= max_rounds

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
