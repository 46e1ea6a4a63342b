import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flotilla.chord import FLOTATION, ILLUMINATION, solve_flotation_chord, sweep
from flotilla.curve import Ellipse, SampledPeriodic, affine_normal, area, det2
from flotilla.errors import DomainError
from flotilla.floatgeom import buoyancy_point, flotation_point
from flotilla.homothety import (
    ConstancyReport,
    affine_cut_length_report,
    affine_cut_lengths,
    affine_cut_rate,
    build_carousel,
    chord_cube_report,
    duality_parameters,
    duality_pointwise_check,
    endpoint_balance_residual,
    fit_homothety,
    hausdorff_distance,
    intersection_body_polar,
    petty_condition_report,
    proper_affine_sphere_residual,
    radon_check,
    solve_carousel_delta,
    carousel_diagnostics,
)

from oracles import (
    circle_cone_area,
    circle_segment_area,
    circle_segment_centroid_distance,
    circle_tangent_triangle_area,
    incremental_cut_lengths,
)

TWO_PI = 2.0 * math.pi
THETA = math.pi / 3
DELTA = circle_segment_area(THETA)
# oracle: ratio of the cap-centroid circle to the chord-midpoint circle
LAMBDA_CIRCLE = circle_segment_centroid_distance(THETA) / math.cos(THETA)


def circle_points(radius, n=128, center=(0.0, 0.0)):
    s = np.arange(n) * (TWO_PI / n)
    return np.stack([center[0] + radius * np.cos(s), center[1] + radius * np.sin(s)], axis=-1)


class TestConstancyReport:
    def test_constant_values(self):
        rep = ConstancyReport.from_values([2.0, 2.0, 2.0])
        assert rep.mean == 2.0
        assert rep.coefficient_of_variation == 0.0
        assert rep.max_abs_deviation == 0.0

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    def test_cv_and_deviation_nonnegative(self, values):
        rep = ConstancyReport.from_values(values)
        assert rep.coefficient_of_variation >= 0.0
        assert rep.max_abs_deviation >= 0.0


class TestFitHomothety:
    def test_concentric_circles(self):
        inner = circle_points(math.cos(THETA))
        outer = circle_points(circle_segment_centroid_distance(THETA))
        fit = fit_homothety(inner, outer)
        assert np.allclose(fit.center, 0.0, atol=1e-12)
        assert fit.ratio == pytest.approx(LAMBDA_CIRCLE, rel=1e-12)
        assert fit.rms_residual < 1e-12
        assert fit.matched

    def test_identical_curves(self):
        pts = circle_points(1.0)
        fit = fit_homothety(pts, pts)
        assert fit.ratio == 1.0
        assert fit.rms_residual == 0.0
        assert fit.is_translation  # ratio 1: dilation center is ill-posed

    def test_translation_mode(self):
        pts = circle_points(1.0)
        shifted = pts + np.array([0.4, -0.2])
        fit = fit_homothety(pts, shifted)
        assert fit.ratio == pytest.approx(1.0, abs=1e-12)
        assert fit.is_translation
        assert np.allclose(fit.translation, [0.4, -0.2], atol=1e-12)
        assert fit.matched

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            fit_homothety(circle_points(1.0, n=2), circle_points(2.0, n=2))

    def test_residual_scales_like_length_under_similarities(self, bump3):
        # a genuinely non-homothetic pair so the residual is nonzero
        chords = sweep(bump3, FLOTATION, 0.8, 64)
        a = flotation_point(chords).points
        b = buoyancy_point(chords, 0.8).points
        base = fit_homothety(a, b).rms_residual
        phi, scale = 0.83, 1.7
        rot = scale * np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        shift = np.array([0.4, -1.1])
        fit = fit_homothety(a @ rot.T + shift, b @ rot.T + shift)
        # |det| = scale^2, so lengths (and the rms residual) scale by scale
        assert fit.rms_residual == pytest.approx(scale * base, rel=1e-9)


class TestChordCube:
    def test_circle_constancy_and_lambda(self, unit_circle):
        report, lam = chord_cube_report(unit_circle, DELTA, FLOTATION, n_samples=128)
        assert report.mean == pytest.approx(8.0 * circle_tangent_triangle_area(THETA), rel=1e-11)
        assert report.coefficient_of_variation < 1e-10
        assert lam == pytest.approx(LAMBDA_CIRCLE, rel=1e-10)

    def test_lambda_matches_homothety_fit(self, unit_circle):
        chords = sweep(unit_circle, FLOTATION, DELTA, 128)
        _, lam = chord_cube_report(unit_circle, DELTA, FLOTATION, chords=chords)
        fit = fit_homothety(flotation_point(chords), buoyancy_point(chords, DELTA))
        assert fit.ratio == pytest.approx(lam, abs=1e-6)

    def test_ellipse_affine_invariance(self, ellipse21):
        report, _ = chord_cube_report(ellipse21, 1.3, FLOTATION, n_samples=128)
        assert report.coefficient_of_variation < 1e-8

    def test_perturbed_circle_fails(self, bump3):
        report, _ = chord_cube_report(bump3, 0.8, FLOTATION, n_samples=512)
        assert report.coefficient_of_variation > 1e-3
        # frozen regression from the first verified run
        assert report.coefficient_of_variation == pytest.approx(0.4072766058632894, rel=1e-6)

    def test_sampled_kind_full_pipeline(self):
        # spectral curve kind through solves, sweeps and the constancy report
        s = np.arange(256) * (TWO_PI / 256)
        pts = np.stack([np.cos(s), np.sin(s)], axis=-1)
        from flotilla.curve import SampledPeriodic

        sampled = SampledPeriodic(pts)
        report, lam = chord_cube_report(sampled, DELTA, FLOTATION, n_samples=64)
        assert report.coefficient_of_variation < 1e-4  # sampled-kind threshold
        assert lam == pytest.approx(LAMBDA_CIRCLE, rel=1e-6)
        chords = sweep(sampled, FLOTATION, DELTA, 64)
        r1 = flotation_point(chords).points
        assert np.max(np.abs(np.linalg.norm(r1, axis=1) - math.cos(THETA))) < 1e-9

    def test_illumination_ratio_less_than_one(self, unit_circle):
        delta_hat = circle_cone_area(THETA)
        report, lam_hat = chord_cube_report(unit_circle, delta_hat, ILLUMINATION, n_samples=128)
        assert report.coefficient_of_variation < 1e-9
        assert lam_hat == pytest.approx(LAMBDA_CIRCLE / (3 * LAMBDA_CIRCLE - 2), rel=1e-9)
        assert lam_hat < 1.0


class TestDuality:
    def test_circle_parameters(self):
        delta_hat, lam_hat = duality_parameters(DELTA, LAMBDA_CIRCLE)
        assert delta_hat == pytest.approx(circle_cone_area(THETA), rel=1e-10)
        assert lam_hat == pytest.approx(0.6322707789, rel=1e-9)
        # both scalar relations of the dual pair
        assert 1.0 / (delta_hat * lam_hat) == pytest.approx(2.0 / (DELTA * LAMBDA_CIRCLE), rel=1e-9)
        assert 1.0 / lam_hat + 2.0 / LAMBDA_CIRCLE == pytest.approx(3.0, rel=1e-12)

    def test_ratio_one_degenerates_to_half(self):
        delta_hat, lam_hat = duality_parameters(0.8, 1.0)
        assert delta_hat == pytest.approx(0.4, rel=1e-14)
        assert lam_hat == pytest.approx(1.0, rel=1e-14)

    def test_small_ratio_rejected(self):
        with pytest.raises(DomainError):
            duality_parameters(0.5, 0.6)

    def test_round_trip_through_illumination_sweep(self, unit_circle):
        _, lam = chord_cube_report(unit_circle, DELTA, FLOTATION, n_samples=128)
        delta_hat, lam_hat = duality_parameters(DELTA, lam)
        _, lam_hat_swept = chord_cube_report(unit_circle, delta_hat, ILLUMINATION, n_samples=128)
        assert lam_hat_swept == pytest.approx(lam_hat, abs=1e-8)

    def test_pointwise_circle(self, unit_circle):
        err, skipped = duality_pointwise_check(unit_circle, DELTA, n_samples=64)
        assert err < 1e-8
        assert skipped == 0

    def test_pointwise_ellipse(self, ellipse21):
        err, skipped = duality_pointwise_check(ellipse21, 1.0, n_samples=64)
        assert err < 1e-7

    def test_pointwise_out_of_regime_is_informative(self, bump3):
        # non-homothetic body: the mismatch is reported, not asserted against
        err, skipped = duality_pointwise_check(bump3, 0.8, n_samples=32)
        assert err > 1e-3
        assert skipped == 0

    @settings(deadline=None, max_examples=40)
    @given(delta=st.floats(0.05, 2.0), lam=st.floats(0.7, 3.0))
    def test_parameter_relations_always_consistent(self, delta, lam):
        delta_hat, lam_hat = duality_parameters(delta, lam)
        assert 1.0 / lam_hat + 2.0 / lam == pytest.approx(3.0, rel=1e-10)
        assert delta_hat * lam_hat == pytest.approx(delta * lam / 2.0, rel=1e-10)


class TestEndpointBalance:
    def test_circle_vanishes(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.9, DELTA)
        assert abs(endpoint_balance_residual(cm)[0]) < 1e-12

    def test_ellipse_vanishes(self, ellipse21):
        assert np.all(np.abs(endpoint_balance_residual(sweep(ellipse21, FLOTATION, 1.0, 32))) < 1e-9)

    def test_perturbed_circle_probes(self, bump3):
        probes = [0.3, 0.6, 1.5, 1.9, 2.5, 2.9, 3.6, 4.0, 4.6, 5.0, 5.7, 6.1]
        worst = max(abs(endpoint_balance_residual(solve_flotation_chord(bump3, s, 0.8))[0]) for s in probes)
        assert worst > 1e-3
        # frozen regression of the normalised form (20.2554337665353 before normalisation)
        assert worst == pytest.approx(0.9332652899078068, rel=1e-6)


    def test_normalised_on_flat_points(self, bump3, ellipse21):
        # sin^3/k blew up at bump3's flat points (9.9e31); the normalised form lies in [-2, 2]
        worst = float(np.max(np.abs(endpoint_balance_residual(sweep(bump3, FLOTATION, 0.8, 256)))))
        assert math.isfinite(worst) and 1e-3 < worst <= 2.0
        assert np.max(np.abs(endpoint_balance_residual(sweep(ellipse21, FLOTATION, 1.0, 256)))) < 1e-8


class TestCutLength:
    def test_circle_third(self, unit_circle):
        rep = affine_cut_length_report(unit_circle, DELTA, n_samples=64)
        assert rep.mean == pytest.approx(2.0 * THETA, rel=1e-10)
        assert rep.coefficient_of_variation < 1e-10

    def test_ellipse_covariant_value(self, ellipse21):
        rep = affine_cut_length_report(ellipse21, 2 * DELTA, n_samples=64)
        assert rep.mean == pytest.approx(2.0 * THETA * 2.0 ** (1.0 / 3.0), rel=1e-10)
        assert rep.coefficient_of_variation < 1e-10

    @pytest.mark.parametrize("body", ["ellipse21", "bump3", "sampled"])
    def test_one_pass_matches_incremental_integrals(self, request, body):
        if body == "sampled":
            u = np.arange(64) * (TWO_PI / 64)
            r = 1.0 + 0.02 * np.cos(2 * u) + 0.01 * np.sin(3 * u)
            curve = SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))
        else:
            curve = request.getfixturevalue(body)
        chords = sweep(curve, FLOTATION, 0.25 * area(curve), 256)
        one_pass = affine_cut_lengths(curve, chords)
        reference = incremental_cut_lengths(curve, chords)
        assert np.max(np.abs(one_pass - reference) / np.abs(reference)) < 1e-10

    def test_rate_identity_against_fresh_solve_fd(self, ellipse21, bump3):
        from flotilla.curve import affine_arclength

        h = 1e-4
        cases = [(ellipse21, 1.0, (0.4, 2.2)), (bump3, 0.8, (0.45, 1.9, 2.6, 5.2))]
        for curve, delta, probes in cases:
            for s in probes:
                cm = solve_flotation_chord(curve, s, delta)
                cp = solve_flotation_chord(curve, s + h, delta)
                cmm = solve_flotation_chord(curve, s - h, delta)
                fd = (
                    affine_arclength(curve, cp.s[0], cp.t[0], rel_tol=1e-11)
                    - affine_arclength(curve, cmm.s[0], cmm.t[0], rel_tol=1e-11)
                ) / (2 * h)
                assert fd == pytest.approx(affine_cut_rate(cm)[0], abs=1e-6)

    def test_rate_sign_matches_endpoint_balance_residual(self, bump3):
        probes = [0.45, 1.9, 2.6, 5.2, 0.3, 4.0]
        for s in probes:
            cm = solve_flotation_chord(bump3, s, 0.8)
            rate = affine_cut_rate(cm)[0]
            resid = endpoint_balance_residual(cm)[0]
            if abs(resid) > 1e-10:
                # both are odd in (sin(a)/k(s)^(1/3) - sin(b)/k(t)^(1/3))
                assert rate * resid > 0.0


class TestAffineSphere:
    def test_ellipse_normals_meet_at_center(self):
        ell = Ellipse(2.0, 1.0, center=(0.7, -0.1))
        grid = np.arange(128) * (TWO_PI / 128)
        fit = proper_affine_sphere_residual(
            ell.derivative(grid, 0), affine_normal(ell, grid)
        )
        assert np.allclose(fit.point, [0.7, -0.1], atol=1e-8)
        assert fit.rms_distance < 1e-8
        assert fit.well_conditioned

    def test_circle_buoyancy_curve(self, unit_circle):
        from flotilla.floatgeom import buoyancy_affine_normal

        chords = sweep(unit_circle, FLOTATION, DELTA, 32)
        pts = buoyancy_point(chords, DELTA).points
        normals = buoyancy_affine_normal(chords, DELTA)
        fit = proper_affine_sphere_residual(pts, normals)
        assert np.allclose(fit.point, 0.0, atol=1e-9)
        assert fit.rms_distance < 1e-9

    def test_perturbed_circle_is_not_a_sphere(self, bump3):
        grid = 0.05 + np.arange(128) * (TWO_PI / 128)  # avoid the exact flat points
        pts = bump3.derivative(grid, 0)
        fit = proper_affine_sphere_residual(pts, affine_normal(bump3, grid))
        diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        assert fit.rms_distance > 1e-3 * diameter
        assert fit.rms_distance == pytest.approx(0.5437203894288876, rel=1e-6)  # frozen


class TestPetty:
    def test_unit_circle(self, unit_circle):
        rep = petty_condition_report(unit_circle)
        assert rep.mean == pytest.approx(1.0, rel=1e-14)
        assert rep.coefficient_of_variation < 1e-12

    def test_centered_ellipse_conic_value(self, ellipse21):
        rep = petty_condition_report(ellipse21)
        assert rep.mean == pytest.approx(4.0, rel=1e-12)  # (ab)^2
        assert rep.coefficient_of_variation < 1e-10

    def test_translated_circle_is_origin_sensitive(self):
        rep = petty_condition_report(Ellipse(1.0, 1.0, center=(0.3, 0.0)))
        assert rep.coefficient_of_variation > 1e-2
        assert rep.coefficient_of_variation == pytest.approx(0.5794687014960402, rel=1e-6)


class TestIntersectionBodyPolar:
    def test_circle_maps_to_half_radius(self, unit_circle):
        dual = intersection_body_polar(unit_circle)
        radii = np.linalg.norm(dual.points, axis=1)
        assert np.max(np.abs(radii - 0.5)) < 1e-12

    def test_ellipse_axes_swap(self, ellipse21):
        dual = intersection_body_polar(ellipse21)
        assert dual.points[:, 0].max() == pytest.approx(0.5, rel=1e-12)
        assert dual.points[:, 1].max() == pytest.approx(0.25, rel=1e-12)

    def test_tangent_parallel_to_position(self, sym_cos2):
        dual = intersection_body_polar(sym_cos2)
        for s in np.linspace(0, TWO_PI, 32, endpoint=False):
            tangent = dual.derivative(s, 1)
            position = sym_cos2.derivative(s, 0)
            resid = abs(det2(tangent, position)) / (
                np.linalg.norm(tangent) * np.linalg.norm(position)
            )
            assert resid < 1e-9

    def test_asymmetric_input_rejected(self, bump3):
        with pytest.raises(DomainError):
            intersection_body_polar(bump3)


class TestRadon:
    def test_circle(self, unit_circle):
        assert radon_check(unit_circle, 64) < 1e-12

    def test_centered_ellipse(self, ellipse21):
        assert radon_check(ellipse21, 64) < 1e-9

    def test_symmetric_non_radon_curve(self, sym_cos4):
        value = radon_check(sym_cos4, 256)
        assert value > 1e-3
        assert value == pytest.approx(0.36128701327095314, rel=1e-6)  # frozen

    def test_asymmetric_rejected(self, bump3):
        with pytest.raises(DomainError):
            radon_check(bump3, 32)


class TestCarousel:
    def test_circle_three_chairs(self, unit_circle):
        delta_star = solve_carousel_delta(unit_circle, 1, 3)
        assert delta_star == pytest.approx(DELTA, abs=1e-9)
        car = build_carousel(unit_circle, 1, 3, delta_star)
        assert abs(car.closure_defect) < 1e-10
        verts = np.array([unit_circle.derivative(t, 0) for t in car.vertices[:3]])
        sides = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        assert np.max(np.abs(sides - math.sqrt(3.0))) < 1e-9  # equilateral

    def test_circle_four_chairs(self, unit_circle):
        delta_star = solve_carousel_delta(unit_circle, 1, 4)
        assert delta_star == pytest.approx(math.pi / 4.0 - 0.5, abs=1e-9)
        car = build_carousel(unit_circle, 1, 4, delta_star)
        verts = np.array([unit_circle.derivative(t, 0) for t in car.vertices[:4]])
        sides = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        assert np.max(np.abs(sides - math.sqrt(2.0))) < 1e-9  # square

    def test_defect_monotone_in_delta(self, unit_circle):
        deltas = [0.4, 0.5, DELTA, 0.7, 0.8]
        defects = [build_carousel(unit_circle, 1, 3, d).closure_defect for d in deltas]
        assert np.all(np.diff(defects) > 0.0)
        assert defects[0] < 0.0 < defects[-1]

    def test_ellipse_delta_scales_with_area(self, ellipse21):
        delta_star = solve_carousel_delta(ellipse21, 1, 3)
        assert delta_star == pytest.approx(2.0 * DELTA, abs=2e-9)

    def test_pentagram_density(self, unit_circle):
        # density 2/5: the chain winds twice before closing
        theta = 2.0 * math.pi / 5.0
        expected = circle_segment_area(theta)
        delta_star = solve_carousel_delta(unit_circle, 2, 5)
        assert delta_star == pytest.approx(expected, abs=1e-9)
        car = build_carousel(unit_circle, 2, 5, delta_star)
        assert car.vertices[-1] - car.vertices[0] == pytest.approx(2 * TWO_PI, abs=1e-10)

    def test_invalid_pq(self, unit_circle):
        with pytest.raises(DomainError):
            build_carousel(unit_circle, 3, 3, DELTA)

    def test_carousel_diag_circle(self, unit_circle):
        diag = carousel_diagnostics(unit_circle, DELTA, n_samples=16)
        assert diag.lambda_report.max_abs_deviation < 1e-8
        assert abs(diag.lambda_report.mean - 1.0) < 1e-9
        assert diag.centroid_drift_max < 1e-9
        assert diag.lambda_product_max_dev < 1e-8
        assert diag.medial_residual_max < 1e-8

    def test_carousel_diag_ellipse(self, ellipse21):
        delta_star = solve_carousel_delta(ellipse21, 1, 3)
        diag = carousel_diagnostics(ellipse21, delta_star, n_samples=16)
        assert diag.lambda_report.max_abs_deviation < 1e-8
        assert diag.centroid_drift_max < 1e-8

    def test_lambda_product_breaks_without_endpoint_balance(self, bump3):
        # three-fold symmetric body: the chain closes but the ratios are not 1
        delta_star = solve_carousel_delta(bump3, 1, 3, s0=0.3)
        car = build_carousel(bump3, 1, 3, delta_star, s0=0.3)
        product = car.lambdas[0] * car.lambdas[1] * car.lambdas[2]
        assert abs(product - 1.0) > 0.1

    @pytest.mark.parametrize("body, s0, delta", [("ellipse21", 0.0, 1.2), ("bump3", 0.3, 0.6)])
    def test_defect_slope_matches_central_difference(self, request, body, s0, delta):
        curve = request.getfixturevalue(body)
        car = build_carousel(curve, 1, 3, delta, s0=s0)
        h = 1e-5
        plus = build_carousel(curve, 1, 3, delta + h, s0=s0).closure_defect
        minus = build_carousel(curve, 1, 3, delta - h, s0=s0).closure_defect
        assert car.defect_slope == pytest.approx((plus - minus) / (2.0 * h), rel=1e-8)

    def test_diagnostics_lanes_match_single_chains(self, bump3):
        # the carousel closes from s0 = 0 but not from other starts
        delta_star = solve_carousel_delta(bump3, 1, 3)
        diag = carousel_diagnostics(bump3, delta_star, n_samples=8)
        chains = [build_carousel(bump3, 1, 3, delta_star, s0=s0) for s0 in np.arange(8) * (TWO_PI / 8)]
        assert diag.closure_defect_max == pytest.approx(max(abs(c.closure_defect) for c in chains), rel=1e-9)
        assert diag.closure_defect_max > 1e-2
        lambdas = [lam for c in chains for lam in c.lambdas]
        assert diag.lambda_report.mean == pytest.approx(np.mean(lambdas), rel=1e-12)
        assert diag.lambda_report.coefficient_of_variation == pytest.approx(np.std(lambdas) / np.mean(lambdas), rel=1e-9)

    def test_wrong_delta_does_not_close(self, unit_circle):
        car = build_carousel(unit_circle, 1, 3, 0.5)
        assert car.closure_defect < -1e-3
        # a carousel that does not close is a measured defect, not an error
        diag = carousel_diagnostics(unit_circle, 0.5, n_samples=16)
        assert diag.closure_defect_max == pytest.approx(abs(car.closure_defect), rel=1e-9)


class TestHausdorff:
    def test_identical_sets(self):
        pts = circle_points(1.0)
        assert hausdorff_distance(pts, pts) == 0.0

    def test_concentric_circles(self):
        a = circle_points(1.0, n=4096)
        b = circle_points(0.9, n=4096)
        assert hausdorff_distance(a, b) == pytest.approx(0.1, abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            hausdorff_distance([], circle_points(1.0))

    def test_scaled_flotation_converges_to_polar_dual(self, unit_circle):
        dual = intersection_body_polar(unit_circle, n_samples=512)
        dists = []
        for eps in (0.1, 0.05, 0.025):
            chords = sweep(unit_circle, FLOTATION, math.pi / 2.0 - eps, 512)
            pts = 0.5 * (chords.x + chords.y) / eps
            dists.append(hausdorff_distance(pts, dual.points))
        assert dists[0] > dists[1] > dists[2]
