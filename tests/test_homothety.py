import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flotilla.homothety as homothety_module
from flotilla.cli import CHECKS, compute_bundle, main
from flotilla.chord import FLOTATION, ILLUMINATION, chains, sweep
from flotilla.curve import (
    PERIOD,
    AffineFrame,
    AffineImage,
    Ellipse,
    FourierRadial,
    SampledPeriodic,
    area,
    curve_from_json,
    det2,
    norm2,
)
from flotilla.errors import DomainError
from flotilla.floatgeom import buoyancy_point, flotation_point
from flotilla.homothety import (
    ConstancyReport,
    affine_cut_length_report,
    affine_cut_lengths,
    affine_sphere_residual,
    build_carousel,
    chord_cube_report,
    duality_parameters,
    duality_pointwise_check,
    endpoint_balance_residual,
    fit_homothety,
    proper_affine_sphere_residual,
    radon_check,
)

from limit_convergence import hausdorff_distance, intersection_body_polar
from oracles import (
    affine_arclength,
    affine_cut_rate,
    affine_normal,
    buoyancy_affine_normal,
    circle_cone_area,
    circle_segment_area,
    circle_segment_centroid_distance,
    circle_tangent_triangle_area,
    incremental_cut_lengths,
    petty_condition_report,
    solve_flotation_chord,
)

TWO_PI = 2.0 * math.pi
# every p/q in lowest terms with q <= 8
LOWEST_TERMS = [(p, q) for q in range(2, 9) for p in range(1, q) if math.gcd(p, q) == 1]
AFFINE_ELLIPSE = AffineImage(Ellipse(2.0, 1.0), AffineFrame([[1.3, 0.4], [-0.2, 0.9]], (0.5, -0.3)))
THETA = math.pi / 3
DELTA = circle_segment_area(THETA)
# oracle: ratio of the cap-centroid circle to the chord-midpoint circle
LAMBDA_CIRCLE = circle_segment_centroid_distance(THETA) / math.cos(THETA)


def dual_sweeps(curve, delta, n_samples):
    """The flotation sweep and the illumination sweep at its dual cone area, from cli.compute_bundle.

    Out of the homothetic regime the bundle has no illumination sweep; the
    dual cone area then comes from the mean implied ratio, and the chord cube
    raises DomainError where a chord has no apex.
    """
    bundle = compute_bundle(curve, delta, n_samples)
    if bundle.illum_chords is None:
        _, lam = chord_cube_report(bundle.chords)
        bundle = compute_bundle(curve, delta, n_samples, duality_parameters(delta, lam)[0])
    return bundle.chords, bundle.illum_chords


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
        b = buoyancy_point(chords).points
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
        report, lam = chord_cube_report(sweep(unit_circle, FLOTATION, DELTA, 128))
        assert report.mean == pytest.approx(8.0 * circle_tangent_triangle_area(THETA), rel=1e-11)
        assert report.coefficient_of_variation < 1e-10
        assert lam == pytest.approx(LAMBDA_CIRCLE, rel=1e-10)

    def test_lambda_matches_homothety_fit(self, unit_circle):
        chords = sweep(unit_circle, FLOTATION, DELTA, 128)
        _, lam = chord_cube_report(chords)
        fit = fit_homothety(flotation_point(chords).points, buoyancy_point(chords).points)
        assert fit.ratio == pytest.approx(lam, abs=1e-6)

    def test_ellipse_affine_invariance(self, ellipse21):
        report, _ = chord_cube_report(sweep(ellipse21, FLOTATION, 1.3, 128))
        assert report.coefficient_of_variation < 1e-8

    def test_perturbed_circle_fails(self, bump3):
        report, _ = chord_cube_report(sweep(bump3, FLOTATION, 0.8, 512))
        assert report.coefficient_of_variation > 1e-3
        # frozen regression from the first verified run
        assert report.coefficient_of_variation == pytest.approx(0.4072766058632894, rel=1e-6)

    def test_sampled_kind_full_pipeline(self):
        # spectral curve kind through solves, sweeps and the constancy report
        s = np.arange(256) * (TWO_PI / 256)
        pts = np.stack([np.cos(s), np.sin(s)], axis=-1)
        from flotilla.curve import SampledPeriodic

        sampled = SampledPeriodic(pts)
        report, lam = chord_cube_report(sweep(sampled, FLOTATION, DELTA, 64))
        assert report.coefficient_of_variation < 1e-6  # exact samples resolve the circle: the analytic threshold
        assert lam == pytest.approx(LAMBDA_CIRCLE, rel=1e-6)
        chords = sweep(sampled, FLOTATION, DELTA, 64)
        r1 = flotation_point(chords).points
        assert np.max(np.abs(np.linalg.norm(r1, axis=1) - math.cos(THETA))) < 1e-9

    def test_illumination_ratio_less_than_one(self, unit_circle):
        delta_hat = circle_cone_area(THETA)
        report, lam_hat = chord_cube_report(sweep(unit_circle, ILLUMINATION, delta_hat, 128))
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

    @settings(deadline=None, max_examples=50)
    @given(delta=st.floats(1e-6, 1e6), lam=st.floats(0.67, 1e3))
    def test_product_relation_holds_identically(self, delta, lam):
        # delta_hat lam_hat = (3 lam / 2 - 1) delta lam / (3 lam - 2) = delta lam / 2
        delta_hat, lam_hat = duality_parameters(delta, lam)
        assert delta_hat * lam_hat == pytest.approx(0.5 * delta * lam, rel=1e-12)

    def test_ratio_one_degenerates_to_half(self):
        delta_hat, lam_hat = duality_parameters(0.8, 1.0)
        assert delta_hat == pytest.approx(0.4, rel=1e-14)
        assert lam_hat == pytest.approx(1.0, rel=1e-14)

    def test_small_ratio_rejected(self):
        with pytest.raises(DomainError):
            duality_parameters(0.5, 0.6)

    def test_round_trip_through_illumination_sweep(self, unit_circle):
        _, lam = chord_cube_report(sweep(unit_circle, FLOTATION, DELTA, 128))
        delta_hat, lam_hat = duality_parameters(DELTA, lam)
        _, lam_hat_swept = chord_cube_report(sweep(unit_circle, ILLUMINATION, delta_hat, 128))
        assert lam_hat_swept == pytest.approx(lam_hat, abs=1e-8)

    def test_pointwise_circle(self, unit_circle):
        err, skipped = duality_pointwise_check(*dual_sweeps(unit_circle, DELTA, 64))
        assert err < 1e-8
        assert skipped == 0

    def test_pointwise_ellipse(self, ellipse21):
        err, skipped = duality_pointwise_check(*dual_sweeps(ellipse21, 1.0, 64))
        assert err < 1e-7

    def test_no_apex_lanes_raise(self, unit_circle):
        # every half-area chord of a circle is a diameter: the affine chord
        # length is infinite, so there is no mean and no implied ratio
        with pytest.raises(DomainError, match="parallel end tangents"):
            chord_cube_report(sweep(unit_circle, FLOTATION, math.pi / 2, 64))
        with pytest.raises(DomainError, match="parallel end tangents"):
            duality_pointwise_check(*dual_sweeps(unit_circle, math.pi / 2, 64))

    def test_pointwise_out_of_regime_is_informative(self, bump3):
        # non-homothetic body: the mismatch is reported, not asserted against
        err, skipped = duality_pointwise_check(*dual_sweeps(bump3, 0.8, 32))
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
        rep = affine_cut_length_report(sweep(unit_circle, FLOTATION, DELTA, 64))
        assert rep.mean == pytest.approx(2.0 * THETA, rel=1e-10)
        assert rep.coefficient_of_variation < 1e-10

    def test_ellipse_covariant_value(self, ellipse21):
        rep = affine_cut_length_report(sweep(ellipse21, FLOTATION, 2 * DELTA, 64))
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
        one_pass = affine_cut_lengths(chords)
        reference = incremental_cut_lengths(curve, chords)
        assert np.max(np.abs(one_pass - reference) / np.abs(reference)) < 1e-10

    def test_mean_cut_fraction_on_bump3(self, bump3):
        # the mean cut over the affine perimeter, both from the curve's table,
        # against 2n - 1 separate integrals over one more for the perimeter
        chords = sweep(bump3, FLOTATION, 0.8, 256)
        record = CHECKS["cut_length"](SimpleNamespace(chords=chords))
        reference = incremental_cut_lengths(bump3, chords).mean() / affine_arclength(bump3, 0.0, TWO_PI)
        assert record["mean_cut_fraction"] == pytest.approx(0.3706, abs=1e-4)
        assert abs(record["mean_cut_fraction"] - reference) <= 1e-10

    def test_rate_identity_against_fresh_solve_fd(self, ellipse21, bump3):
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


def test_endpoint_balance_fails_wherever_cut_length_fails():
    # the cut's s-derivative vanishes exactly where the endpoint balance does
    # (affine_cut_rate), so a cut that is not constant has an unbalanced chord,
    # and endpoint_balance's statistic dominates cut_length's. On the 36 rows
    # of r = 1 + eps cos ks, 17 fail cut_length and 29 endpoint_balance; with
    # bump3's flat points and two affine images, one reflecting, 26 and 38 of 48.
    # The smallest ratio of the two statistics is 17.0, on bump3
    bodies = {
        f"k={k}, eps={eps:g}": FourierRadial(1.0, [0.0] * (k - 1) + [eps])
        for k in range(2, 6)
        for eps in (1e-3, 1e-5, 1e-7)
    }
    bodies["bump3"] = FourierRadial(1.0, (0.0, 0.0, 0.1))
    frame = AffineFrame([[1.3, 0.4], [0.1, 0.8]], (0.2, -0.5))
    bodies["image of k=4, eps=1e-05"] = AffineImage(bodies["k=4, eps=1e-05"], frame)
    reflection = AffineFrame([[0.9, 0.3], [0.2, -1.1]], (0.4, 0.1))
    bodies["reflected r = 1 + 0.05 cos 3s"] = AffineImage(FourierRadial(1.0, (0.0, 0.0, 0.05)), reflection)
    cut_fails, missed, ratios = [], [], []
    for name, curve in bodies.items():
        for f in (0.1, 0.2795, 0.45):
            bundle = SimpleNamespace(chords=sweep(curve, FLOTATION, f * area(curve), 256))
            cut = CHECKS["cut_length"](bundle)
            balance = CHECKS["endpoint_balance"](bundle)
            ratios.append(balance["value"] / cut["value"])
            if cut["status"] == "fail":
                cut_fails.append((name, f))
                if balance["status"] != "fail":
                    missed.append((name, f))
    assert len(cut_fails) == 26
    assert ("bump3", 0.2795) in cut_fails and ("reflected r = 1 + 0.05 cos 3s", 0.1) in cut_fails
    assert missed == []
    assert min(ratios) >= 10.0


class TestAffineSphere:
    def test_ellipse_normals_meet_at_center(self):
        ell = Ellipse(2.0, 1.0, center=(0.7, -0.1))
        grid = np.arange(128) * (TWO_PI / 128)
        fit = proper_affine_sphere_residual(
            ell.derivative(grid, 0), affine_normal(ell, grid)
        )
        assert np.allclose(fit.point, [0.7, -0.1], atol=1e-8)
        assert fit.rms_distance < 1e-8

    def test_circle_buoyancy_curve(self, unit_circle):
        chords = sweep(unit_circle, FLOTATION, DELTA, 32)
        pts = buoyancy_point(chords).points
        normals = buoyancy_affine_normal(chords)
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

    @pytest.mark.parametrize("body", ["ellipse_config", "run_sampled_seed1"])
    def test_residual_is_the_report_value(self, tmp_path, monkeypatch, body):
        root = Path(__file__).resolve().parent.parent
        if body == "run_sampled_seed1":
            monkeypatch.syspath_prepend(str(root / "perfbench"))
            import workloads

            config = json.loads(workloads.sampled_config(1))
        else:
            config = json.loads((root / "configs" / "ellipse.json").read_text())
        config.update(checks=["affine_sphere"], outputDir=str(tmp_path / "out"))
        (tmp_path / "c.json").write_text(json.dumps(config))
        # the sampled body is not an ellipse, so its run fails the check and exits 1
        assert main(["run", str(tmp_path / "c.json")]) == (0 if body == "ellipse_config" else 1)
        (record,) = json.loads((tmp_path / "out" / "report.json").read_text())["records"]
        assert record["value"] == affine_sphere_residual(curve_from_json(config["curveSpec"]))  # bit for bit


class TestPetty:
    def test_unit_circle(self, unit_circle):
        rep = petty_condition_report(unit_circle)
        assert rep.mean == pytest.approx(1.0, rel=1e-14)
        assert rep.coefficient_of_variation < 1e-12

    def test_centered_ellipse_conic_value(self, ellipse21):
        rep = petty_condition_report(ellipse21)
        assert rep.mean == pytest.approx(4.0, rel=1e-12)  # (ab)^2
        assert rep.coefficient_of_variation < 1e-10

    def test_translated_ellipse_is_measured_about_its_centroid(self):
        # about the coordinate origin the translated circle's CV was 0.579
        rep = petty_condition_report(Ellipse(1.0, 1.0, center=(0.3, 0.0)))
        assert rep.mean == pytest.approx(1.0, rel=1e-12)
        assert rep.coefficient_of_variation < 1e-12
        rep = petty_condition_report(Ellipse(2.0, 1.0, center=(0.2, -0.1), rotation=0.4))
        assert rep.mean == pytest.approx(4.0, rel=1e-12)
        assert rep.coefficient_of_variation < 1e-10


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

    def test_ellipse_stops_at_its_start(self):
        # the start, a quarter period on, is every lane's root: the residual
        # det(g'(s), g(u) - c) meets its rounding-level f_tol there, so the solve
        # makes that one call, and no bracket end is evaluated. Orders 0 and 1
        # are evaluated on the grid, then at u. The residual rises, as the
        # solver needs: <= 0 at every low end, >= 0 at every high end
        class Recording(Ellipse):
            def derivatives(self, s, orders):
                if tuple(orders) == (0, 1):
                    seen.append(np.array(s))
                return super().derivatives(s, orders)

        seen = []
        ellipse = Recording(2.0, 1.0)
        assert radon_check(ellipse, 64) < 1e-9
        s = np.arange(64) * (PERIOD / 64)
        lo, hi = s + 1e-12, s + PERIOD / 2.0 - 1e-12
        assert len(seen) == 2
        np.testing.assert_array_equal(seen[1], 0.5 * (lo + hi))
        d1 = ellipse.derivative(s, 1)
        assert np.all(det2(d1, ellipse.derivative(lo, 0)) <= 0.0)
        assert np.all(det2(d1, ellipse.derivative(hi, 0)) >= 0.0)

    def test_symmetric_non_radon_curve(self, sym_cos4):
        value = radon_check(sym_cos4, 256)
        assert value > 1e-3
        assert value == pytest.approx(0.36128701327095314, rel=1e-6)  # frozen

    def test_asymmetric_rejected(self, bump3):
        with pytest.raises(DomainError):
            radon_check(bump3, 32)

    @pytest.mark.parametrize("rotation", [0.0, 0.7])
    def test_moved_ellipse(self, rotation):
        # symmetry and the residual are taken about the centroid; about the origin the
        # moved ellipse read "not origin-symmetric (defect 4.472e-01)"
        moved = Ellipse(2.0, 1.0, center=(0.2, -0.1), rotation=rotation)
        assert radon_check(moved, 128) < 1e-9
        # the polar intersection body is taken about the origin, so it still needs symmetry there
        with pytest.raises(DomainError, match="about the origin"):
            intersection_body_polar(moved)


class TestCarousel:
    def test_circle_three_chairs(self, unit_circle):
        delta_star = build_carousel(unit_circle, 1, 3).delta
        assert delta_star == pytest.approx(DELTA, abs=1e-9)
        car = build_carousel(unit_circle, 1, 3, delta_star)
        assert abs(car.closure_defect) < 1e-10
        verts = np.array([unit_circle.derivative(t, 0) for t in car.vertices[:3]])
        sides = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        assert np.max(np.abs(sides - math.sqrt(3.0))) < 1e-9  # equilateral

    def test_circle_four_chairs(self, unit_circle):
        delta_star = build_carousel(unit_circle, 1, 4).delta
        assert delta_star == pytest.approx(math.pi / 4.0 - 0.5, abs=1e-9)
        car = build_carousel(unit_circle, 1, 4, delta_star)
        verts = np.array([unit_circle.derivative(t, 0) for t in car.vertices[:4]])
        sides = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        assert np.max(np.abs(sides - math.sqrt(2.0))) < 1e-9  # square

    @pytest.mark.parametrize("body", ["ellipse21", "bump3"])
    def test_chain_vertices_are_a_fresh_evaluation(self, request, body):
        # gamma and gamma' at each vertex after the start come from the last
        # Newton round of the chord solve that ends there: bit for bit the curve there
        curve = request.getfixturevalue(body)
        ts, (points, tangents), _ = chains(curve, 3, 0.3 * area(curve), 32, 0.1)
        x, d = curve.derivatives(ts, (0, 1))
        np.testing.assert_array_equal(points, x)
        np.testing.assert_array_equal(tangents, d)

    def test_defect_monotone_in_delta(self, unit_circle):
        deltas = [0.4, 0.5, DELTA, 0.7, 0.8]
        defects = [build_carousel(unit_circle, 1, 3, d).closure_defect for d in deltas]
        assert np.all(np.diff(defects) > 0.0)
        assert defects[0] < 0.0 < defects[-1]

    def test_ellipse_delta_scales_with_area(self, ellipse21):
        delta_star = build_carousel(ellipse21, 1, 3).delta
        assert delta_star == pytest.approx(2.0 * DELTA, abs=2e-9)

    @pytest.mark.parametrize("s0", [1.0, 2.2, 4.0])
    def test_closing_residual_reused(self, ellipse21, s0):
        # the solve ends on an abscissa whose chains it has built, so neither
        # the final residual check nor the diagnostics build any further. On
        # an ellipse the start, the cap of chord angle 2 pi / 3, closes: one
        # chain solve (2 if the residual check built it again, 3 if the
        # diagnostics did; 6 from the midpoint of the bracket)
        car = build_carousel(ellipse21, 1, 3, s0=s0)
        assert car.delta == pytest.approx(2.0 * DELTA, abs=2e-9)
        assert car.chain_solves == 1

    def test_closing_residual_reused_while_the_root_finder_iterates(self, bump3):
        # bump3 misses the ellipse start: the start, chained from every start,
        # and four Newton rounds from s0, each chain built once (7 if the
        # residual check built the last one again, 8 when the bracket ends
        # were built first), then the chains from every start at delta*
        car = build_carousel(bump3, 1, 3, s0=2.2)
        assert abs(car.closure_defect) < 1e-10
        assert car.chain_solves == 6

    @pytest.mark.parametrize("body, s0", [("ellipse21", 0.0), ("bump3", 1.3)])
    def test_chain_from_s0_is_lane_0_of_the_closure_chains(self, request, body, s0):
        curve = request.getfixturevalue(body)
        car = build_carousel(curve, 1, 3, s0=s0)
        ts, at_vertices, dt_ddelta = chains(curve, 3, car.delta, homothety_module.CAROUSEL_STARTS, s0)
        assert car.vertices == ts[:, 0].tolist() and car.vertices[0] == s0
        assert car.closure_defect == ts[3, 0] - ts[0, 0] - PERIOD and car.defect_slope == dt_ddelta[0]
        assert car.closure_defect_max == np.max(np.abs(ts[3] - ts[0] - PERIOD))
        v, ahead, behind, _ = homothety_module._tangent_triangles(*(a[:, :1] for a in at_vertices))
        assert car.lambdas == (norm2(ahead - v) / norm2(v - behind))[:, 0].tolist()

    @pytest.mark.parametrize("body, p, q", [("bump3", 1, 3), ("ellipse21", 1, 3), ("unit_circle", 2, 5)])
    def test_closing_chain_matches_solve_then_build(self, request, body, p, q):
        # each start is solved with its own chains: the carousel from the
        # second start does not take the chain solved for the first
        curve = request.getfixturevalue(body)
        cars = [build_carousel(curve, p, q, s0=s0) for s0 in (0.3, 1.7)]
        for car in cars:
            expected = build_carousel(curve, p, q, car.delta, s0=car.s0)
            fields = ("p", "q", "delta", "s0", "vertices", "closure_defect", "defect_slope", "closure_defect_max", "lambdas")
            assert [getattr(car, f) for f in fields] == [getattr(expected, f) for f in fields]
        assert cars[0].vertices[0] != cars[1].vertices[0]
        if body == "bump3":
            assert abs(cars[0].delta - cars[1].delta) > 1e-6  # delta* depends on the start here

    def test_pentagram_density(self, unit_circle):
        # density 2/5: the chain winds twice before closing
        theta = 2.0 * math.pi / 5.0
        expected = circle_segment_area(theta)
        delta_star = build_carousel(unit_circle, 2, 5).delta
        assert delta_star == pytest.approx(expected, abs=1e-9)
        car = build_carousel(unit_circle, 2, 5, delta_star)
        assert car.vertices[-1] - car.vertices[0] == pytest.approx(2 * TWO_PI, abs=1e-10)

    def test_invalid_pq(self, unit_circle):
        with pytest.raises(DomainError):
            build_carousel(unit_circle, 3, 3, DELTA)
        # a p/q not in lowest terms repeats the chain of the reduced fraction
        with pytest.raises(DomainError, match="2/6"):
            build_carousel(unit_circle, 2, 6)
        with pytest.raises(DomainError, match="2/4"):
            build_carousel(unit_circle, 2, 4, DELTA)

    @pytest.mark.parametrize("s0", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, unit_circle, s0):
        with pytest.raises(DomainError):
            build_carousel(unit_circle, 1, 3, DELTA, s0=s0)
        with pytest.raises(DomainError):
            build_carousel(unit_circle, 1, 3, s0=s0)

    def test_carousel_diag_circle(self, unit_circle):
        car = build_carousel(unit_circle, 1, 3, DELTA)
        assert car.lambda_report.max_abs_deviation < 1e-8
        assert abs(car.lambda_report.mean - 1.0) < 1e-9
        assert car.centroid_drift_max < 1e-9
        assert car.lambda_product_max_dev < 1e-8
        assert car.medial_residual_max < 1e-8

    def test_carousel_diag_ellipse(self, ellipse21):
        car = build_carousel(ellipse21, 1, 3)
        assert car.lambda_report.max_abs_deviation < 1e-8
        assert car.centroid_drift_max < 1e-8

    def test_lambda_product_breaks_without_endpoint_balance(self, bump3):
        # three-fold symmetric body: the chain closes but the ratios are not 1
        delta_star = build_carousel(bump3, 1, 3, s0=0.3).delta
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
        # the carousel closes from s0 but not from the other starts s0 + k period / n
        n = homothety_module.CAROUSEL_STARTS
        for s0 in (0.0, 1.3):
            car = build_carousel(bump3, 1, 3, s0=s0)
            chains = [build_carousel(bump3, 1, 3, car.delta, s0=s) for s in s0 + np.arange(n) * (TWO_PI / n)]
            assert car.closure_defect_max == pytest.approx(max(abs(c.closure_defect) for c in chains), rel=1e-9)
            assert car.closure_defect_max > 1e-2
            lambdas = [lam for c in chains for lam in c.lambdas]
            assert car.lambda_report.mean == pytest.approx(np.mean(lambdas), rel=1e-12)
            cv = np.std(lambdas) / np.mean(lambdas)
            assert car.lambda_report.coefficient_of_variation == pytest.approx(cv, rel=1e-9)

    def test_wrong_delta_does_not_close(self, unit_circle):
        car = build_carousel(unit_circle, 1, 3, 0.5)
        assert car.closure_defect < -1e-3
        # a carousel that does not close is a measured defect, not an error
        assert car.closure_defect_max == pytest.approx(abs(car.closure_defect), rel=1e-9)

    @pytest.mark.parametrize("p, q", LOWEST_TERMS)
    @pytest.mark.parametrize("body", ["ellipse21", "affine_ellipse"])
    def test_ellipse_closes_from_every_start(self, request, body, p, q):
        # every ellipse is a p/q carousel at the cap of chord angle 2 pi p / q,
        # 1/2 and p/q >= 1/2 included
        curve = AFFINE_ELLIPSE if body == "affine_ellipse" else request.getfixturevalue(body)
        car = build_carousel(curve, p, q, s0=0.7)
        theta = TWO_PI * p / q
        assert car.delta == pytest.approx(area(curve) * (theta - math.sin(theta)) / TWO_PI, rel=1e-12)
        assert car.closure_defect_max <= 1e-8 * PERIOD
        assert (car.lambda_report is not None) == (q == 3)

    def test_two_chairs_close_at_half_the_area_from_every_start(self, bump3):
        car = build_carousel(bump3, 1, 2, s0=0.4)
        assert car.delta == pytest.approx(0.5 * area(bump3), rel=1e-12)
        assert car.closure_defect_max < 1e-10
        assert car.lambdas == [] and car.lambda_report is None


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
