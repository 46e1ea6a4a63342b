import math

import numpy as np
import pytest

from flotilla.chord import FLOTATION, solve_flotation_chord, sweep
from flotilla.curve import AffineFrame, apply_affine, area, det2, norm2
from flotilla.floatgeom import (
    buoyancy_affine_normal_check,
    buoyancy_point,
    flotation_body_area,
    flotation_point,
    kappa_prime_buoyancy,
    kappa_prime_flotation,
    omega_identity_residual,
)

from oracles import (
    circle_buoyancy_kappa,
    circle_flotation_kappa,
    circle_segment_area,
    circle_theta_from_segment,
    convex_polygon_contains,
    fd4_derivative,
    flotation_kappa_cot_form,
    random_unimodular_frame,
    spectral_fd,
)

TWO_PI = 2.0 * math.pi
THETA = math.pi / 3
DELTA = circle_segment_area(THETA)


class TestFlotationPoint:
    def test_circle_point_and_curvature(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.9, DELTA)
        sample = flotation_point(cm)
        assert np.linalg.norm(sample.point) == pytest.approx(math.cos(THETA), abs=1e-12)
        assert sample.kappa == pytest.approx(circle_flotation_kappa(THETA), rel=1e-12)

    def test_degenerate_half_area_chord(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.2, math.pi / 2)
        sample = flotation_point(cm)
        assert np.allclose(sample.tangent, 0.0)
        assert math.isnan(sample.kappa)

    def test_cot_form_matches_affine_form(self, ellipse21):
        for s in np.linspace(0, TWO_PI, 16, endpoint=False):
            cm = solve_flotation_chord(ellipse21, s, 1.0)
            sample = flotation_point(cm)
            assert flotation_kappa_cot_form(cm) == pytest.approx(sample.kappa, rel=1e-10)

    def test_tangent_is_parallel_to_chord(self, bump3):
        for cm in sweep(bump3, FLOTATION, 0.8, 32):
            sample = flotation_point(cm)
            resid = abs(det2(sample.tangent, cm.c)) / (norm2(sample.tangent) * cm.norm_c)
            assert resid < 1e-14


class TestBuoyancyPoint:
    def test_half_disk_centroid(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.4, math.pi / 2)
        sample = buoyancy_point(cm, math.pi / 2)
        assert np.linalg.norm(sample.point) == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-10)
        assert sample.kappa == pytest.approx(3.0 * math.pi / 4.0, abs=1e-10)

    def test_circle_third_chord_kappa(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 1.7, DELTA)
        sample = buoyancy_point(cm, DELTA)
        assert sample.kappa == pytest.approx(12.0 * DELTA / (2 * math.sin(THETA)) ** 3, rel=1e-12)
        assert sample.kappa == pytest.approx(circle_buoyancy_kappa(THETA), rel=1e-12)

    def test_centroid_strictly_inside_cap(self, ellipse21):
        for cm in sweep(ellipse21, FLOTATION, 1.0, 16):
            sample = buoyancy_point(cm, 1.0)
            # strictly on the cap side of the chord and inside the body
            side = det2(sample.point - cm.x, cm.c)
            assert side > 0.0
            arc = np.linspace(cm.s, cm.t, 64)
            cap_poly = np.concatenate([ellipse21.derivative(arc, 0)])
            assert convex_polygon_contains(cap_poly, sample.point[None, :], tol=1e-12)

    def test_mismatched_delta_rejected(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, DELTA)
        with pytest.raises(Exception):
            buoyancy_point(cm, 2 * DELTA)


class TestDupinTangency:
    def test_fd_tangent_parallel_to_chord(self, unit_circle, ellipse21):
        for curve, delta in ((unit_circle, DELTA), (ellipse21, 1.0)):
            chords = sweep(curve, FLOTATION, delta, 128)
            r1 = np.array([flotation_point(cm).point for cm in chords])
            r2 = np.array([buoyancy_point(cm, delta).point for cm in chords])
            for pts in (r1, r2):
                d1 = spectral_fd(pts, order=1)
                for k, cm in enumerate(chords):
                    resid = abs(det2(d1[k], cm.c)) / (np.linalg.norm(d1[k]) * cm.norm_c)
                    assert resid < 1e-10

    def test_tangent_vectors_match_fd_including_magnitude(self, ellipse21):
        # validates the scalar factors of the closed-form tangents, not just
        # their direction
        chords = sweep(ellipse21, FLOTATION, 1.0, 256)
        for maker in (flotation_point, lambda cm: buoyancy_point(cm, 1.0)):
            samples = [maker(cm) for cm in chords]
            pts = np.array([s.point for s in samples])
            tans = np.array([s.tangent for s in samples])
            fd = spectral_fd(pts, 1)
            err = np.max(np.linalg.norm(fd - tans, axis=1))
            assert err < 1e-10 * np.max(np.linalg.norm(tans, axis=1))

    def test_flotation_touches_chord_midpoint(self, bump3):
        for cm in sweep(bump3, FLOTATION, 0.8, 16):
            sample = flotation_point(cm)
            assert np.allclose(sample.point, 0.5 * (cm.x + cm.y), atol=1e-14)


class TestKappaPrime:
    def test_circle_vanishes(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.3, DELTA)
        assert kappa_prime_flotation(cm) == pytest.approx(0.0, abs=1e-9)
        assert kappa_prime_buoyancy(cm, DELTA) == pytest.approx(0.0, abs=1e-9)

    def test_matches_fd_along_own_arc_on_ellipse(self, ellipse21):
        n = 512
        h = TWO_PI / n
        chords = sweep(ellipse21, FLOTATION, 1.0, n)
        for maker, kp_func in (
            (flotation_point, lambda cm: kappa_prime_flotation(cm)),
            (lambda cm: buoyancy_point(cm, 1.0), lambda cm: kappa_prime_buoyancy(cm, 1.0)),
        ):
            samples = [maker(cm) for cm in chords]
            pts = np.array([smp.point for smp in samples])
            kappas = np.array([smp.kappa for smp in samples])
            dk = fd4_derivative(kappas, h, 1)
            speed = np.linalg.norm(fd4_derivative(pts, h, 1), axis=1)
            fd = dk / speed
            closed = np.array([kp_func(cm) for cm in chords])
            assert np.max(np.abs(fd - closed)) < 1e-4 * np.max(np.abs(closed))

    def test_sign_flips_under_reflection(self, ellipse21):
        # mirroring the curve swaps the roles of the chord endpoints
        mirrored = apply_affine(ellipse21, AffineFrame([[1.0, 0.0], [0.0, -1.0]]))
        cm = solve_flotation_chord(ellipse21, 0.7, 1.0)
        # the mirrored curve is reparametrized s -> period - s
        cm_m = solve_flotation_chord(mirrored, TWO_PI - cm.t, 1.0)
        assert cm_m.t == pytest.approx(TWO_PI - cm.s + TWO_PI * 0, abs=1e-9)
        assert cm_m.alpha == pytest.approx(cm.beta, abs=1e-9)
        assert kappa_prime_flotation(cm_m) == pytest.approx(-kappa_prime_flotation(cm), rel=1e-7)
        assert kappa_prime_buoyancy(cm_m, 1.0) == pytest.approx(
            -kappa_prime_buoyancy(cm, 1.0), rel=1e-7
        )

    def test_vertex_singularity_is_nan(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, math.pi / 2)
        assert math.isnan(kappa_prime_flotation(cm))


class TestFlotationBodyArea:
    def test_circle_concentric_disk(self, unit_circle):
        value = flotation_body_area(unit_circle, DELTA, 128)
        assert value == pytest.approx(math.pi * math.cos(THETA) ** 2, rel=1e-10)

    def test_small_delta_limit(self, unit_circle):
        value = flotation_body_area(unit_circle, 1e-3, 128)
        theta = circle_theta_from_segment(1e-3)
        assert value == pytest.approx(math.pi * math.cos(theta) ** 2, rel=1e-8)
        assert value == pytest.approx(math.pi, rel=2e-2)

    def test_ellipse_affine_image_of_circle_case(self, ellipse21):
        value = flotation_body_area(ellipse21, 2 * DELTA, 128)
        assert value == pytest.approx(2 * math.pi * math.cos(THETA) ** 2, rel=1e-10)

    def test_area_against_shoelace_of_envelope(self, bump3):
        chords = sweep(bump3, FLOTATION, 0.8, 256)
        value = flotation_body_area(bump3, 0.8, 256, chords=chords)
        pts = np.array([flotation_point(cm).point for cm in chords])
        shoelace = 0.5 * float(
            np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
        )
        # the 256-gon shoelace area carries an O(n^-2) inscribed-polygon bias
        assert value == pytest.approx(shoelace, rel=1e-3)


class TestOmegaIdentity:
    def test_circle_analytic_sides(self, unit_circle):
        delta_bar = 1.5 * DELTA
        lhs_expected = math.pi * math.sin(THETA) ** 2 / delta_bar ** (2.0 / 3.0)
        chords = sweep(unit_circle, FLOTATION, DELTA, 128)
        lhs = (area(unit_circle) - flotation_body_area(unit_circle, DELTA, 128, chords=chords)) / (
            delta_bar ** (2.0 / 3.0)
        )
        assert lhs == pytest.approx(lhs_expected, rel=1e-10)
        assert omega_identity_residual(unit_circle, DELTA, 128, chords=chords) < 1e-8

    def test_ellipse(self, ellipse21):
        assert omega_identity_residual(ellipse21, 1.0, 128) < 1e-8

    def test_fourier_small(self, bump3_small):
        assert omega_identity_residual(bump3_small, 0.8, 256) < 1e-6


class TestAffineNormalProposition:
    def test_circle_points_toward_center(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 1.1, DELTA)
        angle, mag = buoyancy_affine_normal_check(cm, DELTA)
        assert angle < 1e-7
        assert mag < 1e-7

    def test_ellipse(self, ellipse21):
        for cm in sweep(ellipse21, FLOTATION, 1.0, 64):
            angle, mag = buoyancy_affine_normal_check(cm, 1.0)
            assert angle < 1e-6
            assert mag < 1e-6

    def test_perturbed_circle(self, bump3_small):
        for cm in sweep(bump3_small, FLOTATION, 0.8, 32):
            angle, mag = buoyancy_affine_normal_check(cm, 0.8)
            assert angle < 1e-5
            assert mag < 1e-5

    def test_parallel_tangents_skipped(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, math.pi / 2)
        angle, mag = buoyancy_affine_normal_check(cm, math.pi / 2)
        assert math.isnan(angle) and math.isnan(mag)


class TestEquivariance:
    def test_buoyancy_curve_commutes_with_affine_maps(self, unit_circle):
        rng = np.random.default_rng(31)
        chords = sweep(unit_circle, FLOTATION, DELTA, 32)
        base = [buoyancy_point(cm, DELTA).point for cm in chords]
        for _ in range(5):
            frame = random_unimodular_frame(rng)
            image = apply_affine(unit_circle, frame)
            image_chords = sweep(image, FLOTATION, DELTA, 32)
            for cm, pt in zip(image_chords, base):
                expect = frame.apply(pt)
                got = buoyancy_point(cm, DELTA).point
                assert np.allclose(got, expect, atol=1e-8)

    def test_buoyancy_delta_scales_with_determinant(self, unit_circle):
        frame = AffineFrame([[2.0, 0.0], [0.0, 1.0]])
        image = apply_affine(unit_circle, frame)
        cm = solve_flotation_chord(unit_circle, 0.5, DELTA)
        cm_img = solve_flotation_chord(image, 0.5, 2 * DELTA)
        expect = frame.apply(buoyancy_point(cm, DELTA).point)
        got = buoyancy_point(cm_img, 2 * DELTA).point
        assert np.allclose(got, expect, atol=1e-9)


def test_kappa2_positive_and_finite_everywhere(bump3):
    for cm in sweep(bump3, FLOTATION, 0.8, 64):
        sample = buoyancy_point(cm, 0.8)
        assert math.isfinite(sample.kappa)
        assert sample.kappa > 0.0
