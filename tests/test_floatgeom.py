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
        assert np.linalg.norm(sample.points[0]) == pytest.approx(math.cos(THETA), abs=1e-12)
        assert sample.kappa[0] == pytest.approx(circle_flotation_kappa(THETA), rel=1e-12)

    def test_degenerate_half_area_chord(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.2, math.pi / 2)
        sample = flotation_point(cm)
        assert np.allclose(sample.tangents, 0.0)
        assert math.isnan(sample.kappa[0])

    def test_cot_form_matches_affine_form(self, ellipse21):
        for s in np.linspace(0, TWO_PI, 16, endpoint=False):
            cm = solve_flotation_chord(ellipse21, s, 1.0)
            sample = flotation_point(cm)
            assert flotation_kappa_cot_form(cm)[0] == pytest.approx(sample.kappa[0], rel=1e-10)

    def test_tangent_is_parallel_to_chord(self, bump3):
        chords = sweep(bump3, FLOTATION, 0.8, 32)
        sample = flotation_point(chords)
        resid = np.abs(det2(sample.tangents, chords.c)) / (norm2(sample.tangents) * chords.norm_c)
        assert np.all(resid < 1e-14)


class TestBuoyancyPoint:
    def test_half_disk_centroid(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.4, math.pi / 2)
        sample = buoyancy_point(cm, math.pi / 2)
        assert np.linalg.norm(sample.points[0]) == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-10)
        assert sample.kappa[0] == pytest.approx(3.0 * math.pi / 4.0, abs=1e-10)

    def test_circle_third_chord_kappa(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 1.7, DELTA)
        kappa = buoyancy_point(cm, DELTA).kappa[0]
        assert kappa == pytest.approx(12.0 * DELTA / (2 * math.sin(THETA)) ** 3, rel=1e-12)
        assert kappa == pytest.approx(circle_buoyancy_kappa(THETA), rel=1e-12)

    def test_centroid_strictly_inside_cap(self, ellipse21):
        chords = sweep(ellipse21, FLOTATION, 1.0, 16)
        centroids = buoyancy_point(chords, 1.0).points
        # strictly on the cap side of the chord and inside the body
        assert np.all(det2(centroids - chords.x, chords.c) > 0.0)
        for s, t, centroid in zip(chords.s, chords.t, centroids):
            cap_poly = ellipse21.derivative(np.linspace(s, t, 64), 0)
            assert convex_polygon_contains(cap_poly, centroid[None, :], tol=1e-12)

    def test_mismatched_delta_rejected(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, DELTA)
        with pytest.raises(Exception):
            buoyancy_point(cm, 2 * DELTA)


class TestDupinTangency:
    def test_fd_tangent_parallel_to_chord(self, unit_circle, ellipse21):
        for curve, delta in ((unit_circle, DELTA), (ellipse21, 1.0)):
            chords = sweep(curve, FLOTATION, delta, 128)
            r1 = flotation_point(chords).points
            r2 = buoyancy_point(chords, delta).points
            for pts in (r1, r2):
                d1 = spectral_fd(pts, order=1)
                resid = np.abs(det2(d1, chords.c)) / (np.linalg.norm(d1, axis=1) * chords.norm_c)
                assert np.all(resid < 1e-10)

    def test_tangent_vectors_match_fd_including_magnitude(self, ellipse21):
        # validates the scalar factors of the closed-form tangents, not just
        # their direction
        chords = sweep(ellipse21, FLOTATION, 1.0, 256)
        for family in (flotation_point(chords), buoyancy_point(chords, 1.0)):
            pts, tans = family.points, family.tangents
            fd = spectral_fd(pts, 1)
            err = np.max(np.linalg.norm(fd - tans, axis=1))
            assert err < 1e-10 * np.max(np.linalg.norm(tans, axis=1))

    def test_flotation_touches_chord_midpoint(self, bump3):
        chords = sweep(bump3, FLOTATION, 0.8, 16)
        assert np.allclose(flotation_point(chords).points, 0.5 * (chords.x + chords.y), atol=1e-14)


class TestKappaPrime:
    def test_circle_vanishes(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.3, DELTA)
        assert kappa_prime_flotation(cm)[0] == pytest.approx(0.0, abs=1e-9)
        assert kappa_prime_buoyancy(cm, DELTA)[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_fd_along_own_arc_on_ellipse(self, ellipse21):
        n = 512
        h = TWO_PI / n
        chords = sweep(ellipse21, FLOTATION, 1.0, n)
        for family, closed in (
            (flotation_point(chords), kappa_prime_flotation(chords)),
            (buoyancy_point(chords, 1.0), kappa_prime_buoyancy(chords, 1.0)),
        ):
            dk = fd4_derivative(family.kappa, h, 1)
            speed = np.linalg.norm(fd4_derivative(family.points, h, 1), axis=1)
            fd = dk / speed
            assert np.max(np.abs(fd - closed)) < 1e-4 * np.max(np.abs(closed))

    def test_sign_flips_under_reflection(self, ellipse21):
        # mirroring the curve swaps the roles of the chord endpoints
        mirrored = apply_affine(ellipse21, AffineFrame([[1.0, 0.0], [0.0, -1.0]]))
        cm = solve_flotation_chord(ellipse21, 0.7, 1.0)
        # the mirrored curve is reparametrized s -> period - s
        cm_m = solve_flotation_chord(mirrored, TWO_PI - cm.t[0], 1.0)
        assert cm_m.t[0] == pytest.approx(TWO_PI - cm.s[0] + TWO_PI * 0, abs=1e-9)
        assert cm_m.alpha[0] == pytest.approx(cm.beta[0], abs=1e-9)
        assert kappa_prime_flotation(cm_m)[0] == pytest.approx(-kappa_prime_flotation(cm)[0], rel=1e-7)
        assert kappa_prime_buoyancy(cm_m, 1.0)[0] == pytest.approx(
            -kappa_prime_buoyancy(cm, 1.0)[0], rel=1e-7
        )

    def test_vertex_singularity_is_nan(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, math.pi / 2)
        assert math.isnan(kappa_prime_flotation(cm)[0])


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
        pts = flotation_point(chords).points
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
        assert angle[0] < 1e-7
        assert mag[0] < 1e-7

    def test_ellipse(self, ellipse21):
        angle, mag = buoyancy_affine_normal_check(sweep(ellipse21, FLOTATION, 1.0, 64), 1.0)
        assert np.all(angle < 1e-6)
        assert np.all(mag < 1e-6)

    def test_perturbed_circle(self, bump3_small):
        angle, mag = buoyancy_affine_normal_check(sweep(bump3_small, FLOTATION, 0.8, 32), 0.8)
        assert np.all(angle < 1e-5)
        assert np.all(mag < 1e-5)

    def test_parallel_tangents_skipped(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, math.pi / 2)
        angle, mag = buoyancy_affine_normal_check(cm, math.pi / 2)
        assert math.isnan(angle[0]) and math.isnan(mag[0])


class TestEquivariance:
    def test_buoyancy_curve_commutes_with_affine_maps(self, unit_circle):
        rng = np.random.default_rng(31)
        chords = sweep(unit_circle, FLOTATION, DELTA, 32)
        base = buoyancy_point(chords, DELTA).points
        for _ in range(5):
            frame = random_unimodular_frame(rng)
            image = apply_affine(unit_circle, frame)
            got = buoyancy_point(sweep(image, FLOTATION, DELTA, 32), DELTA).points
            assert np.allclose(got, frame.apply(base), atol=1e-8)

    def test_buoyancy_delta_scales_with_determinant(self, unit_circle):
        frame = AffineFrame([[2.0, 0.0], [0.0, 1.0]])
        image = apply_affine(unit_circle, frame)
        cm = solve_flotation_chord(unit_circle, 0.5, DELTA)
        cm_img = solve_flotation_chord(image, 0.5, 2 * DELTA)
        expect = frame.apply(buoyancy_point(cm, DELTA).points)
        got = buoyancy_point(cm_img, 2 * DELTA).points
        assert np.allclose(got, expect, atol=1e-9)


def test_kappa2_positive_and_finite_everywhere(bump3):
    kappa = buoyancy_point(sweep(bump3, FLOTATION, 0.8, 64), 0.8).kappa
    assert np.all(np.isfinite(kappa))
    assert np.all(kappa > 0.0)
