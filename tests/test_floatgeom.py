import math

import numpy as np
import pytest

from flotilla.chord import FLOTATION, sweep
from flotilla.curve import (
    AffineFrame,
    AffineImage,
    ClosedConvexCurve,
    Ellipse,
    FourierRadial,
    SampledPeriodic,
    area,
    det2,
    norm2,
)
from flotilla.floatgeom import (
    buoyancy_point,
    flotation_body_area,
    flotation_point,
    kappa_prime_buoyancy,
    kappa_prime_flotation,
    omega_identity_residual,
)

from oracles import (
    affine_normal,
    buoyancy_affine_normal,
    buoyancy_affine_normal_check,
    chords_at,
    circle_buoyancy_kappa,
    circle_flotation_kappa,
    circle_segment_area,
    circle_theta_from_segment,
    convex_polygon_contains,
    fd4_derivative,
    flotation_kappa_cot_form,
    random_unimodular_frame,
    solve_flotation_chord,
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
        sample = buoyancy_point(cm)
        assert np.linalg.norm(sample.points[0]) == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-10)
        assert sample.kappa[0] == pytest.approx(3.0 * math.pi / 4.0, abs=1e-10)

    def test_circle_third_chord_kappa(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 1.7, DELTA)
        kappa = buoyancy_point(cm).kappa[0]
        assert kappa == pytest.approx(12.0 * DELTA / (2 * math.sin(THETA)) ** 3, rel=1e-12)
        assert kappa == pytest.approx(circle_buoyancy_kappa(THETA), rel=1e-12)

    def test_centroid_strictly_inside_cap(self, ellipse21):
        chords = sweep(ellipse21, FLOTATION, 1.0, 16)
        centroids = buoyancy_point(chords).points
        # strictly on the cap side of the chord and inside the body
        assert np.all(det2(centroids - chords.x, chords.c) > 0.0)
        for s, t, centroid in zip(chords.s, chords.t, centroids):
            cap_poly = ellipse21.derivative(np.linspace(s, t, 64), 0)
            assert convex_polygon_contains(cap_poly, centroid[None, :], tol=1e-12)


class TestDupinTangency:
    def test_fd_tangent_parallel_to_chord(self, unit_circle, ellipse21):
        for curve, delta in ((unit_circle, DELTA), (ellipse21, 1.0)):
            chords = sweep(curve, FLOTATION, delta, 128)
            r1 = flotation_point(chords).points
            r2 = buoyancy_point(chords).points
            for pts in (r1, r2):
                d1 = spectral_fd(pts, order=1)
                resid = np.abs(det2(d1, chords.c)) / (np.linalg.norm(d1, axis=1) * chords.norm_c)
                assert np.all(resid < 1e-10)

    def test_tangent_vectors_match_fd_including_magnitude(self, ellipse21):
        # validates the scalar factors of the closed-form tangents, not just
        # their direction
        chords = sweep(ellipse21, FLOTATION, 1.0, 256)
        for family in (flotation_point(chords), buoyancy_point(chords)):
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
        assert kappa_prime_buoyancy(cm)[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_fd_along_own_arc_on_ellipse(self, ellipse21):
        n = 512
        h = TWO_PI / n
        chords = sweep(ellipse21, FLOTATION, 1.0, n)
        for family, closed in (
            (flotation_point(chords), kappa_prime_flotation(chords)),
            (buoyancy_point(chords), kappa_prime_buoyancy(chords)),
        ):
            dk = fd4_derivative(family.kappa, h, 1)
            speed = np.linalg.norm(fd4_derivative(family.points, h, 1), axis=1)
            fd = dk / speed
            assert np.max(np.abs(fd - closed)) < 1e-4 * np.max(np.abs(closed))

    def test_sign_flips_under_reflection(self, ellipse21):
        # mirroring the curve swaps the roles of the chord endpoints
        mirrored = AffineImage(ellipse21, AffineFrame([[1.0, 0.0], [0.0, -1.0]]))
        cm = solve_flotation_chord(ellipse21, 0.7, 1.0)
        # the mirrored curve is reparametrized s -> period - s
        cm_m = solve_flotation_chord(mirrored, TWO_PI - cm.t[0], 1.0)
        assert cm_m.t[0] == pytest.approx(TWO_PI - cm.s[0] + TWO_PI * 0, abs=1e-9)
        assert cm_m.alpha[0] == pytest.approx(cm.beta[0], abs=1e-9)
        assert kappa_prime_flotation(cm_m)[0] == pytest.approx(-kappa_prime_flotation(cm)[0], rel=1e-7)
        assert kappa_prime_buoyancy(cm_m)[0] == pytest.approx(
            -kappa_prime_buoyancy(cm)[0], rel=1e-7
        )

    def test_vertex_singularity_is_nan(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, math.pi / 2)
        assert math.isnan(kappa_prime_flotation(cm)[0])


class TestFlotationBodyArea:
    def test_circle_concentric_disk(self, unit_circle):
        value = flotation_body_area(sweep(unit_circle, FLOTATION, DELTA, 128))
        assert value == pytest.approx(math.pi * math.cos(THETA) ** 2, rel=1e-10)

    def test_small_delta_limit(self, unit_circle):
        value = flotation_body_area(sweep(unit_circle, FLOTATION, 1e-3, 128))
        theta = circle_theta_from_segment(1e-3)
        assert value == pytest.approx(math.pi * math.cos(theta) ** 2, rel=1e-8)
        assert value == pytest.approx(math.pi, rel=2e-2)

    def test_ellipse_affine_image_of_circle_case(self, ellipse21):
        value = flotation_body_area(sweep(ellipse21, FLOTATION, 2 * DELTA, 128))
        assert value == pytest.approx(2 * math.pi * math.cos(THETA) ** 2, rel=1e-10)

    def test_area_against_shoelace_of_envelope(self, bump3):
        chords = sweep(bump3, FLOTATION, 0.8, 256)
        value = flotation_body_area(chords)
        pts = flotation_point(chords).points
        shoelace = 0.5 * float(
            np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
        )
        # the 256-gon shoelace area carries an O(n^-2) inscribed-polygon bias
        assert value == pytest.approx(shoelace, rel=1e-3)


def omega(chords):
    """The omega residual of a sweep, from the buoyancy points of its chords."""
    return omega_identity_residual(chords, buoyancy_point(chords).points)


class TestOmegaIdentity:
    def test_circle_analytic_sides(self, unit_circle):
        delta_bar = 1.5 * DELTA
        lhs_expected = math.pi * math.sin(THETA) ** 2 / delta_bar ** (2.0 / 3.0)
        chords = sweep(unit_circle, FLOTATION, DELTA, 128)
        lhs = (area(unit_circle) - flotation_body_area(chords)) / (
            delta_bar ** (2.0 / 3.0)
        )
        assert lhs == pytest.approx(lhs_expected, rel=1e-10)
        assert omega(chords) < 1e-8

    def test_ellipse(self, ellipse21):
        assert omega(sweep(ellipse21, FLOTATION, 1.0, 128)) < 1e-8

    def test_fourier_small(self, bump3_small):
        assert omega(sweep(bump3_small, FLOTATION, 0.8, 256)) < 1e-6

    @pytest.mark.parametrize(
        "body, fraction",
        [("ellipse21", 1.0 / (2.0 * TWO_PI)), ("ellipse21", 0.3), ("bump3", 0.8 / math.pi)],
    )
    def test_fails_on_shifted_chords(self, request, body, fraction):
        # both sides used to be one per-chord sum, so shifted chords read 0;
        # now each side comes from its own sampled family
        curve = request.getfixturevalue(body)
        chords = sweep(curve, FLOTATION, fraction * area(curve), 256)
        assert omega(chords) < 1e-12
        s = chords.s
        at_s = curve.derivatives(s, (0, 1, 2))
        shifted = chords_at(curve, FLOTATION, chords.delta, s, chords.t + 1e-2 * np.sin(3.0 * s), at_s)
        assert omega(shifted) > 1e-6  # the check's threshold


class TestAffineNormalProposition:
    def test_circle_points_toward_center(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 1.1, DELTA)
        angle, mag = buoyancy_affine_normal_check(cm)
        assert angle[0] < 1e-7
        assert mag[0] < 1e-7

    def test_ellipse(self, ellipse21):
        angle, mag = buoyancy_affine_normal_check(sweep(ellipse21, FLOTATION, 1.0, 64))
        assert np.all(angle < 1e-6)
        assert np.all(mag < 1e-6)

    def test_perturbed_circle(self, bump3_small):
        angle, mag = buoyancy_affine_normal_check(sweep(bump3_small, FLOTATION, 0.8, 32))
        assert np.all(angle < 1e-5)
        assert np.all(mag < 1e-5)

    @pytest.mark.parametrize("fraction", [0.7, 0.999])
    def test_caps_larger_than_half_the_body(self, ellipse21, fraction):
        # the end tangents meet on the far side of the chord: the tangent
        # triangle, and so the affine chord length, is negative. An unoriented
        # r1 - z reads an angle of pi at both fractions
        delta = fraction * area(ellipse21)
        chords = sweep(ellipse21, FLOTATION, delta, 64)
        assert np.all(chords.affine_norm_c < 0.0)
        angle, mag = buoyancy_affine_normal_check(chords)
        assert np.all(angle < 1e-12)
        assert np.all(mag < 1e-12)

    def test_parallel_tangents_skipped(self, unit_circle):
        cm = solve_flotation_chord(unit_circle, 0.0, math.pi / 2)
        angle, mag = buoyancy_affine_normal_check(cm)
        assert math.isnan(angle[0]) and math.isnan(mag[0])

    def test_half_area_circle_has_no_lane_with_an_apex(self, unit_circle):
        # every half-area chord of a circle is a diameter, so the proposition has no lane to compare
        angle, mag = buoyancy_affine_normal_check(sweep(unit_circle, FLOTATION, 0.5 * area(unit_circle), 64))
        assert np.all(np.isnan(angle)) and np.all(np.isnan(mag))


def sampled_body():
    u = np.arange(64) * (TWO_PI / 64)
    r = 1.0 + 0.02 * np.cos(2 * u) + 0.01 * np.sin(3 * u)
    return SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))


class TestAffineNormalClosedForm:
    # worst angle and relative magnitude error against the interpolant oracle at
    # n = 256 over the fractions below, measured: 1.6e-15 (ellipse), 6.9e-6 and
    # 5.3e-6 (bump3, at f = 0.95) and 1.5e-6 (sampled). The oracle's error is
    # truncation at n = 128 on bump3 (6.4e-3) and rounding in its third
    # derivative from n = 512 on (4.2e-5 on bump3, 8.8e-5 at n = 1024)
    BOUNDS = {"ellipse21": 1e-13, "bump3": 2e-5, "sampled": 5e-6}
    BODIES = {
        "ellipse21": lambda: Ellipse(2.0, 1.0),
        "bump3": lambda: FourierRadial(1.0, (0.0, 0.0, 0.1)),
        "sampled": sampled_body,
    }

    @pytest.mark.parametrize("body", sorted(BODIES))
    @pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.7, 0.95])
    def test_matches_the_interpolant_of_the_buoyancy_points(self, body, fraction):
        # the oracle never uses t' = -p/q: it is the affine normal of the
        # trigonometric interpolant of the sampled buoyancy points, orders 1-3
        # of the interpolant as omega takes its derivatives
        curve = self.BODIES[body]()
        chords = sweep(curve, FLOTATION, fraction * area(curve), 256)
        got = buoyancy_affine_normal(chords)
        expected = affine_normal(SampledPeriodic(buoyancy_point(chords).points), chords.s)
        angle = np.arctan2(np.abs(det2(got, expected)), np.sum(got * expected, axis=-1))
        magnitude_err = np.abs(norm2(got) - norm2(expected)) / norm2(expected)
        assert angle.max() < self.BOUNDS[body]
        assert magnitude_err.max() < self.BOUNDS[body]

    @pytest.mark.parametrize("body", sorted(BODIES))
    def test_check_makes_no_curve_evaluation(self, monkeypatch, body):
        chords = sweep(self.BODIES[body](), FLOTATION, 0.8, 64)

        def no_evaluation(*args):
            raise AssertionError("curve evaluated")

        for kind in (ClosedConvexCurve, *ClosedConvexCurve.__subclasses__()):
            monkeypatch.setattr(kind, "derivatives", no_evaluation)
        angle, mag = buoyancy_affine_normal_check(chords)
        assert np.all(angle < 1e-6) and np.all(mag < 1e-5)

    @pytest.mark.parametrize("body", ["ellipse21", "bump3"])
    def test_check_is_an_identity_in_the_chord_frame(self, body):
        # both sides are functions of (s, t, delta) alone, so chords that are not
        # flotation chords, by a shifted t or a relabelled delta, read rounding
        # level as well: the check cannot fail, and is a tautology
        curve = self.BODIES[body]()
        chords = sweep(curve, FLOTATION, 0.8, 256)
        s = chords.s
        at_s = curve.derivatives(s, (0, 1, 2))
        shifted = chords_at(curve, FLOTATION, chords.delta, s, chords.t + 1e-2 * np.sin(3.0 * s), at_s)
        for corrupted in (shifted, chords.replace(delta=1.3 * chords.delta)):
            angle, mag = buoyancy_affine_normal_check(corrupted)
            assert np.all(angle < 1e-14) and np.all(mag < 1e-14)


class TestEquivariance:
    def test_buoyancy_curve_commutes_with_affine_maps(self, unit_circle):
        rng = np.random.default_rng(31)
        chords = sweep(unit_circle, FLOTATION, DELTA, 32)
        base = buoyancy_point(chords).points
        for _ in range(5):
            frame = random_unimodular_frame(rng)
            image = AffineImage(unit_circle, frame)
            got = buoyancy_point(sweep(image, FLOTATION, DELTA, 32)).points
            assert np.allclose(got, frame.apply(base), atol=1e-8)

    def test_buoyancy_delta_scales_with_determinant(self, unit_circle):
        frame = AffineFrame([[2.0, 0.0], [0.0, 1.0]])
        image = AffineImage(unit_circle, frame)
        cm = solve_flotation_chord(unit_circle, 0.5, DELTA)
        cm_img = solve_flotation_chord(image, 0.5, 2 * DELTA)
        expect = frame.apply(buoyancy_point(cm).points)
        got = buoyancy_point(cm_img).points
        assert np.allclose(got, expect, atol=1e-9)


def test_kappa2_positive_and_finite_everywhere(bump3):
    kappa = buoyancy_point(sweep(bump3, FLOTATION, 0.8, 64)).kappa
    assert np.all(np.isfinite(kappa))
    assert np.all(kappa > 0.0)
