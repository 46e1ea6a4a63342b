import math

import numpy as np
import pytest

from flotilla.chord import ILLUMINATION, sweep
from flotilla.curve import AffineImage, det2, norm2
from flotilla.floatgeom import illumination_centroid_point, illumination_point

from oracles import (
    chords_at,
    circle_cone_area,
    circle_cone_centroid_distance,
    circle_illumination_centroid_kappa,
    convex_polygon_contains,
    illumination_kappa_raw,
    random_unimodular_frame,
    solve_silhouette_chord,
    spectral_fd,
)

TWO_PI = 2.0 * math.pi
THETA = math.pi / 3
DELTA_HAT = circle_cone_area(THETA)


class TestIlluminationPoint:
    def test_circle_apex_and_curvature(self, unit_circle):
        cm = solve_silhouette_chord(unit_circle, 1.4, DELTA_HAT)
        sample = illumination_point(cm)
        assert np.linalg.norm(sample.points[0]) == pytest.approx(1.0 / math.cos(THETA), abs=1e-10)
        assert sample.kappa[0] == pytest.approx(math.cos(THETA), rel=1e-10)

    def test_formula_matches_raw_determinant_form(self, ellipse21):
        chords = sweep(ellipse21, ILLUMINATION, 1.0, 32)
        np.testing.assert_allclose(illumination_kappa_raw(chords), illumination_point(chords).kappa, rtol=1e-10)

    def test_equivariance_under_unimodular_frames(self, ellipse21):
        rng = np.random.default_rng(41)
        cm = solve_silhouette_chord(ellipse21, 0.8, 1.0)
        base = illumination_point(cm)
        for _ in range(10):
            frame = random_unimodular_frame(rng)
            image = AffineImage(ellipse21, frame)
            cm_img = solve_silhouette_chord(image, 0.8, 1.0)
            got = illumination_point(cm_img)
            assert np.allclose(got.points, frame.apply(base.points), atol=1e-8)
            expect_tangent = frame.apply_vector(base.tangents)
            cross = np.abs(det2(got.tangents, expect_tangent))
            assert np.all(cross < 1e-8 * norm2(got.tangents) * norm2(expect_tangent))
            # the affine chord length is the unimodular invariant here
            assert cm_img.affine_norm_c[0] == pytest.approx(cm.affine_norm_c[0], rel=1e-9)

    def test_tangent_parallel_to_chord(self, bump3):
        chords = sweep(bump3, ILLUMINATION, 0.8, 32)
        tangents = illumination_point(chords).tangents
        resid = np.abs(det2(tangents, chords.c)) / (norm2(tangents) * chords.norm_c)
        assert np.all(resid < 1e-12)


class TestIlluminationCentroid:
    def test_circle_kappa(self, unit_circle):
        cm = solve_silhouette_chord(unit_circle, 0.2, DELTA_HAT)
        kappa = illumination_centroid_point(cm).kappa[0]
        expected = 3.0 * DELTA_HAT * math.cos(THETA) ** 2 / math.sin(THETA) ** 3
        assert kappa == pytest.approx(expected, rel=1e-10)
        assert kappa == pytest.approx(circle_illumination_centroid_kappa(THETA), rel=1e-10)

    def test_circle_centroid_distance(self, unit_circle):
        cm = solve_silhouette_chord(unit_circle, 0.2, DELTA_HAT)
        sample = illumination_centroid_point(cm)
        assert np.linalg.norm(sample.points[0]) == pytest.approx(
            circle_cone_centroid_distance(THETA), abs=1e-10
        )

    def test_centroid_inside_triangle_outside_body(self, ellipse21):
        chords = sweep(ellipse21, ILLUMINATION, 1.0, 16)
        centroids = illumination_centroid_point(chords).points
        boundary = np.array([ellipse21.derivative(s, 0) for s in np.linspace(0, TWO_PI, 256, endpoint=False)])
        for x, y, z, centroid in zip(chords.x, chords.y, chords.z, centroids):
            tri = np.array([x, y, z])
            if det2(tri[1] - tri[0], tri[2] - tri[0]) < 0:
                tri = tri[::-1]
            assert convex_polygon_contains(tri, centroid[None, :], tol=1e-12)
            # outside the body: radius beyond the boundary in that direction
            assert not convex_polygon_contains(boundary, centroid[None, :], tol=0.0)

    def test_tangent_parallel_to_chord(self, ellipse21):
        chords = sweep(ellipse21, ILLUMINATION, 1.0, 16)
        tangents = illumination_centroid_point(chords).tangents
        resid = np.abs(det2(tangents, chords.c)) / (norm2(tangents) * chords.norm_c)
        assert np.all(resid < 1e-10)


class TestEnclosure:
    def test_illumination_boundary_encloses_body(self, bump3):
        chords = sweep(bump3, ILLUMINATION, 0.8, 128)
        hull = illumination_point(chords).points
        boundary = bump3.derivative(np.linspace(0, TWO_PI, 128, endpoint=False), 0)
        assert convex_polygon_contains(hull, boundary, tol=1e-9)


class TestTangentVectors:
    def test_match_fd_including_magnitude(self, ellipse21):
        chords = sweep(ellipse21, ILLUMINATION, 1.0, 256)
        for family in (illumination_point(chords), illumination_centroid_point(chords)):
            pts, tans = family.points, family.tangents
            fd = spectral_fd(pts, 1)
            err = np.max(np.linalg.norm(fd - tans, axis=1))
            assert err < 1e-10 * np.max(np.linalg.norm(tans, axis=1))


class TestFdCurvature:
    def test_kappa3_kappa4_match_fd(self, ellipse21):
        n = 256
        chords = sweep(ellipse21, ILLUMINATION, 1.0, n)
        for family in (illumination_point(chords), illumination_centroid_point(chords)):
            pts, kap = family.points, family.kappa
            d1 = spectral_fd(pts, 1)
            d2 = spectral_fd(pts, 2)
            fd = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / np.sum(d1**2, axis=1) ** 1.5
            fd = fd * (TWO_PI / 1.0) ** 0  # samples are on the parameter grid already
            assert np.max(np.abs(fd / kap - 1.0)) < 1e-5


class TestPolarity:
    """The pole of a chord under the tangential polarity is its ``Chords.z``."""

    def test_pole_of_symmetric_circle_chord(self, unit_circle):
        s = np.array([-THETA])
        at_s = unit_circle.derivatives(s, (0, 1, 2))
        chords = chords_at(unit_circle, ILLUMINATION, DELTA_HAT, s, np.array([THETA]), at_s)
        assert np.allclose(chords.z[0], [1.0 / math.cos(THETA), 0.0], atol=1e-12)
        assert chords.apex[0]

    def test_diametral_chord_pole_at_infinity(self, unit_circle):
        s = np.array([0.0])
        at_s = unit_circle.derivatives(s, (0, 1, 2))
        chords = chords_at(unit_circle, ILLUMINATION, DELTA_HAT, s, np.array([math.pi]), at_s)
        assert not chords.apex[0]
        assert np.all(np.isnan(chords.z[0]))
        # both end tangents are vertical
        assert np.allclose(chords.jets[1][:, 0, 0], 0.0, atol=1e-12)
