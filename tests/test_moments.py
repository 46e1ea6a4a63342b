"""Closed-form cap and cone areas and centroids against the quadrature reference.

The package computes every cap and cone area and centroid from one cached
moment antiderivative per curve (Green's theorem). These tests compare those
closed forms with a fixed Gauss-Legendre rule over the arc on bodies of all
four curve kinds, and guard that the chord solvers use no adaptive quadrature.
"""

import math

import numpy as np
import pytest

from flotilla.cli import compute_bundle
from flotilla.curve import AffineFrame, AffineImage, ClosedConvexCurve, Ellipse, FourierRadial, SampledPeriodic, area
from flotilla.floatgeom import buoyancy_point, illumination_centroid_point

from oracles import (
    cap_area,
    cone_area,
    quadrature_cap,
    quadrature_cone,
    solve_flotation_chord,
    solve_silhouette_chord,
    tangent_intersection,
)

TWO_PI = 2.0 * math.pi
AREA_TOL = 1e-12
CENTROID_TOL = 1e-10


def translated_ellipse():
    return Ellipse(2.0, 1.0, center=(1000.0, -500.0))


def sampled_conic():
    """64 samples of the ellipse r = 1 / (1 - 0.3 cos s) about a focus: not band-limited in s."""
    u = np.arange(64) * (TWO_PI / 64)
    r = 1.0 / (1.0 - 0.3 * np.cos(u))
    return SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))


def reversed_bump3():
    # determinant -1.02: the image reverses orientation, so its parameter is reflected
    frame = AffineFrame([[1.2, 0.3], [0.2, -0.8]], [0.5, -0.3])
    return AffineImage(FourierRadial(1.0, (0.0, 0.0, 0.1)), frame)


BODIES = {
    "translated_ellipse": translated_ellipse,
    "bump3": lambda: FourierRadial(1.0, (0.0, 0.0, 0.1)),
    "sampled_conic": sampled_conic,
    "reversed_affine_bump3": reversed_bump3,
}


@pytest.fixture(scope="module", params=sorted(BODIES))
def body(request):
    return BODIES[request.param]()


@pytest.mark.parametrize("s, t", [(0.1, 0.2), (0.4, 2.1), (1.0, 4.0), (5.0, 7.5)])
def test_cap_area_matches_quadrature(body, s, t):
    reference, _ = quadrature_cap(body, s, t)
    assert cap_area(body, s, t) == pytest.approx(reference, abs=AREA_TOL)


@pytest.mark.parametrize("s, t", [(0.1, 0.2), (0.4, 1.9), (5.0, 6.5)])
def test_cone_area_matches_quadrature(body, s, t):
    reference, _ = quadrature_cone(body, s, t, tangent_intersection(body, s, t))
    assert cone_area(body, s, t) == pytest.approx(reference, abs=AREA_TOL)


@pytest.mark.parametrize("s", [0.3, 2.0, 4.4])
def test_buoyancy_point_matches_quadrature_centroid(body, s):
    delta = 0.15 * area(body)
    cm = solve_flotation_chord(body, s, delta)
    _, centroid = quadrature_cap(body, cm.s[0], cm.t[0])
    assert np.max(np.abs(buoyancy_point(cm).points[0] - centroid)) < CENTROID_TOL


@pytest.mark.parametrize("s", [0.3, 2.0, 4.4])
def test_illumination_centroid_matches_quadrature_centroid(body, s):
    delta_hat = 0.1 * area(body)
    cm = solve_silhouette_chord(body, s, delta_hat)
    _, centroid = quadrature_cone(body, cm.s[0], cm.t[0], cm.z[0])
    assert np.max(np.abs(illumination_centroid_point(cm).points[0] - centroid)) < CENTROID_TOL


def test_translated_ellipse_caps_match_closed_forms():
    # an affine image of the unit circle: cap ab(d - sin d)/2, cone ab(tan(d/2) - d/2)
    curve = translated_ellipse()
    d = 0.1
    assert cap_area(curve, 0.1, 0.1 + d) == pytest.approx(d - math.sin(d), abs=AREA_TOL)
    assert cone_area(curve, 0.1, 0.1 + d) == pytest.approx(2.0 * (math.tan(d / 2) - d / 2), abs=AREA_TOL)


def test_area_of_every_kind(body):
    reference, _ = quadrature_cap(body, 0.0, TWO_PI)
    assert area(body) == pytest.approx(reference, rel=1e-13)


def test_moment_interpolants_keep_only_their_degree():
    # W and (gamma - o) W are trigonometric polynomials of degree 1 (ellipse) and 10 (bump3)
    assert len(Ellipse(2.0, 1.0).moments[1].modes) <= 3
    assert len(translated_ellipse().moments[1].modes) <= 3
    assert len(FourierRadial(1.0, (0.0, 0.0, 0.1)).moments[1].modes) <= 11


ELLIPSES = {
    "two_to_one": lambda: Ellipse(2.0, 1.0),
    "rotated_translated": lambda: Ellipse(1.5, 0.7, center=(0.3, -2.0), rotation=0.9),
    "fifty_to_one": lambda: Ellipse(50.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(ELLIPSES))
def test_ellipse_moments_are_the_sampled_ones_in_closed_form(name):
    curve = ELLIPSES[name]()
    origin, exact = curve.moments
    sampled_origin, sampled = ClosedConvexCurve.moments.func(curve)
    scale = max(curve.a, curve.b, *np.abs(curve.center))
    assert np.max(np.abs(origin - sampled_origin)) <= 1e-13 * scale
    s = np.random.default_rng(18).uniform(0.0, TWO_PI, 1000)
    for order in (-1, 0):
        want = sampled(s, order)
        assert np.all(np.abs(exact(s, order) - want) <= 1e-13 * np.max(np.abs(want), axis=0)), order


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.5, 0.7), (50.0, 1.0), (1e-3, 7e5)])
def test_ellipse_area_is_pi_ab(a, b):
    exact = math.pi * a * b
    for curve in (Ellipse(a, b), Ellipse(a, b, center=(1000.0, -500.0), rotation=2.3)):
        assert abs(area(curve) - exact) <= 2.0 * math.ulp(exact)


def test_compute_bundle_uses_no_quadrature():
    # the affine arc table runs the package's only quadrature, and a bundle never builds it
    ellipse, bump3 = Ellipse(2.0, 1.0), FourierRadial(1.0, (0.0, 0.0, 0.1))
    bundles = compute_bundle(ellipse, 1.0, 64), compute_bundle(bump3, 0.8, 64, delta_hat_override=0.8)
    assert all(bundle.illum_centroid is not None for bundle in bundles)
    assert "affine_arc" not in vars(ellipse) and "affine_arc" not in vars(bump3)
