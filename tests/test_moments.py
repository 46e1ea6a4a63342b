"""Closed-form cap and cone areas and centroids against the quadrature reference.

The package computes every cap and cone area and centroid from one cached
moment antiderivative per curve (Green's theorem). These tests compare those
closed forms with a fixed Gauss-Legendre rule over the arc on bodies of all
four curve kinds, and guard that the chord solvers use no adaptive quadrature.
"""

import math
import sys

import numpy as np
import pytest

from flotilla.chord import (
    cap_area,
    cone_area,
    solve_flotation_chord,
    solve_silhouette_chord,
    tangent_intersection,
)
from flotilla.cli import compute_bundle
from flotilla.curve import AffineFrame, Ellipse, FourierRadial, SampledPeriodic, apply_affine, area
from flotilla.floatgeom import buoyancy_point
from flotilla.illumgeom import illumination_centroid_point

from oracles import quadrature_cap, quadrature_cone

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
    return apply_affine(FourierRadial(1.0, (0.0, 0.0, 0.1)), frame)


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
    assert np.max(np.abs(buoyancy_point(cm, delta).points[0] - centroid)) < CENTROID_TOL


@pytest.mark.parametrize("s", [0.3, 2.0, 4.4])
def test_illumination_centroid_matches_quadrature_centroid(body, s):
    delta_hat = 0.1 * area(body)
    cm = solve_silhouette_chord(body, s, delta_hat)
    _, centroid = quadrature_cone(body, cm.s[0], cm.t[0], cm.z[0])
    assert np.max(np.abs(illumination_centroid_point(cm, delta_hat).points[0] - centroid)) < CENTROID_TOL


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


def test_compute_bundle_uses_no_quadrature(monkeypatch):
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return quadrature(*args, **kwargs)

    quadrature = sys.modules["flotilla.numerics"].panel_quadrature
    for name, module in list(sys.modules.items()):
        if name.startswith("flotilla") and getattr(module, "panel_quadrature", None) is quadrature:
            monkeypatch.setattr(module, "panel_quadrature", counting)
    ellipse = compute_bundle(Ellipse(2.0, 1.0), 1.0, 64)
    bump3 = compute_bundle(FourierRadial(1.0, (0.0, 0.0, 0.1)), 0.8, 64, delta_hat_override=0.8)
    assert ellipse.illum_centroid is not None and bump3.illum_centroid is not None
    assert calls == 0
