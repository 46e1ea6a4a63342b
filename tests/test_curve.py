import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flotilla
from flotilla.chord import FLOTATION, sweep
from flotilla.cli import RunConfig, compute_bundle
from flotilla.curve import (
    PERIOD,
    AffineFrame,
    AffineImage,
    Ellipse,
    FourierRadial,
    SampledPeriodic,
    area,
    curvature,
    curve_from_json,
    det2,
    dot2,
    norm2,
)
from flotilla.errors import DomainError
from flotilla.floatgeom import flotation_point
from flotilla.homothety import (
    ConstancyReport,
    build_carousel,
    fit_homothety,
    proper_affine_sphere_residual,
)

from oracles import (
    affine_arclength,
    affine_curvature,
    affine_normal,
    chords_at,
    circle_segment_area,
    fourier_radial_derivative,
    random_unimodular_frame,
    riemann_area,
    triangle_area,
)

TWO_PI = 2.0 * math.pi


def sampled_circle(n=256):
    s = np.arange(n) * (TWO_PI / n)
    return SampledPeriodic(np.stack([np.cos(s), np.sin(s)], axis=-1))


class TestPlanarPrimitives:
    @pytest.mark.parametrize("shape", [(256, 2), (2, 256, 2), (2,)])
    def test_norm2_and_dot2_equal_numpys_reductions(self, shape):
        # the two components added directly, bit for bit the sum over the last axis it replaced
        rng = np.random.default_rng(7)
        special = np.array([math.inf, -math.inf, math.nan, 1e30, -1e30, 1e-30, -1e-30, 0.0, -0.0])
        u, v = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape) for _ in range(2))
        for w in (u, v):
            flat, k = w.reshape(-1), min(w.size, 40)
            flat[rng.choice(w.size, size=k, replace=False)] = rng.choice(special, size=k)
        assert np.array_equal(norm2(u), np.sqrt(np.sum(u**2, axis=-1)), equal_nan=True)
        dot, want = dot2(u, v), np.sum(u * v, axis=-1)
        assert np.array_equal(dot, want, equal_nan=True) and np.array_equal(np.signbit(dot), np.signbit(want))


class TestEvaluate:
    """``curve.derivative(s, order)`` at single parameters."""

    def test_circle_point(self, unit_circle):
        assert np.allclose(unit_circle.derivative(0.0, 0), [1.0, 0.0])

    def test_circle_second_derivative(self, unit_circle):
        assert np.allclose(unit_circle.derivative(0.0, 2), [-1.0, 0.0])

    def test_ellipse_first_derivative(self, ellipse21):
        assert np.allclose(ellipse21.derivative(math.pi / 2, 1), [-2.0, 0.0], atol=1e-15)

    def test_periodicity(self, ellipse21):
        for order in range(4):
            a = ellipse21.derivative(0.3, order)
            b = ellipse21.derivative(0.3 + TWO_PI, order)
            assert np.allclose(a, b, atol=1e-12)

    def test_sampled_kind_is_spectral(self):
        sp = sampled_circle()
        probe = 0.7231
        assert np.allclose(sp.derivative(probe, 1), [-math.sin(probe), math.cos(probe)], atol=1e-12)
        assert np.allclose(sp.derivative(probe, 3), [math.sin(probe), -math.cos(probe)], atol=1e-10)


class TestOnGrid:
    """``curve.on_grid(n, orders)``, the derivatives at s_j = j period / n."""

    @pytest.mark.parametrize("kind", ["ellipse", "fourier_radial", "affine_image"])
    def test_analytic_kinds_are_their_derivatives_bit_for_bit(self, kind):
        # the analytic kinds keep their own evaluator on the grid, so their rounding, which the
        # benchmark's run_bump3 reference pins at bump3's flat points, cannot move
        bump3 = FourierRadial(1.0, (0.0, 0.0, 0.1))
        curve = {
            "ellipse": Ellipse(2.0, 1.0, center=(0.3, -0.7), rotation=0.4),
            "fourier_radial": bump3,
            "affine_image": AffineImage(bump3, AffineFrame([[1.0, 0.3], [0.0, -0.8]], (0.2, 0.1))),
        }[kind]
        orders = (0, 1, 2, 3, 4)
        for n in (64, 512):
            grid = np.arange(n) * (PERIOD / n)
            for got, want in zip(curve.on_grid(n, orders), curve.derivatives(grid, orders)):
                assert np.array_equal(got, want)

    def test_sampled_kind_matches_its_derivatives(self):
        # 22 kept modes (r cos u reaches 21): the grids of 64 and 1,024 points take one inverse FFT, and the grid
        # of 16 points, too coarse to hold the series, evaluates it point by point
        u = np.arange(64) * (TWO_PI / 64)
        r = 1.0 + 0.02 * np.cos(2 * u) + 0.01 * np.sin(3 * u) + 0.001 * np.cos(20 * u)
        curve = SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))
        assert len(curve._interp.modes) == 22
        orders = (0, 1, 2)
        for n in (16, 64, 1024):
            grid = np.arange(n) * (PERIOD / n)
            for got, want in zip(curve.on_grid(n, orders), curve.derivatives(grid, orders)):
                assert got.shape == want.shape == (n, 2)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _curvature(curve, s):
    d1, d2 = curve.derivatives(s, (1, 2))
    return curvature(d1, det2(d1, d2))


class TestEuclideanCurvature:
    """``curvature`` of the first derivative and det(first, second)."""

    def test_unit_circle(self, unit_circle):
        assert _curvature(unit_circle, 1.234) == pytest.approx(1.0, rel=1e-14)

    def test_scaling(self):
        big = Ellipse(3.0, 3.0)
        assert _curvature(big, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_ellipse_axis_point(self, ellipse21):
        # analytic: ab / (a^2 sin^2 + b^2 cos^2)^(3/2) at s = 0
        assert _curvature(ellipse21, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_matches_position_finite_differences(self, ellipse21):
        h = 1e-4
        for s in (0.3, 1.1, 2.9, 4.0):
            pts = np.array([ellipse21.derivative(s + k * h, 0) for k in (-2, -1, 0, 1, 2)])
            d1 = (pts[0] - 8 * pts[1] + 8 * pts[3] - pts[4]) / (12 * h)
            d2 = (-pts[0] + 16 * pts[1] - 30 * pts[2] + 16 * pts[3] - pts[4]) / (12 * h**2)
            fd = (d1[0] * d2[1] - d1[1] * d2[0]) / np.linalg.norm(d1) ** 3
            assert fd == pytest.approx(_curvature(ellipse21, s), rel=1e-6)


class TestArea:
    def test_unit_circle(self, unit_circle):
        assert area(unit_circle) == pytest.approx(math.pi, rel=1e-13)

    def test_ellipse(self, ellipse21):
        assert area(ellipse21) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_fourier_against_riemann_oracle(self, bump3):
        assert area(bump3) == pytest.approx(riemann_area(bump3), rel=1e-10, abs=1e-10)


class TestAffineArclength:
    def test_unit_circle_full_period(self, unit_circle):
        assert affine_arclength(unit_circle, 0.0, TWO_PI) == pytest.approx(TWO_PI, rel=1e-12)

    def test_ellipse_full_period(self, ellipse21):
        expected = TWO_PI * 2.0 ** (1.0 / 3.0)
        assert affine_arclength(ellipse21, 0.0, TWO_PI) == pytest.approx(expected, rel=1e-12)

    def test_empty_arc(self, ellipse21):
        assert affine_arclength(ellipse21, 1.0, 1.0) == 0.0

    def test_invariance_under_unimodular_frames(self, ellipse21):
        rng = np.random.default_rng(7)
        base = affine_arclength(ellipse21, 0.2, 2.6)
        for _ in range(100):
            frame = random_unimodular_frame(rng)
            image = AffineImage(ellipse21, frame)
            assert affine_arclength(image, 0.2, 2.6) == pytest.approx(base, rel=1e-8)

    def test_invariance_sampled_kind(self):
        sp = sampled_circle()
        rng = np.random.default_rng(8)
        base = affine_arclength(sp, 0.1, 2.0)
        for _ in range(100):
            image = AffineImage(sp, random_unimodular_frame(rng))
            assert affine_arclength(image, 0.1, 2.0) == pytest.approx(base, rel=1e-6)


class TestAffineArcTable:
    @pytest.mark.parametrize("body", ["ellipse21", "bump3", "sampled", "cos24"])
    def test_arcs_match_the_direct_quadrature(self, body):
        # L(t) - L(s) against affine_arclength, which never reads the table, on
        # arcs that start and end anywhere, wrap past the period and cover it. The
        # oracle takes det2 of the jets, where a radial body's table integrates
        # r^2 + 2 r'^2 - r r''. The table's budget bounds its panel sums, not L
        # inside a half-panel (1.0e-10 relative off on 1 + cos 20u), so 64 more
        # arcs end at points off the panel ends
        if body == "sampled":
            u = np.arange(64) * (TWO_PI / 64)
            r = 1.0 + 0.02 * np.cos(2 * u) + 0.01 * np.sin(3 * u)
            curve = SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))
        elif body == "cos24":  # near its convexity bound 1/577
            curve = FourierRadial(1.0, (0.0,) * 23 + (0.0017,))
        else:
            curve = Ellipse(2.0, 1.0) if body == "ellipse21" else FourierRadial(1.0, (0.0, 0.0, 0.1))
        ends = (np.arange(65) + 0.5 * (math.sqrt(5.0) - 1.0)) * (TWO_PI / 64)
        arcs = [(0.0, TWO_PI), (0.3, 2.9), (1.1, 1.1 + TWO_PI), (5.0, 8.5), (TWO_PI, 9.0), (-1.0, 0.7)]
        arcs += list(zip(ends[:-1], ends[1:]))
        # an absolute 1e-13 lets quad stop at its rounding on the short arcs over bump3's cusps
        reference = np.array([affine_arclength(curve, s, t, abs_tol=1e-13) for s, t in arcs])
        assert "affine_arc" not in vars(curve)
        s, t = np.array(arcs).T
        table = curve.affine_arc
        assert table.total == pytest.approx(reference[0], rel=1e-12)
        assert np.max(np.abs(table(t) - table(s) - reference)) <= 2e-12 * table.total

    def test_radial_table_evaluates_no_jets(self):
        def refuse(s, orders):
            raise AssertionError(f"derivatives{orders} evaluated")

        curve = FourierRadial(1.0, (0.0, 0.0, 0.1))
        curve.derivatives = refuse
        assert curve.affine_arc.total == pytest.approx(FourierRadial(1.0, (0.0, 0.0, 0.1)).affine_arc.total, rel=1e-15)

    def test_ellipse_arc_is_a_line(self):
        # det(g', g'') = ab for any center and rotation, so L(s) = (ab)^(1/3) s needs no table
        curve = Ellipse(2.0, 1.0, center=(0.3, -0.7), rotation=0.4)
        arcs = [(0.0, TWO_PI), (0.3, 2.9), (1.1, 1.1 + TWO_PI), (5.0, 8.5), (-1.0, 0.7)]
        reference = np.array([affine_arclength(curve, s, t) for s, t in arcs])
        s, t = np.array(arcs).T
        assert curve.affine_arc.total == pytest.approx(TWO_PI * 2.0 ** (1.0 / 3.0), rel=1e-15)
        assert curve.affine_arc.total == pytest.approx(reference[0], rel=1e-13)
        assert np.all(np.abs(curve.affine_arc(t) - curve.affine_arc(s) - reference) <= 1e-13 * reference)

    def test_flat_points_converge_in_few_rounds(self):
        # the panels next to bump3's three cusps are cut in eighths: 7 rounds,
        # where halving took 14
        assert FourierRadial(1.0, (0.0, 0.0, 0.1)).affine_arc.rounds <= 8

    def test_the_oracle_runs_no_package_quadrature(self):
        # affine_arclength is scipy's quad, so the oracles import nothing from flotilla.numerics
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "scipy.integrate" in modules and "flotilla.numerics" not in modules

    def test_non_convex_arc_raises(self, monkeypatch):
        # r = 1 + 0.1 cos 4s is past critical convexity; built without the constructor's check,
        # which is the table's (it trusts the constructor's certificate), the oracle finds its dip
        monkeypatch.setattr(FourierRadial, "_validate", lambda self: None)
        with pytest.raises(DomainError, match="non-convex sub-arc"):
            affine_arclength(FourierRadial(1.0, (0.0, 0.0, 0.0, 0.1)), 0.0, TWO_PI)


class TestAffineCurvature:
    def test_unit_circle(self, unit_circle):
        assert affine_curvature(unit_circle, 0.77) == pytest.approx(1.0, rel=1e-12)

    def test_ellipse_is_constant_conic_value(self, ellipse21):
        expected = 2.0 ** (-2.0 / 3.0)
        for s in np.linspace(0, TWO_PI, 17):
            assert affine_curvature(ellipse21, s) == pytest.approx(expected, rel=1e-11)

    def test_unimodular_invariance(self, ellipse21):
        rng = np.random.default_rng(11)
        base = affine_curvature(ellipse21, 1.3)
        for _ in range(100):
            image = AffineImage(ellipse21, random_unimodular_frame(rng))
            assert affine_curvature(image, 1.3) == pytest.approx(base, rel=1e-8)


class TestAffineNormal:
    def test_circle_points_to_center(self, unit_circle):
        assert np.allclose(affine_normal(unit_circle, 0.0), [-1.0, 0.0], atol=1e-14)

    def test_equivariance(self, ellipse21):
        rng = np.random.default_rng(3)
        for _ in range(50):
            frame = random_unimodular_frame(rng, translate=False)
            image = AffineImage(ellipse21, frame)
            expected = frame.apply_vector(affine_normal(ellipse21, 0.9))
            assert np.allclose(affine_normal(image, 0.9), expected, atol=1e-9)

    def test_ellipse_normals_pass_through_center(self):
        ell = Ellipse(2.0, 1.0, center=(0.4, -0.2), rotation=0.3)
        scale = 1e-8 * 2.0
        for s in np.linspace(0, TWO_PI, 33):
            point = ell.derivative(s, 0)
            direction = affine_normal(ell, s)
            miss = abs(det2(direction, np.asarray(ell.center) - point)) / np.linalg.norm(direction)
            assert miss < scale


def circle_chord(theta, frame=None):
    """The one-lane chord from gamma(-theta) to gamma(theta) of the unit circle, or of its image under frame."""
    circle = Ellipse(1.0, 1.0)
    curve = circle if frame is None else AffineImage(circle, frame)
    s = np.array([-theta])
    at_s = curve.derivatives(s, (0, 1, 2))
    return chords_at(curve, FLOTATION, circle_segment_area(theta), s, np.array([theta]), at_s)


class TestAffineDistance:
    """The affine chord length ``Chords.affine_norm_c``: 2 T^(1/3), T the tangent-triangle area."""

    def test_circle_chord_value(self):
        theta = math.pi / 3
        expected = 2.0 * (math.sin(theta) ** 3 / math.cos(theta)) ** (1.0 / 3.0)
        assert circle_chord(theta).affine_norm_c[0] == pytest.approx(expected, rel=1e-14)

    def test_unimodular_invariance(self):
        rng = np.random.default_rng(5)
        base = circle_chord(0.9).affine_norm_c[0]
        for _ in range(100):
            image = circle_chord(0.9, random_unimodular_frame(rng))
            assert image.affine_norm_c[0] == pytest.approx(base, rel=1e-8)

    def test_cube_is_eight_tangent_triangle_areas(self):
        theta = 0.7
        chords = circle_chord(theta)
        # intersection of the two tangent lines
        apex = np.array([1.0 / math.cos(theta), 0.0])
        assert np.allclose(chords.z[0], apex, rtol=0.0, atol=1e-15)
        expected = 8.0 * triangle_area(chords.x[0], chords.y[0], apex)
        assert chords.affine_norm_c[0] ** 3 == pytest.approx(expected, rel=1e-12)

    def test_parallel_directions_rejected(self, unit_circle):
        # a diameter: the end tangents are parallel, so there is no tangent triangle
        s = np.array([0.0])
        at_s = unit_circle.derivatives(s, (0, 1, 2))
        chords = chords_at(unit_circle, FLOTATION, math.pi / 2, s, np.array([math.pi]), at_s)
        assert not chords.apex[0]
        assert np.all(np.isnan(chords.z[0]))
        assert chords.affine_norm_c[0] == math.inf


class TestApplyAffine:
    """``AffineImage(curve, frame)``."""

    def test_identity(self, ellipse21):
        image = AffineImage(ellipse21, AffineFrame(np.eye(2)))
        for s in (0.0, 1.0, 4.5):
            assert np.allclose(image.derivative(s, 0), ellipse21.derivative(s, 0))

    def test_circle_to_ellipse(self, unit_circle, ellipse21):
        image = AffineImage(unit_circle, AffineFrame([[2.0, 0.0], [0.0, 1.0]]))
        for s in np.linspace(0, TWO_PI, 9):
            assert np.allclose(image.derivative(s, 0), ellipse21.derivative(s, 0))

    def test_area_scales_with_determinant(self, unit_circle):
        frame = AffineFrame([[2.0, 0.3], [0.1, 1.5]], (5.0, -2.0))
        image = AffineImage(unit_circle, frame)
        assert area(image) == pytest.approx(abs(frame.determinant) * math.pi, rel=1e-12)

    def test_orientation_restored_for_negative_determinant(self, ellipse21):
        image = AffineImage(ellipse21, AffineFrame([[1.0, 0.0], [0.0, -1.0]]))
        assert area(image) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_singular_frame_rejected(self, unit_circle):
        # a singular frame is bad input, so the command line exits 2 on it
        with pytest.raises(DomainError, match="affine frame must be invertible") as rejected:
            AffineImage(unit_circle, AffineFrame([[1.0, 1.0], [1.0, 1.0]]))
        assert isinstance(rejected.value, ValueError)


class TestValidation:
    def test_convexity_holds_on_fine_grid(self, unit_circle, ellipse21, bump3_small):
        n = 512
        s = np.arange(n) * (TWO_PI / n)
        for curve in (unit_circle, ellipse21, bump3_small):
            d = det2(curve.derivative(s, 1), curve.derivative(s, 2))
            assert np.all(d > 0.0)

    def test_critically_convex_curve_accepted_with_roundoff_zero(self, bump3):
        # r = 1 + 0.1 cos(3s) touches det = 0 at three parameters; the check
        # grid may land on one of them up to floating-point noise
        n = 512
        s = np.arange(n) * (TWO_PI / n)
        d = det2(bump3.derivative(s, 1), bump3.derivative(s, 2))
        assert d.min() > -1e-12 * d.max()
        assert np.sum(d <= 0.0) <= 3

    def test_nonconvex_fourier_rejected(self):
        with pytest.raises(DomainError, match="not strongly convex"):
            FourierRadial(1.0, (0.0, 0.0, 0.0, 0.1))

    @settings(deadline=None, max_examples=40)
    @given(phase=st.floats(0.0, TWO_PI), log_rho=st.floats(-9.0, -2.0))
    def test_a_dip_between_grid_points_is_rejected(self, phase, log_rho):
        # r = 1 + eps cos(5s - phase) is convex up to eps = 1/26. Past it, at eps = (1 + rho) / 26,
        # det(g', g'') = 1 + 27 eps c + 50 eps^2 - 24 eps^2 c^2, c = cos(5s - phase), reads
        # (1 - eps)(1 - 26 eps) = -(1 - eps) rho at c = -1, between the grid points for most
        # phases, and min/max det is -(1 - eps) rho / ((1 + eps)(1 + 26 eps)). The sampled grid
        # used to accept rho up to 1e-5, with min/max det at -4.6e-6
        rho = 10.0**log_rho
        eps = (1.0 + rho) / 26.0
        assert -(1.0 - eps) * rho / ((1.0 + eps) * (1.0 + 26.0 * eps)) < -1e-12
        with pytest.raises(DomainError, match="not strongly convex") as rejected:
            FourierRadial(1.0, (0.0,) * 4 + (eps * math.cos(phase),), (0.0,) * 4 + (eps * math.sin(phase),))
        # the minimum the error names is the polished one, not a grid sample's
        reported = float(re.search(r"\(min (\S+)\)", str(rejected.value)).group(1))
        assert reported == pytest.approx(-(1.0 - eps) * rho, rel=2e-3)

    @pytest.mark.parametrize(
        "body", ["bump3", "bump3_small", "ellipse_config", "bump3_config", "run_sampled_seed1", "circle_samples64"]
    )
    def test_convex_bodies_are_accepted(self, monkeypatch, body):
        # bump3 touches det = 0 at three flat points, off the grid at s = pi/3 and 5 pi/3; the
        # samples of a circle hold det constant to rounding, with no minimum to polish
        root = Path(__file__).resolve().parent.parent
        if body in ("bump3", "bump3_small"):
            FourierRadial(1.0, (0.0, 0.0, 0.1 if body == "bump3" else 0.05))
        elif body == "circle_samples64":
            sampled_circle(64)
        else:
            if body == "run_sampled_seed1":
                monkeypatch.syspath_prepend(str(root / "perfbench"))
                import workloads

                config = json.loads(workloads.sampled_config(1))
            else:
                name = "ellipse" if body == "ellipse_config" else "perturbed_circle"
                config = json.loads((root / "configs" / f"{name}.json").read_text())
            curve_from_json(config["curveSpec"])

    def test_clockwise_samples_rejected(self):
        s = np.arange(64) * (TWO_PI / 64)
        with pytest.raises(DomainError, match="not strongly convex"):
            SampledPeriodic(np.stack([np.cos(-s), np.sin(-s)], axis=-1))

    def test_nonfinite_zero_padded_coefficient_rejected(self):
        with pytest.raises(DomainError):
            FourierRadial(1.0, (0.0, math.nan, 0.0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"a": -1.0}, "must be positive"),
            # rounding swamps det(gamma', gamma'') = ab, or |gamma'|^2 underflows
            ({"a": 1.0, "b": 1e-17, "rotation": 0.3}, "too small or too unequal"),
            ({"a": 1e-162, "b": 1e-162}, "too small or too unequal"),
        ],
        ids=["negative_axis", "eccentric", "tiny"],
    )
    def test_ellipse_rejected_without_sampling(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            Ellipse(**{"a": 1.0, "b": 1.0, **kwargs})

    def test_closedness_of_derivatives(self, bump3):
        for order in range(4):
            a = bump3.derivative(0.0, order)
            b = bump3.derivative(TWO_PI, order)
            assert np.allclose(a, b, atol=1e-12)


class TestConvexity:
    """``curve.convexity(s)``, det(g'(s), g''(s)): a radial body's from r alone, every other kind's from its jets."""

    @pytest.mark.parametrize(
        "cos_coeffs, sin_coeffs", [((0.0, 0.0, 0.1), ()), ((0.0, 0.0, 0.05), (0.0, 0.0, 0.0, 0.0, 0.02))], ids=["bump3", "mixed"]
    )
    def test_radial_closed_form_equals_the_jets(self, monkeypatch, cos_coeffs, sin_coeffs):
        # the identity holds for any r: the mixed body dips to det -7.2e-4, so it is built without the constructor's check
        monkeypatch.setattr(FourierRadial, "_validate", lambda self: None)
        curve = FourierRadial(1.0, cos_coeffs, sin_coeffs)
        # bump3's flat points are s = pi/3, pi and 5 pi/3, on the grid of 3,072 points
        s = np.concatenate([np.arange(3073) * (TWO_PI / 3072), [math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0, -1.3, 7.9]])
        jets = det2(*curve.derivatives(s, (1, 2)))
        assert np.max(np.abs(curve.convexity(s) - jets)) <= 1e-13 * np.max(jets)

    def test_other_kinds_take_the_jets(self):
        u = np.arange(48) * (TWO_PI / 48)
        r = 1.0 + 0.03 * np.cos(2 * u)
        frame = AffineFrame(np.array([[1.2, 0.3], [0.4, -0.9]]), np.array([0.5, -1.5]))
        s = np.concatenate([np.arange(97) * (TWO_PI / 96), [-1.3, 7.9]])
        for curve in (
            SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1)),
            AffineImage(FourierRadial(1.0, (0.0, 0.0, 0.1)), frame),
        ):
            assert np.array_equal(curve.convexity(s), det2(*curve.derivatives(s, (1, 2))))


class TestFourierRadialTerms:
    """Only the nonzero harmonics are evaluated; adding a zero term is exact."""

    @pytest.mark.parametrize(
        "r0, cos_coeffs, sin_coeffs",
        [(1.0, (0.0, 0.0, 0.1), ()), (1.0, (0.0, 0.02, 0.0, 0.01), (0.03, 0.0, -0.015))],
        ids=["bump3", "mixed"],
    )
    def test_derivatives_equal_every_harmonic_loop(self, r0, cos_coeffs, sin_coeffs):
        curve = FourierRadial(r0, cos_coeffs, sin_coeffs)
        s = np.concatenate([np.arange(257) * (TWO_PI / 256), [-1.3, 7.9, math.pi]])
        for order in range(5):
            expected = fourier_radial_derivative(r0, cos_coeffs, sin_coeffs, s, order)
            assert np.array_equal(curve.derivative(s, order), expected)


class TestOneEvaluator:
    """Each kind has one evaluator, derivatives(s, orders); derivative(s, k) is its one-order case."""

    @staticmethod
    def kinds():
        u = np.arange(48) * (TWO_PI / 48)
        samples = np.stack([(1.0 + 0.03 * np.cos(2 * u)) * np.cos(u), (1.0 + 0.03 * np.cos(2 * u)) * np.sin(u)], axis=-1)
        reflect = AffineFrame(np.array([[1.2, 0.3], [0.4, -0.9]]), np.array([0.5, -1.5]))
        assert reflect.determinant < 0.0
        return {
            "ellipse": Ellipse(2.0, 1.0),
            "rotated_translated_ellipse": Ellipse(1.5, 0.7, center=np.array([0.3, -2.0]), rotation=0.9),
            "fourier_radial": FourierRadial(1.0, (0.0, 0.02, 0.0, 0.01), (0.03, 0.0, -0.015)),
            "sampled": SampledPeriodic(samples),
            "reversing_affine_image": AffineImage(FourierRadial(1.0, (0.0, 0.0, 0.1)), reflect),
        }

    @pytest.mark.parametrize(
        "kind", ["ellipse", "rotated_translated_ellipse", "fourier_radial", "sampled", "reversing_affine_image"]
    )
    def test_each_order_equals_its_one_order_call(self, kind):
        curve = self.kinds()[kind]
        s = np.concatenate([np.arange(97) * (TWO_PI / 96), [-1.3, 7.9, math.pi]])
        for orders in ((0, 1, 2, 3, 4), (2, 0), (4, 1, 3), (1,)):
            for shape in (s, s.reshape(2, -1), s[:1], float(s[5])):
                values = curve.derivatives(shape, orders)
                assert len(values) == len(orders)
                for order, value in zip(orders, values):
                    assert np.array_equal(value, curve.derivative(shape, order)), (orders, order)

    def test_ellipse_quarter_turns_match_the_phase_form(self):
        # order k is (a cos, b sin) at s + k pi/2, rotated and, for k = 0, translated
        curve = self.kinds()["rotated_translated_ellipse"]
        s = np.linspace(-4.0, 10.0, 301)
        c, r = math.cos(curve.rotation), math.sin(curve.rotation)
        for order, value in enumerate(curve.derivatives(s, range(5))):
            phase = s + order * (math.pi / 2.0)
            xy = np.stack([curve.a * np.cos(phase), curve.b * np.sin(phase)], axis=-1) @ np.array([[c, -r], [r, c]]).T
            expected = xy + curve.center if order == 0 else xy
            assert np.max(np.abs(value - expected)) < 1e-14


class TestJson:
    def test_round_trip_ellipse(self):
        # every field of the spec reaches the curve unchanged
        curve = curve_from_json({"kind": "ellipse", "a": 2.0, "b": 1.0, "center": [0.1, 0.2], "rotation": 0.4})
        assert isinstance(curve, Ellipse)
        assert (curve.a, curve.b, curve.center.tolist(), curve.rotation) == (2.0, 1.0, [0.1, 0.2], 0.4)

    def test_round_trip_fourier(self):
        curve = curve_from_json({"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, 0.05], "sin": [0.01]})
        assert isinstance(curve, FourierRadial)
        assert (curve.r0, curve.cos_coeffs, curve.sin_coeffs) == (1.0, (0.0, 0.0, 0.05), (0.01,))

    def test_samples_kind(self):
        s = np.arange(64) * (TWO_PI / 64)
        pts = np.stack([np.cos(s), np.sin(s)], axis=-1)
        curve = curve_from_json({"kind": "samples", "points": pts.tolist()})
        assert isinstance(curve, SampledPeriodic)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            curve_from_json({"kind": "superellipse"})

    @pytest.mark.parametrize(
        "spec, key",
        [
            # a misspelled rotation used to build the unrotated ellipse
            ({"kind": "ellipse", "a": 2, "b": 1, "rotaton": 0.4}, "rotaton"),
            ({"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, 0.05], "sine": [0.01]}, "sine"),
            ({"kind": "samples", "points": [[1.0, 0.0]] * 8, "period": 1.0}, "period"),
        ],
    )
    def test_unknown_key_named(self, spec, key):
        with pytest.raises(DomainError, match=repr(key)):
            curve_from_json(spec)


@settings(deadline=None, max_examples=30)
@given(
    phi=st.floats(0.0, TWO_PI),
    m=st.floats(0.75, 1.35),
    theta=st.floats(0.2, 1.3),
)
def test_affine_distance_invariance_property(phi, m, theta):
    c, s = math.cos(phi), math.sin(phi)
    matrix = np.array([[c, -s], [s, c]]) @ np.diag([m, 1.0 / m])
    frame = AffineFrame(matrix, (0.3, -0.1))
    base, image = circle_chord(theta), circle_chord(theta, frame)
    assert np.allclose(image.x, frame.apply(base.x), rtol=0.0, atol=1e-14)  # the image of the same chord
    assert image.affine_norm_c[0] == pytest.approx(base.affine_norm_c[0], rel=1e-9)


SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

# one builder per record class; a dataclass's generated __eq__ raised on ndarray fields, and
# FourierRadial's made it unhashable
RECORDS = {
    "AffineFrame": lambda: AffineFrame([[1.0, 0.2], [0.0, 1.0]]),
    "Chords": lambda: sweep(Ellipse(2.0, 1.0), FLOTATION, 1.0, 16),
    "Ellipse": lambda: Ellipse(2.0, 1.0),
    "FourierRadial": lambda: FourierRadial(1.0, (0.0, 0.0, 0.1)),
    "SampledPeriodic": lambda: SampledPeriodic(Ellipse(2.0, 1.0).derivative(np.arange(32) * (TWO_PI / 32), 0)),
    "AffineImage": lambda: AffineImage(Ellipse(2.0, 1.0), AffineFrame(np.eye(2))),
    "HomothetyFit": lambda: fit_homothety(SQUARE, 2.0 * SQUARE + 1.0),
    "ConcurrencyFit": lambda: proper_affine_sphere_residual(SQUARE, -SQUARE),
    "DerivedCurve": lambda: flotation_point(sweep(Ellipse(2.0, 1.0), FLOTATION, 1.0, 16)),
    "ConstancyReport": lambda: ConstancyReport.from_values([1.0, 2.0]),
    "Carousel": lambda: build_carousel(Ellipse(2.0, 1.0), 1, 3),
    "RunConfig": lambda: RunConfig({"kind": "ellipse", "a": 2.0, "b": 1.0}, [1.0]),
    "DeltaBundle": lambda: compute_bundle(Ellipse(2.0, 1.0), 1.0, 16),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_by_identity(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a) != hash(b)
    assert {a: name}[a] == name


def test_no_module_imports_dataclasses():
    # every record is a plain class: importing dataclasses, and each decoration generating and exec'ing
    # its methods, cost every CLI call about a millisecond of import
    importers = []
    for path in sorted(Path(flotilla.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            importers += [path.name for name in names if name.split(".")[0] == "dataclasses"]
    assert importers == []
