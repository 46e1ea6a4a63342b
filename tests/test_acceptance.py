"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Sweeps run at N = 512 samples. Expected values are computed from the
closed-form circle oracles in tests/oracles.py or frozen from the first
verified run (regression values for the generic-failure cases).
"""

import math

import numpy as np
import pytest

from flotilla.chord import (
    FLOTATION,
    ILLUMINATION,
    sweep,
)
from flotilla.curve import (
    AffineImage,
    det2,
    norm2,
)
from flotilla.floatgeom import (
    buoyancy_point,
    flotation_point,
    illumination_centroid_point,
    illumination_point,
    kappa_prime_buoyancy,
    kappa_prime_flotation,
    omega_identity_residual,
)
from flotilla.homothety import (
    affine_cut_length_report,
    chord_cube_report,
    duality_parameters,
    endpoint_balance_residual,
    fit_homothety,
    radon_check,
    build_carousel,
)

from limit_convergence import hausdorff_distance, intersection_body_polar
from oracles import (
    affine_arclength,
    affine_curvature,
    affine_cut_rate,
    buoyancy_affine_normal_check,
    circle_buoyancy_kappa,
    circle_cone_area,
    circle_flotation_kappa,
    circle_illumination_centroid_kappa,
    circle_illumination_kappa,
    circle_segment_area,
    fd4_derivative,
    petty_condition_report,
    random_unimodular_frame,
    solve_flotation_chord,
    solve_silhouette_chord,
)

TWO_PI = 2.0 * math.pi
N = 512
THETA = math.pi / 3
DELTA = circle_segment_area(THETA)
DELTA_HAT = circle_cone_area(THETA)

# frozen regression values (first verified run, bump3 = 1 + 0.1 cos 3s at delta = 0.8)
FROZEN_BUMP3_THM1_CV = 0.4072766058632894
FROZEN_BUMP3_FIT_RESIDUAL_OVER_DIAMETER = 0.08942784114353963
# normalised endpoint balance; the earlier unnormalised form gave 20.2554337665353,
# which rescaled by k(s) k(t) / (larger term) per probe gives this same value
FROZEN_BUMP3_BALANCE_PROBE_MAX = 0.9332652899078068
FROZEN_BUMP3_CUT_CV = 0.04801038862786794
FROZEN_SYM4_RADON = 0.36128701327095314

# probe parameters for the critically convex bump3: its boundary has flat
# points at s = pi/3, pi, 5*pi/3 where curvature quotients degenerate
BUMP3_PROBES = (0.3, 0.6, 1.5, 1.9, 2.5, 2.9, 3.6, 4.0, 4.6, 5.0, 5.7, 6.1)


def _report(num, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def circle_flot(unit_circle):
    return sweep(unit_circle, FLOTATION, DELTA, N)


@pytest.fixture(scope="module")
def circle_illum(unit_circle):
    return sweep(unit_circle, ILLUMINATION, DELTA_HAT, N)


@pytest.fixture(scope="module")
def ellipse_flot(ellipse21):
    return sweep(ellipse21, FLOTATION, 1.0, N)


@pytest.fixture(scope="module")
def ellipse_lambda(ellipse21, ellipse_flot):
    _, lam = chord_cube_report(ellipse_flot)
    return lam


@pytest.fixture(scope="module")
def ellipse_illum(ellipse21, ellipse_lambda):
    delta_hat, _ = duality_parameters(1.0, ellipse_lambda)
    return sweep(ellipse21, ILLUMINATION, delta_hat, N)


@pytest.fixture(scope="module")
def bump3_flot(bump3):
    return sweep(bump3, FLOTATION, 0.8, N)


@pytest.fixture(scope="module")
def bump3_illum(bump3):
    return sweep(bump3, ILLUMINATION, 0.8, N)


def test_criterion_01_circle_closed_form_curvatures(unit_circle):
    cm_f = solve_flotation_chord(unit_circle, 0.35, DELTA)
    cm_i = solve_silhouette_chord(unit_circle, 0.35, DELTA_HAT)
    values = {
        "kappa1": (flotation_point(cm_f).kappa[0], circle_flotation_kappa(THETA)),
        "kappa2": (buoyancy_point(cm_f).kappa[0], circle_buoyancy_kappa(THETA)),
        "kappa3": (illumination_point(cm_i).kappa[0], circle_illumination_kappa(THETA)),
        "kappa4": (
            illumination_centroid_point(cm_i).kappa[0],
            circle_illumination_centroid_kappa(THETA),
        ),
    }
    worst = max(abs(got / want - 1.0) for got, want in values.values())
    _report(
        1,
        worst < 1e-7,
        f"circle curvatures k1..k4 vs analytic oracles, worst rel err {worst:.3e} "
        f"(k1={values['kappa1'][0]:.9f}, k2={values['kappa2'][0]:.9f}, "
        f"k3={values['kappa3'][0]:.9f}, k4={values['kappa4'][0]:.9f})",
    )


def test_criterion_02_half_disk_buoyancy(unit_circle):
    chords = sweep(unit_circle, FLOTATION, math.pi / 2.0, 128)
    radius_expect = 4.0 / (3.0 * math.pi)
    buoyancy = buoyancy_point(chords)
    worst_r = float(np.max(np.abs(np.linalg.norm(buoyancy.points, axis=1) - radius_expect)))
    worst_k = float(np.max(np.abs(buoyancy.kappa - 3.0 * math.pi / 4.0)))
    ok = worst_r < 1e-8 and worst_k < 1e-8
    _report(2, ok, f"half-disk centroid circle: radius err {worst_r:.3e}, kappa err {worst_k:.3e}")


def test_criterion_03_dupin_tangency_suite(
    circle_flot, circle_illum, ellipse_flot, ellipse_illum, bump3_flot, bump3_illum
):
    def tangency(family, chords):
        nt = norm2(family.tangents)
        live = nt != 0.0
        residual = np.abs(det2(family.tangents[live], chords.c[live])) / (nt[live] * chords.norm_c[live])
        return float(residual.max(initial=0.0))

    worst = 0.0
    for chords in (circle_flot, ellipse_flot, bump3_flot):
        worst = max(worst, tangency(flotation_point(chords), chords))
        worst = max(worst, tangency(buoyancy_point(chords), chords))
    for chords in (circle_illum, ellipse_illum, bump3_illum):
        worst = max(worst, tangency(illumination_point(chords), chords))
        worst = max(worst, tangency(illumination_centroid_point(chords), chords))
    _report(3, worst < 1e-9, f"tangent-parallel-to-chord residual over 4 families x 3 bodies: {worst:.3e}")


def test_criterion_04_fd_cross_checks(
    unit_circle, ellipse21, bump3, circle_flot, circle_illum, ellipse_flot, ellipse_illum, bump3_flot
):
    h = TWO_PI / N

    def fd_kappa_err(family):
        pts, kap = family.points, family.kappa
        d1 = fd4_derivative(pts, h, 1)
        d2 = fd4_derivative(pts, h, 2)
        fd = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / np.sum(d1**2, axis=1) ** 1.5
        return float(np.max(np.abs(fd / kap - 1.0)))

    def fd_kprime_err(family, closed):
        pts, kap = family.points, family.kappa
        dk = fd4_derivative(kap, h, 1)
        speed = np.linalg.norm(fd4_derivative(pts, h, 1), axis=1)
        fd = dk / speed
        scale = max(1.0, float(np.max(np.abs(closed))))
        return float(np.max(np.abs(fd - closed)) / scale)

    worst_k = 0.0
    for chords in (circle_flot, ellipse_flot, bump3_flot):
        worst_k = max(worst_k, fd_kappa_err(flotation_point(chords)))
        worst_k = max(worst_k, fd_kappa_err(buoyancy_point(chords)))
    for chords in (circle_illum, ellipse_illum):
        worst_k = max(worst_k, fd_kappa_err(illumination_point(chords)))
        worst_k = max(worst_k, fd_kappa_err(illumination_centroid_point(chords)))

    worst_kp = 0.0
    for chords in (circle_flot, ellipse_flot, bump3_flot):
        kp1 = kappa_prime_flotation(chords)
        kp2 = kappa_prime_buoyancy(chords)
        worst_kp = max(worst_kp, fd_kprime_err(flotation_point(chords), kp1))
        worst_kp = max(worst_kp, fd_kprime_err(buoyancy_point(chords), kp2))

    ok = worst_k < 1e-4 and worst_kp < 1e-3
    _report(4, ok, f"FD cross-checks: kappa rel err {worst_k:.3e} (<1e-4), kappa' err {worst_kp:.3e} (<1e-3)")


def test_criterion_05_omega_identity(unit_circle, ellipse21, bump3_small):
    worst = 0.0
    for curve in (unit_circle, ellipse21, bump3_small):
        for delta in (0.3, 0.8):
            chords = sweep(curve, FLOTATION, delta, 256)
            worst = max(worst, omega_identity_residual(chords, buoyancy_point(chords).points))
    _report(5, worst < 1e-6, f"flotation-deficit / buoyancy-affine-length identity residual {worst:.3e}")


def test_criterion_06_affine_normal_proposition(unit_circle, ellipse21, bump3_small):
    worst_angle = 0.0
    worst_mag = 0.0
    for curve, delta in ((unit_circle, DELTA), (ellipse21, 1.0), (bump3_small, 0.8)):
        angle, mag = buoyancy_affine_normal_check(sweep(curve, FLOTATION, delta, 64))
        live = ~np.isnan(angle)
        worst_angle = max(worst_angle, float(angle[live].max(initial=0.0)))
        worst_mag = max(worst_mag, float(mag[live].max(initial=0.0)))
    ok = worst_angle < 1e-6 and worst_mag < 1e-5
    _report(6, ok, f"buoyancy affine normal: angle err {worst_angle:.3e} rad, magnitude err {worst_mag:.3e}")


def test_criterion_07_homothety_biconditional(ellipse21, ellipse_flot, bump3, bump3_flot):
    rep_e, lam_e = chord_cube_report(ellipse_flot)
    fit_e = fit_homothety(flotation_point(ellipse_flot).points, buoyancy_point(ellipse_flot).points)
    pts = flotation_point(ellipse_flot).points
    diam_e = float(norm2(pts.max(axis=0) - pts.min(axis=0)))
    ok_pass = (
        rep_e.coefficient_of_variation < 1e-8
        and fit_e.rms_residual < 1e-8 * diam_e
        and abs(fit_e.ratio - lam_e) < 1e-6
    )

    rep_b, _ = chord_cube_report(bump3_flot)
    fit_b = fit_homothety(flotation_point(bump3_flot).points, buoyancy_point(bump3_flot).points)
    pts_b = flotation_point(bump3_flot).points
    diam_b = float(norm2(pts_b.max(axis=0) - pts_b.min(axis=0)))
    resid_ratio = fit_b.rms_residual / diam_b
    ok_fail = (
        rep_b.coefficient_of_variation > 1e-3
        and resid_ratio > 1e-3
        and rep_b.coefficient_of_variation == pytest.approx(FROZEN_BUMP3_THM1_CV, rel=1e-6)
        and resid_ratio == pytest.approx(FROZEN_BUMP3_FIT_RESIDUAL_OVER_DIAMETER, rel=1e-6)
    )
    _report(
        7,
        ok_pass and ok_fail,
        f"ellipse: CV {rep_e.coefficient_of_variation:.2e}, fit rms/diam {fit_e.rms_residual/diam_e:.2e}, "
        f"|ratio-lambda| {abs(fit_e.ratio-lam_e):.2e}; perturbed circle: CV {rep_b.coefficient_of_variation:.6f}, "
        f"rms/diam {resid_ratio:.6f} (both frozen)",
    )


def test_criterion_08_duality(ellipse21, ellipse_flot, ellipse_lambda, ellipse_illum):
    delta_hat, lam_hat = duality_parameters(1.0, ellipse_lambda)
    worst = float(np.max(norm2(ellipse_flot.z - ellipse_illum.z)))
    pts = ellipse_illum.z
    diameter = float(norm2(pts.max(axis=0) - pts.min(axis=0)))
    pointwise_ok = worst < 1e-6 * diameter
    # scalar relations, with the illumination ratio measured from its own sweep
    rep_i, lam_hat_swept = chord_cube_report(ellipse_illum)
    rel1 = abs(1.0 / lam_hat_swept + 2.0 / ellipse_lambda - 3.0)
    rel2 = abs(1.0 / (delta_hat * lam_hat_swept) - 2.0 / (1.0 * ellipse_lambda))
    scalars_ok = rel1 < 1e-9 and rel2 < 1e-9 * abs(2.0 / ellipse_lambda)
    _report(
        8,
        pointwise_ok and scalars_ok,
        f"polarity image of flotation boundary vs illumination boundary: {worst/diameter:.3e} of diameter; "
        f"ratio relations {rel1:.2e}, {rel2:.2e}",
    )


def test_criterion_09_cut_length_equivalence(ellipse21, ellipse_flot, bump3, bump3_flot):
    worst_balance_e = float(np.max(np.abs(endpoint_balance_residual(ellipse_flot))))
    rep_e = affine_cut_length_report(ellipse_flot)
    ok_e = worst_balance_e < 1e-8 and rep_e.coefficient_of_variation < 1e-8

    worst_balance_b = max(
        abs(endpoint_balance_residual(solve_flotation_chord(bump3, s, 0.8))[0]) for s in BUMP3_PROBES
    )
    rep_b = affine_cut_length_report(bump3_flot)
    ok_b = (
        worst_balance_b == pytest.approx(FROZEN_BUMP3_BALANCE_PROBE_MAX, rel=1e-6)
        and rep_b.coefficient_of_variation == pytest.approx(FROZEN_BUMP3_CUT_CV, rel=1e-6)
        and worst_balance_b > 1e-3
        and rep_b.coefficient_of_variation > 1e-3
    )

    # derivative identity at probe points (finite differences of fresh solves);
    # probes stay away from the flat points where the rate is merely Holder
    h = 1e-4
    worst_link = 0.0
    for curve, delta, probes in ((ellipse21, 1.0, (0.4, 1.2, 2.2, 3.3)), (bump3, 0.8, BUMP3_PROBES)):
        for s in probes:
            cm = solve_flotation_chord(curve, s, delta)
            cp = solve_flotation_chord(curve, s + h, delta)
            cmm = solve_flotation_chord(curve, s - h, delta)
            fd = (
                affine_arclength(curve, cp.s[0], cp.t[0], rel_tol=1e-11)
                - affine_arclength(curve, cmm.s[0], cmm.t[0], rel_tol=1e-11)
            ) / (2 * h)
            rate = affine_cut_rate(cm)[0]
            worst_link = max(worst_link, abs(fd - rate) / max(1.0, abs(rate)))
    ok_link = worst_link < 1e-6
    _report(
        9,
        ok_e and ok_b and ok_link,
        f"ellipse endpoint balance {worst_balance_e:.2e} / cut CV {rep_e.coefficient_of_variation:.2e}; perturbed circle "
        f"endpoint balance {worst_balance_b:.4f} / cut CV {rep_b.coefficient_of_variation:.6f} (frozen); rate identity {worst_link:.2e}",
    )


def test_criterion_10_carousel(unit_circle, ellipse21):
    car_c = build_carousel(unit_circle, 1, 3)
    ok_circle = (
        abs(car_c.delta - DELTA) < 1e-9
        and car_c.lambda_report.max_abs_deviation < 1e-8
        and abs(car_c.lambda_report.mean - 1.0) < 1e-8
        and car_c.centroid_drift_max < 1e-9
    )
    car_e = build_carousel(ellipse21, 1, 3)
    ok_ellipse = abs(car_e.delta - 2.0 * DELTA) < 1e-9 and car_e.centroid_drift_max < 1e-8
    _report(
        10,
        ok_circle and ok_ellipse,
        f"3-chair carousel: circle delta* {car_c.delta:.12f} (analytic {DELTA:.12f}), drift {car_c.centroid_drift_max:.2e}; "
        f"ellipse delta* {car_e.delta:.12f} (2x circle), drift {car_e.centroid_drift_max:.2e}",
    )


def test_criterion_11_polar_dual_limits(unit_circle, sym_cos2):
    dual_c = intersection_body_polar(unit_circle, n_samples=512)
    s = np.arange(512) * (TWO_PI / 512)
    exact = 0.5 * np.stack([-np.sin(s), np.cos(s)], axis=-1)
    exact_err = float(np.max(norm2(dual_c.points - exact)))
    ok_exact = exact_err < 1e-12

    ok_decreasing = True
    detail = []
    for curve in (unit_circle, sym_cos2):
        from flotilla.curve import area

        half = area(curve) / 2.0
        dual = intersection_body_polar(curve, n_samples=512)
        dists = []
        for eps in (0.1, 0.05, 0.025):
            chords = sweep(curve, FLOTATION, half - eps, 512)
            pts = 0.5 * (chords.x + chords.y) / eps
            dists.append(hausdorff_distance(pts, dual.points))
        ok_decreasing = ok_decreasing and dists[0] > dists[1] > dists[2]
        detail.append("[" + ", ".join(f"{d:.2e}" for d in dists) + "]")
    _report(
        11,
        ok_exact and ok_decreasing,
        f"polar dual of circle exact to {exact_err:.2e}; scaled flotation Hausdorff sequences {detail[0]} and {detail[1]}",
    )


def test_criterion_12_radon_petty(ellipse21, sym_cos4):
    radon_e = radon_check(ellipse21, 128)
    petty_e = petty_condition_report(ellipse21)
    ok_e = (
        radon_e < 1e-9
        and petty_e.coefficient_of_variation < 1e-10
        and petty_e.mean == pytest.approx(4.0, rel=1e-10)
    )
    radon_f = radon_check(sym_cos4, 256)
    ok_f = radon_f > 1e-3 and radon_f == pytest.approx(FROZEN_SYM4_RADON, rel=1e-6)
    _report(
        12,
        ok_e and ok_f,
        f"ellipse radon {radon_e:.2e}, petty mean {petty_e.mean:.12f} CV {petty_e.coefficient_of_variation:.2e}; "
        f"non-Radon curve residual {radon_f:.6f} (frozen)",
    )


def test_criterion_13_affine_equivariance_meta_suite(ellipse21):
    rng = np.random.default_rng(2024)
    delta = 1.0
    _, lam = chord_cube_report(sweep(ellipse21, FLOTATION, delta, 128))
    delta_hat, _ = duality_parameters(delta, lam)
    probes = np.linspace(0.1, TWO_PI, 8, endpoint=False)

    base = {}
    for s in probes:
        cm_f = solve_flotation_chord(ellipse21, s, delta)
        cm_i = solve_silhouette_chord(ellipse21, s, delta_hat)
        base[s] = {
            "r1": flotation_point(cm_f).points[0],
            "r2": buoyancy_point(cm_f).points[0],
            "r3": illumination_point(cm_i).points[0],
            "r4": illumination_centroid_point(cm_i).points[0],
            "chord_affine_len": cm_f.affine_norm_c[0],
            "cut_arc": affine_arclength(ellipse21, cm_f.s[0], cm_f.t[0]),
            "affine_curv": float(affine_curvature(ellipse21, s)),
            "endpoint_balance": endpoint_balance_residual(cm_f)[0],
        }
    pts = np.array([v["r3"] for v in base.values()])
    diameter = float(norm2(pts.max(axis=0) - pts.min(axis=0)))

    worst_point = 0.0
    worst_scalar = 0.0
    for _ in range(20):
        frame = random_unimodular_frame(rng)
        image = AffineImage(ellipse21, frame)
        for s in probes:
            cm_f = solve_flotation_chord(image, s, delta)
            cm_i = solve_silhouette_chord(image, s, delta_hat)
            got = {
                "r1": flotation_point(cm_f).points[0],
                "r2": buoyancy_point(cm_f).points[0],
                "r3": illumination_point(cm_i).points[0],
                "r4": illumination_centroid_point(cm_i).points[0],
            }
            for key in got:
                err = float(norm2(got[key] - frame.apply(base[s][key])))
                worst_point = max(worst_point, err)
            scalars = {
                "chord_affine_len": cm_f.affine_norm_c[0],
                "cut_arc": affine_arclength(image, cm_f.s[0], cm_f.t[0]),
                "affine_curv": float(affine_curvature(image, s)),
                "endpoint_balance": endpoint_balance_residual(cm_f)[0],
            }
            for key, val in scalars.items():
                # the balance residual is a difference of O(1) terms vanishing on conics;
                # its invariance scale is the terms', not the residual's
                scale = max(1.0 if key == "endpoint_balance" else 1e-9, abs(base[s][key]))
                worst_scalar = max(worst_scalar, abs(val - base[s][key]) / scale)
    ok = worst_point < 1e-7 * diameter and worst_scalar < 1e-7
    _report(
        13,
        ok,
        f"20 unimodular frames: derived points commute to {worst_point/diameter:.3e} of diameter, "
        f"equi-affine scalars invariant to {worst_scalar:.3e}",
    )
