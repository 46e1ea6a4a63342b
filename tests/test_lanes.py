"""Every lane-wise transform equals its one-lane call.

The derived-curve transforms and chord checks run on all chords of a sweep
at once; one chord, ``chords[i]``, is the one-lane case of the same code.
Each transform is compared lane by lane on four curve kinds, including
sweeps whose chords have parallel end tangents (no apex).
"""

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from flotilla.chord import FLOTATION, ILLUMINATION, sweep
from flotilla.cli import CHECKS, compute_bundle, resolve_deltas
from flotilla.curve import AffineFrame, Ellipse, FourierRadial, SampledPeriodic, apply_affine, area, curve_from_json
from flotilla.errors import AccuracyError, DomainError
from flotilla.floatgeom import (
    DerivedCurve,
    buoyancy_affine_normal,
    buoyancy_affine_normal_check,
    buoyancy_derivatives,
    buoyancy_point,
    flotation_point,
    kappa_prime_buoyancy,
    kappa_prime_flotation,
)
from flotilla.homothety import affine_cut_rate, endpoint_balance_residual
from flotilla.illumgeom import illumination_centroid_point, illumination_point

REL = 1e-13


def sampled64():
    u = np.arange(64) * (2.0 * math.pi / 64)
    r = 1.0 + 0.02 * np.cos(2 * u) + 0.01 * np.sin(3 * u)
    return SampledPeriodic(np.stack([r * np.cos(u), r * np.sin(u)], axis=-1))


def reversed_image():
    # orientation-reversing: the parameter is reflected, s -> period - s. The
    # base has no flat point: there the curvature is rounding noise, and so
    # are quantities that divide by it or take its cube root
    return apply_affine(FourierRadial(1.0, (0.0, 0.0, 0.05)), AffineFrame([[1.2, 0.3], [0.1, -0.8]], [0.4, -0.2]))


BODIES = {
    "bump3": lambda: FourierRadial(1.0, (0.0, 0.0, 0.1)),
    "ellipse21": lambda: Ellipse(2.0, 1.0),
    "sampled64": sampled64,
    "reversed_image": reversed_image,
}


@pytest.fixture(scope="module", params=sorted(BODIES))
def sweeps(request):
    """Flotation sweeps at a quarter and at half the area, and one illumination sweep.

    At half the area every body here has chords with parallel end tangents:
    all of them on the ellipse, the lanes on a symmetry axis of bump3.
    """
    curve = BODIES[request.param]()
    total = area(curve)
    quarter = sweep(curve, FLOTATION, 0.25 * total, 96)
    half = sweep(curve, FLOTATION, 0.5 * total, 96)
    illum = sweep(curve, ILLUMINATION, 0.2 * total, 96)
    return request.param, quarter, half, illum


def _assert_lanes(lane, one, unit=None):
    """Equal to REL relative, or REL in the quantity's own unit where its values are rounding noise."""
    lane, one = np.asarray(lane, dtype=float), np.asarray(one, dtype=float)
    assert lane.shape == one.shape
    np.testing.assert_array_equal(np.isnan(lane), np.isnan(one))
    if unit is None:
        unit = np.nanmax(np.abs(one)) if np.any(~np.isnan(one)) else 0.0
    np.testing.assert_allclose(lane, one, rtol=REL, atol=REL * unit, equal_nan=True)


CURVE_FIELDS = ("points", "tangents", "kappa", "kappa_prime")


def _assert_samples(lane, one):
    assert lane.family == one.family
    for field in CURVE_FIELDS:
        if getattr(one, field) is None:
            assert getattr(lane, field) is None
        else:
            _assert_lanes(getattr(lane, field), getattr(one, field))


FLOTATION_SAMPLES = {
    "flotation_point": flotation_point,
    "buoyancy_point": lambda chords: buoyancy_point(chords, chords.delta),
}
FLOTATION_VALUES = {
    "kappa_prime_flotation": kappa_prime_flotation,
    "kappa_prime_buoyancy": lambda chords: kappa_prime_buoyancy(chords, chords.delta),
    "buoyancy_derivatives": lambda chords: buoyancy_derivatives(chords, chords.delta),
    "buoyancy_affine_normal": lambda chords: buoyancy_affine_normal(chords, chords.delta),
    "buoyancy_affine_normal_check": lambda chords: buoyancy_affine_normal_check(chords, chords.delta),
    "endpoint_balance_residual": endpoint_balance_residual,
    "affine_cut_rate": affine_cut_rate,
}


def _stack(rows):
    return None if rows[0] is None else np.concatenate(rows)


def _one_lane(transform, chords):
    """The transform of every chord on its own, one lane at a time, stacked."""
    rows = [transform(chords[i]) for i in range(len(chords))]
    if isinstance(rows[0], DerivedCurve):
        return DerivedCurve(rows[0].family, *(_stack([getattr(r, f) for r in rows]) for f in CURVE_FIELDS))
    if isinstance(rows[0], tuple):
        return tuple(_stack(column) for column in zip(*rows))
    return _stack(rows)


# residuals near zero on these bodies: an angle in radians, a relative error
# and a normalised difference, each with unit 1
UNITS = {"buoyancy_affine_normal_check": 1.0, "endpoint_balance_residual": 1.0}


def _compare_values(lane, one, unit):
    if isinstance(one, tuple):
        assert isinstance(lane, tuple) and len(lane) == len(one)
        for a, b in zip(lane, one):
            _assert_lanes(a, b, unit)
    else:
        _assert_lanes(lane, one, unit)


@pytest.mark.parametrize("name", sorted(FLOTATION_SAMPLES))
def test_flotation_samples_match_one_lane(sweeps, name):
    _, quarter, half, _ = sweeps
    transform = FLOTATION_SAMPLES[name]
    for chords in (quarter, half):
        _assert_samples(transform(chords), _one_lane(transform, chords))


@pytest.mark.parametrize("name", sorted(FLOTATION_VALUES))
def test_flotation_values_match_one_lane(sweeps, name):
    _, quarter, half, _ = sweeps
    transform = FLOTATION_VALUES[name]
    for chords in (quarter, half):
        _compare_values(transform(chords), _one_lane(transform, chords), UNITS.get(name))


def test_half_area_sweeps_have_parallel_lanes(sweeps):
    body, quarter, half, _ = sweeps
    apex = half.apex
    assert not apex.all()
    if body == "ellipse21":
        assert not apex.any()
    # no apex: zero flotation tangent and NaN curvatures, as for one chord
    flotation = flotation_point(half)
    assert not np.any(flotation.tangents[~apex]) and np.all(np.isnan(flotation.kappa[~apex]))
    kp = kappa_prime_flotation(half)
    assert np.all(np.isnan(kp[~apex])) and np.all(np.isfinite(kp[apex]))
    angle, mag = buoyancy_affine_normal_check(half, half.delta)
    assert np.all(np.isnan(angle[~apex])) and np.all(np.isnan(mag[~apex]))


def test_illumination_samples_match_one_lane(sweeps):
    _, _, _, illum = sweeps
    delta_hat = illum.delta
    _assert_samples(illumination_point(illum), _one_lane(illumination_point, illum))
    centroid = functools.partial(illumination_centroid_point, delta_hat=delta_hat)
    _assert_samples(centroid(illum), _one_lane(centroid, illum))


def test_mixed_chords_rejected(ellipse21):
    with pytest.raises(DomainError):
        flotation_point(sweep(ellipse21, ILLUMINATION, 1.0, 16))


def test_curve_calls_per_bundle_and_check(monkeypatch):
    # deterministic work counter on configs/ellipse.json at n = 256. One chord
    # at a time took 5,952 curve calls per bundle, and 2,044 (cut_length),
    # 1,536 (endpoint_balance), 1,280 (affine_normal) and 768 (omega) per check;
    # lane-wise it takes 68 per bundle and at most 14 per check
    config = json.loads((Path(__file__).parents[1] / "configs" / "ellipse.json").read_text())
    curve = curve_from_json(config["curveSpec"])
    calls = 0
    derivative = Ellipse.derivative

    def counting(body, s, order):
        nonlocal calls
        calls += 1
        return derivative(body, s, order)

    monkeypatch.setattr(Ellipse, "derivative", counting)
    for delta in resolve_deltas(config["deltas"], area(curve)):
        calls = 0
        bundle = compute_bundle(curve, delta, 256)
        assert bundle.illum_centroid is not None
        assert calls <= 200
        for name in config["checks"]:
            calls = 0
            CHECKS[name](curve, bundle, None)
            assert calls <= 20, name


def test_endpoint_balance_forms_checked_in_every_lane(bump3):
    # one lane whose angle no longer matches its chord: the angle form and the
    # normal-component form disagree there, and the whole call raises
    chords = sweep(bump3, FLOTATION, 0.8, 64)
    assert np.all(np.isfinite(endpoint_balance_residual(chords)))
    alpha = chords.alpha.copy()
    alpha[40] += 0.1
    with pytest.raises(AccuracyError):
        endpoint_balance_residual(dataclasses.replace(chords, alpha=alpha))


def test_indexing_gives_sub_lane_chords(ellipse21):
    chords = sweep(ellipse21, FLOTATION, 1.0, 32)
    for index, lanes in ((5, [5]), (-1, [31]), (slice(None, None, 8), [0, 8, 16, 24])):
        sub = chords[index]
        assert len(sub) == len(lanes) and sub.curve is chords.curve and sub.delta == chords.delta
        np.testing.assert_array_equal(sub.t, chords.t[lanes])
        np.testing.assert_array_equal(sub.z, chords.z[lanes])
        np.testing.assert_array_equal(sub.affine_norm_c, chords.affine_norm_c[lanes])
    assert len(list(chords)) == 32
    with pytest.raises(IndexError):
        chords[32]
