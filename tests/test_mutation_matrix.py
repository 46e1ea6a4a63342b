"""Mutation matrix: every verdict passes a valid input and fails a corrupted one.

One row per check of ``cli.CHECKS``, and one for the carousel's closure from
every start. The valid input is the 2:1 ellipse at delta = 1, in the
homothetic regime, where every verdict holds. The corrupted inputs are made
in three ways:
- shifted chords: every flotation chord's t moved by 1e-2 sin 3s and the
  chords rebuilt through ``chord._chords``, with the curves derived from them;
- a relabelled area: chords solved at one area and labelled with another;
- a perturbed body, for the identities that hold for every chord of an
  ellipse, as the endpoint balance does.

``dupin`` and ``affine_normal`` compare closed forms that are equal in the
chord frame for any (s, t, delta), so no input can fail them: they report
skipped on both inputs, and every other row passes its valid input and
fails its corrupted one.
"""

import copy
import functools

import numpy as np
import pytest

from flotilla import chord, floatgeom
from flotilla.cli import CHECKS, FAIL, PASS, SKIPPED, compute_bundle
from flotilla.curve import PERIOD, Ellipse, FourierRadial
from flotilla.homothety import build_carousel

from oracles import chords_at

N = 128
ELLIPSE = Ellipse(2.0, 1.0)
BUMP3 = FourierRadial(1.0, (0.0, 0.0, 0.1))
# centrally symmetric, so radon applies, but not a Radon curve
SYM_COS4 = FourierRadial(1.0, (0.0, 0.0, 0.0, 0.05))

@functools.cache
def valid():
    return compute_bundle(ELLIPSE, 1.0, N, None)


def shifted(bundle):
    """The bundle with t moved by 1e-2 sin 3s on every flotation chord, and its flotation and buoyancy curves rebuilt.

    Its chord-cube statistics stay those of the valid chords, so chord_cube's row perturbs the body instead.
    """
    s, old, curve = bundle.chords.s, bundle.chords, bundle.chords.curve
    t = old.t + 1e-2 * np.sin(3.0 * s)
    moved = chords_at(curve, chord.FLOTATION, old.delta, s, t, curve.derivatives(s, (0, 1, 2)))
    out = copy.copy(bundle)
    out.chords, out.flotation, out.buoyancy = moved, floatgeom.flotation_point(moved), floatgeom.buoyancy_point(moved)
    return out


def relabelled_delta_hat(bundle):
    """The bundle whose illumination chords are solved at 1.001 times the dual cone area but labelled with it."""
    dual = bundle.illum_chords.delta
    illum = chord.sweep(bundle.chords.curve, chord.ILLUMINATION, 1.001 * dual, N)
    out = copy.copy(bundle)
    out.illum_chords = illum.replace(delta=dual)
    return out


def perturbed(body):
    return compute_bundle(body, 0.8, N, None)


@functools.cache
def delta_star():
    """The cut-off area at which the 2:1 ellipse's 1/3 carousel closes."""
    return build_carousel(ELLIPSE, 1, 3).delta


# each row's valid input (the carousel's: its area) and corrupted input
ROWS = {
    "chord_cube": (valid, lambda: perturbed(BUMP3)),
    "endpoint_balance": (valid, lambda: perturbed(BUMP3)),
    "omega": (valid, lambda: shifted(valid())),
    "dupin": (valid, lambda: shifted(valid())),
    "affine_normal": (valid, lambda: shifted(valid())),
    "cut_length": (valid, lambda: shifted(valid())),
    "duality": (valid, lambda: relabelled_delta_hat(valid())),
    "petty": (valid, lambda: perturbed(BUMP3)),
    "radon": (valid, lambda: perturbed(SYM_COS4)),
    "affine_sphere": (valid, lambda: perturbed(BUMP3)),
    "carousel": (delta_star, lambda: 1.001 * delta_star()),
}


def verdict(name, given):
    if name == "carousel":  # as `flotilla carousel` judges it: closed from every start to 1e-8 period
        closed = build_carousel(ELLIPSE, 1, 3, delta=given).closure_defect_max <= 1e-8 * PERIOD
        return PASS if closed else FAIL
    return CHECKS[name](given)["status"]


def test_every_check_has_a_row():
    assert list(ROWS) == [*CHECKS, "carousel"]


@pytest.mark.parametrize("name", list(ROWS))
def test_verdict_fails_its_corrupted_input(name):
    make_valid, make_corrupted = ROWS[name]
    expected = (SKIPPED, SKIPPED) if name in ("dupin", "affine_normal") else (PASS, FAIL)
    assert (verdict(name, make_valid()), verdict(name, make_corrupted())) == expected
