import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import flotilla
from flotilla import cli as cli_module
from flotilla.cli import (
    BODY_CHECKS,
    CHECKS,
    CSV_COLUMNS,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    FAIL,
    MAX_CONE_FRACTION,
    MAX_SAMPLES,
    MIN_CONE_FRACTION,
    PASS,
    compute_bundle,
    main,
    parse_args,
    run_checks,
    write_curves_csv,
)
from flotilla.curve import SPEC_KEYS, AffineFrame, AffineImage, Ellipse, SampledPeriodic, det2
from flotilla.errors import SolverError
from flotilla.homothety import build_carousel
from flotilla.numerics import TrigInterpolant
from flotilla.svg import export_svg

from oracles import circle_segment_area, export_svg_per_value

DELTA = circle_segment_area(math.pi / 3)
ELLIPSE21 = {"kind": "ellipse", "a": 2.0, "b": 1.0}
# every p/q in lowest terms with q <= 8
LOWEST_TERMS = [(p, q) for q in range(2, 9) for p in range(1, q) if math.gcd(p, q) == 1]
ROOT = Path(__file__).resolve().parents[1]
REPORT_SCHEMA = json.loads((Path(flotilla.__file__).parent / "report_schema.json").read_text())


@pytest.fixture(autouse=True)
def reports_match_schema(tmp_path):
    """Every report.json a test here writes must validate against report_schema.json."""
    yield
    for path in tmp_path.rglob("report.json"):
        jsonschema.validate(json.loads(path.read_text()), REPORT_SCHEMA)


def strict_json(text):
    """Parse JSON that must hold no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def write_config(path, **overrides):
    payload = {
        "curveSpec": {"kind": "ellipse", "a": 1.0, "b": 1.0},
        "deltas": [DELTA],
        "nSamples": 64,
        "checks": ["chord_cube", "endpoint_balance", "omega"],
        "outputDir": str(path.parent / "out"),
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


class TestConfig:
    def test_minimum_samples_enforced(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", nSamples=32)
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "export"])
    @pytest.mark.parametrize("samples", ["20", "0"])
    def test_samples_override_validated_like_nsamples(self, tmp_path, command, samples):
        # --samples and the export command are gone: the sample count is the
        # config's nSamples, and any use of either is a usage error
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out", str(out), "--samples", samples]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command, tail", [("run", ["--checks", "omega"]), ("export", [])], ids=["checks", "export"])
    def test_removed_options_are_usage_errors(self, tmp_path, command, tail):
        # the checks are the config's, and a config without checks is the old export
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out", str(out), *tail]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("nSamples", 64.7, EXIT_CONFIG),
            ("nSamples", "128", EXIT_CONFIG),
            ("chordStride", -3, EXIT_CONFIG),
            ("chordStride", 2.5, EXIT_CONFIG),
            ("nSamples", 64.0, EXIT_OK),
            # a trillion lanes used to end in numpy's memory error, 1e300 in "Maximum allowed size exceeded"
            ("nSamples", 1000000000000, EXIT_CONFIG),
            ("nSamples", 1e300, EXIT_CONFIG),
            ("nSamples", MAX_SAMPLES + 1, EXIT_CONFIG),
        ],
    )
    def test_integer_fields_validated_before_any_output(self, tmp_path, capsys, field, value, code):
        # nSamples 64.7 used to run as 64; chordStride is no longer a key, so
        # any value of it now fails as an unknown key, still before any output
        cfg = write_config(tmp_path / "c.json", **{field: value})
        assert main(["run", str(cfg)]) == code
        assert (tmp_path / "out").exists() == (code == EXIT_OK)
        assert code == EXIT_OK or capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            # removed options: a config that still sets one fails instead of running at the defaults
            ("tolerancesOverride", {"chord_cube": 1e-5}),
            # chordStride 0 used to draw no chords
            ("chordStride", 0),
            # misspellings: "nsamples" used to run at 512 samples, "check" to run no check
            ("nsamples", 64),
            ("check", ["omega"]),
        ],
        ids=["tolerancesOverride", "chordStride", "nsamples", "check"],
    )
    def test_unknown_key_rejected_before_any_output(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.json", **{key: value})
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "ellipse", "a": 1.0, "b": 1.0, "center": [math.nan, 0.0]}, "curve parameters must be finite"),
            ({"kind": "ellipse", "a": 1e200, "b": 1e200}, "area overflows"),
            ({"kind": "ellipse", "a": 1.0, "b": 1.0, "rotation": math.inf}, "curve parameters must be finite"),
        ],
        ids=["nan_center", "overflowing_area", "infinite_rotation"],
    )
    def test_bad_ellipse_names_the_curve(self, tmp_path, capsys, spec, message):
        # these used to blame delta (a NaN area) or leak "math domain error"
        cfg = write_config(tmp_path / "c.json", curveSpec=spec)
        for argv in (["run", str(cfg)], ["carousel", str(cfg), "--q", "3"]):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert message in err and "delta" not in err and "malformed" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_curve_spec_key_rejected_before_any_output(self, tmp_path, capsys):
        # "rotaton" used to be dropped, and the unrotated ellipse to run
        spec = {"kind": "ellipse", "a": 2, "b": 1, "rotaton": 0.4}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec)
        for argv in (["run", str(cfg)], ["carousel", str(cfg), "--q", "3"]):
            assert main(argv) == EXIT_CONFIG
            assert "'rotaton'" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_config_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    def test_unknown_check_name(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", checks=["chord_cube", "nonsense"])
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_delta_fraction_resolution(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltas=[{"fraction": 0.25}], checks=["chord_cube"])
        assert main(["run", str(cfg)]) == EXIT_OK

    def test_delta_object_with_another_key_rejected_before_any_output(self, tmp_path, capsys):
        # the extra key used to be dropped, and the run went on at the fraction alone
        cfg = write_config(tmp_path / "c.json", deltas=[{"fraction": 0.3, "absolute": 2}])
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "config error: unknown key 'absolute'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_check_named_twice_rejected_before_any_output(self, tmp_path, capsys):
        # it used to write two records, while stage_seconds summed both into one entry
        cfg = write_config(tmp_path / "c.json", checks=["omega", "chord_cube", "omega"])
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "config error: check 'omega' named twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"checks": ["chord_cube", "nonsense"]}, "unknown check 'nonsense'"),
            ({"checks": ["omega", "omega"]}, "check 'omega' named twice"),
            ({"deltas": [{"fraction": 0.3, "extra": 1}]}, "unknown key 'extra' in delta entry"),
            ({"deltas": ["abc"]}, "bad delta entry 'abc'"),
        ],
        ids=["unknown_check", "repeated_check", "delta_extra_key", "delta_string"],
    )
    @pytest.mark.parametrize("argv", [["run"], ["carousel", "--q", "3"]], ids=["run", "carousel"])
    def test_bad_config_rejected_by_every_command(self, tmp_path, capsys, overrides, message, argv):
        # carousel reads no delta and runs no check, but it used to run these
        # configs and exit 0; load_config now rejects them for both commands
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main([argv[0], str(cfg), *argv[1:]]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]

    def test_delta_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltas=[10.0])
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("fraction", [1e-12, 1.0 - 1e-12])
    def test_extreme_cut_fraction_rejected_before_any_output(self, tmp_path, capsys, fraction):
        # the 2:1 ellipse used to exit 1 here: endpoint_balance read 1.1e-8 to 1.4e-8 and omega 2e-5
        cfg = write_config(tmp_path / "c.json", curveSpec=ELLIPSE21, deltas=[{"fraction": fraction}], nSamples=256)
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "rounding floor" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("delta_hat", [1e-300, 1e-20, 1e7 * 2.0 * math.pi, 1e300])
    def test_extreme_delta_hat_rejected_before_any_output(self, tmp_path, capsys, delta_hat):
        # on the 2:1 ellipse, of area 2 pi, 1e-300 used to exit 0 with two divide-by-zero warnings and
        # nan and inf cells, and 1e300 to exit 3 on an overflow; at 1e-20 the chord cube's CV read 3e-7
        cfg = write_config(tmp_path / "c.json", curveSpec=ELLIPSE21, deltaHat=delta_hat, nSamples=256)
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: deltaHat") and err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("fraction", [MIN_CONE_FRACTION, MAX_CONE_FRACTION])
    def test_delta_hat_at_the_bound_runs_clean(self, tmp_path, fraction):
        cfg = write_config(tmp_path / "c.json", curveSpec=ELLIPSE21, deltaHat=fraction * 2.0 * math.pi, nSamples=256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg)]) == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "out" / "curves.csv").open()))
        illumination = [row for row in rows if row["family"] == "illumination_boundary"]
        assert len(illumination) == 256
        assert all(math.isfinite(float(value)) for row in illumination for value in list(row.values())[1:] if value)

    @pytest.mark.parametrize("fraction", [1e-9, 1.0 - 1e-9])
    def test_cut_fraction_at_the_bound_passes_every_check(self, tmp_path, fraction):
        checks = sorted(cli_module.CHECKS)
        cfg = write_config(
            tmp_path / "c.json", curveSpec=ELLIPSE21, deltas=[{"fraction": fraction}], nSamples=256, checks=checks
        )
        assert main(["run", str(cfg)]) == EXIT_OK

    def test_curve_spec_missing_key(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", curveSpec={"kind": "ellipse", "a": 2})
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_nan_semi_axis(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, curveSpec={"kind": "ellipse", "a": 2.0, "b": 1.0})
        cfg.write_text(cfg.read_text().replace('"a": 2.0', '"a": NaN'))
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_unknown_check_rejected_before_any_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", checks=["chord_cube", "nonsense"])
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        out = tmp_path / "out"
        assert not (out / "curves.csv").exists()
        assert not (out / "figure.svg").exists()


    def test_non_numeric_delta(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltas=["abc"])
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_non_numeric_delta_hat(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltaHat="abc")
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_non_finite_delta_hat(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltaHat=math.inf)
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_non_convex_curve_spec(self, tmp_path):
        spec = {"kind": "fourier_radial", "r0": 1, "cos": [0, 0, 0.2]}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec)
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["run"], ["carousel", "--q", "3"]], ids=["run", "carousel"])
    def test_dip_between_grid_points_is_bad_input(self, tmp_path, capsys, argv):
        # r = 1 + eps cos(5s - 0.3) at eps = (1 + 1e-5) / 26 dips to det(g', g'') = -9.6e-6 between
        # the points of the constructor's grid. Both commands used to run it and exit 1, and run
        # exited 2 only when cut_length's table happened to sample the dip
        eps = (1.0 + 1e-5) / 26.0
        spec = {"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0, 0, eps * math.cos(0.3)],
                "sin": [0, 0, 0, 0, eps * math.sin(0.3)]}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec, deltas=[{"fraction": 0.25}], nSamples=256)
        out = tmp_path / "out"
        assert main([argv[0], str(cfg), "--out", str(out), *argv[1:]]) == EXIT_CONFIG
        assert "not strongly convex" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("turns", [2, 4])
    def test_wound_samples_are_bad_input(self, tmp_path, capsys, turns):
        # 16 samples going round a regular polygon `turns` times: det(g', g'') > 0 everywhere,
        # and both used to exit 0 with area 2 pi turns
        angles = 2.0 * math.pi * turns * np.arange(16) / 16
        corners = np.stack([np.cos(angles), np.sin(angles)], axis=-1).tolist()
        cfg = write_config(tmp_path / "c.json", curveSpec={"kind": "samples", "points": corners})
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"winds {turns} times" in err and err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]

    def test_singular_point_is_bad_input(self, tmp_path, capsys):
        # a zero tangent on the sample grid used to exit 3, as a numerical failure
        cfg = write_config(tmp_path / "c.json", curveSpec={"kind": "samples", "points": [[0.0, 0.0]] * 64})
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "singular point" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRun:
    @pytest.mark.parametrize(
        "spec, label",
        [
            (json.loads((ROOT / "configs" / "ellipse.json").read_text())["curveSpec"], "ellipse(a=2.0, b=1.0)"),
            (
                json.loads((ROOT / "configs" / "perturbed_circle.json").read_text())["curveSpec"],
                "fourier_radial(r0=1.0, cos=[0.0, 0.0, 0.1], sin=[])",
            ),
            (
                {"kind": "ellipse", "a": 2.0, "b": 1.0, "center": [0.5, -1.0], "rotation": 0.7},
                "ellipse(a=2.0, b=1.0, center=[0.5, -1.0], rotation=0.7)",
            ),
            ({"kind": "ellipse", "a": 2.0, "b": 1.0, "rotation": 0.7}, "ellipse(a=2.0, b=1.0, rotation=0.7)"),
            ({"kind": "ellipse", "center": [3, 4], "b": 1.0, "a": 2}, "ellipse(a=2, b=1.0, center=[3, 4])"),
        ],
        ids=["ellipse_config", "perturbed_circle_config", "moved_and_rotated", "rotated", "moved"],
    )
    def test_curve_label_names_every_key_the_spec_sets(self, spec, label):
        # a moved or rotated ellipse is another body than the shipped one, and its label says so
        assert cli_module.curve_label(spec) == label

    def test_ellipse_config_evaluates_and_formats_its_grid_once(self, tmp_path, monkeypatch):
        # configs/ellipse.json solves 4 sweeps, flotation and illumination at two
        # deltas, on one n = 256 grid, whose s side is built once: the curve and the
        # moment antiderivative are evaluated there once each (4 times each when
        # every sweep evaluated them), and curves.csv formats its s cells once
        # (1,024 cells when every sweep formatted them)
        grid = np.arange(256) * (2.0 * math.pi / 256)
        at_grid = {"curve": 0, "moments": 0, "cells": 0}
        derivatives, interpolant, cells = Ellipse.derivatives, TrigInterpolant.derivatives, cli_module._cells

        def on_grid(s):
            return np.shape(s) == grid.shape and np.array_equal(s, grid)

        def counting_curve(curve, s, orders):
            at_grid["curve"] += on_grid(s)
            return derivatives(curve, s, orders)

        def counting_moments(series, s, orders):
            at_grid["moments"] += on_grid(s)
            return interpolant(series, s, orders)

        def counting_cells(columns):
            at_grid["cells"] += sum(np.size(column) for column in columns if on_grid(column))
            return cells(columns)

        monkeypatch.setattr(Ellipse, "derivatives", counting_curve)
        monkeypatch.setattr(TrigInterpolant, "derivatives", counting_moments)
        monkeypatch.setattr(cli_module, "_cells", counting_cells)
        assert main(["run", str(ROOT / "configs" / "ellipse.json"), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert at_grid == {"curve": 1, "moments": 1, "cells": 256}

    def test_ellipse_passes_core_checks(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            curveSpec={"kind": "ellipse", "a": 2.0, "b": 1.0},
            deltas=[1.0],
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "curves.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "figure.svg").exists()

    def test_perturbed_circle_fails_chord_cube(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            curveSpec={"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0.1]},
            deltas=[0.8],
            checks=["chord_cube"],
        )
        assert main(["run", str(cfg)]) == EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not report["passed"]
        rec = report["records"][0]
        assert rec["check"] == "chord_cube"
        assert rec["value"] > rec["threshold"]

    def test_every_requested_check_appears_exactly_once(self, tmp_path):
        checks = sorted(CHECKS)
        cfg = write_config(tmp_path / "c.json", checks=checks, deltas=[DELTA])
        code = main(["run", str(cfg)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = [r["check"] for r in report["records"]]
        assert sorted(names) == checks
        assert len(set(names)) == len(names)
        assert code == EXIT_OK

    def test_report_validates_against_schema(self, tmp_path):
        # the CLI does not validate its own report; the tests do, on a pass,
        # a fail, a two-delta and a skipped run
        bump3 = {"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0.1]}
        runs = {
            "pass": ({"checks": ["chord_cube", "omega"]}, EXIT_OK),
            "fail": ({"curveSpec": bump3, "deltas": [0.8], "checks": ["chord_cube"]}, EXIT_CHECK_FAILED),
            "two_deltas": ({"deltas": [0.4, 0.9], "checks": ["chord_cube", "cut_length"]}, EXIT_OK),
            "skipped": ({"curveSpec": bump3, "deltas": [0.8], "checks": ["radon", "omega"]}, EXIT_OK),
        }
        for name, (overrides, code) in runs.items():
            cfg = write_config(tmp_path / f"{name}.json", outputDir=str(tmp_path / name), **overrides)
            assert main(["run", str(cfg)]) == code
            report = json.loads((tmp_path / name / "report.json").read_text())
            jsonschema.validate(report, REPORT_SCHEMA)
            assert report["passed"] == (code == EXIT_OK)
        # a skipped record carries no value, so no sentinel either
        assert report["records"][0]["status"] == "skipped"
        report["records"][0]["value"] = -1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("name", ["ellipse", "perturbed_circle"])
    def test_report_times_each_stage_in_run_order(self, tmp_path, capsys, name):
        config = cli_module.load_config(ROOT / "configs" / f"{name}.json")
        config.output_dir = str(tmp_path)
        start = time.perf_counter()
        cli_module.cmd_run(config)
        wall = time.perf_counter() - start
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        stages = report["stage_seconds"]
        bundles = [f"compute_bundle[{i}]" for i in range(len(config.deltas))]
        checks = [f"check {check}" for check in config.checks]
        assert list(stages) == ["curve", *bundles, "write_curves_csv", "write_figure", *checks]
        assert all(math.isfinite(seconds) and seconds >= 0.0 for seconds in stages.values())
        assert sum(stages.values()) <= wall

    @pytest.mark.parametrize(
        "name, calls",
        [
            ("ellipse", [("flotation[0]", 1), ("illumination[0]", 1), ("flotation[1]", 1), ("illumination[1]", 1)]),
            ("perturbed_circle", [("flotation[0]", 4), ("illumination[0]", 14)]),
        ],
    )
    def test_report_counts_the_residual_calls_of_each_sweep(self, tmp_path, capsys, name, calls):
        # deterministic work counter, each call over all 256 lanes: every ellipse start
        # is a root. bump3 misses them and its bracket ends are never evaluated, so its
        # sweeps evaluate the curve at 256 (the s side) + 4 x 256 = 1,280 points in 5
        # calls and 256 + 14 x 256 = 3,840 in 15 (6 and 16 calls when the ends were)
        config = cli_module.load_config(ROOT / "configs" / f"{name}.json")
        config.output_dir = str(tmp_path)
        cli_module.cmd_run(config)
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert list(report["residual_calls"].items()) == calls

    def test_stages_are_called_through_the_module(self, tmp_path, monkeypatch):
        # a wrapper set over a stage's module name, or over CHECKS, sees every call of the run
        calls = []

        def wrap(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("curve_from_json", "area", "resolve_deltas", "compute_bundle", "write_curves_csv", "write_figure"):
            monkeypatch.setattr(cli_module, name, wrap(name, getattr(cli_module, name)))
        monkeypatch.setitem(CHECKS, "omega", wrap("omega", CHECKS["omega"]))
        cfg = write_config(tmp_path / "c.json", deltas=[0.4, 0.9], checks=["omega"])
        assert main(["run", str(cfg)]) == EXIT_OK
        assert calls == [
            "curve_from_json", "area", "resolve_deltas", "compute_bundle", "compute_bundle",
            "write_curves_csv", "write_figure", "omega", "omega",
        ]

    def test_cut_length_record_states_the_one_third_hypothesis(self, tmp_path):
        # at the 3-chair carousel's area every chord of the 2:1 ellipse spans an
        # eccentric angle of 2 pi / 3, so it cuts off a third of the affine perimeter
        f = (2.0 * math.pi / 3.0 - math.sin(2.0 * math.pi / 3.0)) / (2.0 * math.pi)
        ellipse = {"kind": "ellipse", "a": 2.0, "b": 1.0}
        cfg = write_config(tmp_path / "c.json", curveSpec=ellipse, deltas=[{"fraction": f}], checks=["cut_length"])
        assert main(["run", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["records"][0]["mean_cut_fraction"] - 1.0 / 3.0) <= 1e-12
        report["records"][0]["mean_cut_fraction"] = "1/3"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_cli_overrides(self, tmp_path):
        # --out is the one run option: it replaces outputDir
        cfg = write_config(tmp_path / "c.json", checks=["omega"])
        out2 = tmp_path / "alt"
        assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_OK
        report = json.loads((out2 / "report.json").read_text())
        assert [r["check"] for r in report["records"]] == ["omega"]
        assert not (tmp_path / "out").exists()

    def test_two_deltas_in_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltas=[0.4, 0.9], checks=["chord_cube"])
        assert main(["run", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["deltas"] == [0.4, 0.9]

    def test_samples_curve_kind_uses_sampled_threshold(self, tmp_path):
        # samples with noise keep every mode of their interpolant: the loose threshold
        s = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
        noise = 1e-8 * np.random.default_rng(1).standard_normal((128, 2))
        pts = (np.stack([np.cos(s), np.sin(s)], axis=-1) + noise).tolist()
        cfg = write_config(
            tmp_path / "c.json",
            curveSpec={"kind": "samples", "points": pts},
            deltas=[DELTA],
            checks=["chord_cube"],
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["records"][0]["threshold"] == 1e-4

    @pytest.mark.parametrize("noise, kept, threshold", [(0.0, 2, 1e-6), (1e-12, 129, 1e-4), (1e-6, 129, 1e-4)])
    def test_threshold_follows_the_modes_the_samples_keep(self, noise, kept, threshold):
        # exact samples of an ellipse keep its 2 modes and resolve it as its formula
        # does; noise at 1e-12 and above keeps all 129 modes of 256 samples. An
        # affine image reads its base
        s = np.arange(256) * (2.0 * math.pi / 256)
        pts = np.stack([2.0 * np.cos(s), np.sin(s)], axis=-1)
        curve = SampledPeriodic(pts + noise * np.random.default_rng(2).standard_normal((256, 2)))
        assert len(curve._interp.modes) == kept
        assert cli_module._constancy_threshold(curve) == threshold
        image = AffineImage(curve, AffineFrame([[1.0, 0.5], [0.0, 2.0]], (0.3, -0.2)))
        assert cli_module._constancy_threshold(image) == threshold
        assert cli_module._constancy_threshold(Ellipse(2.0, 1.0)) == 1e-6

    @pytest.mark.parametrize(
        "spec, radius, status",
        [
            ({"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 1e-5]}, lambda u: 1.0 + 1e-5 * np.cos(3 * u), FAIL),
            ({"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0.1]}, lambda u: 1.0 + 0.1 * np.cos(3 * u), FAIL),
            ({"kind": "ellipse", "a": 2.0, "b": 1.0}, None, PASS),
        ],
        ids=["r_1e-5_cos3", "bump3", "ellipse21"],
    )
    def test_exact_samples_get_the_statuses_of_their_formula(self, tmp_path, capsys, spec, radius, status):
        # exact samples resolve their body as its formula does, so every check that
        # reads the constancy threshold gives both the same status and threshold.
        # r = 1 + 1e-5 cos 3s fails all three at 3e-5, 4e-6 and 4e-5 either way; its
        # samples passed them all while every samples body got 1e-4
        u = np.arange(256) * (2.0 * math.pi / 256)
        points = np.stack([np.cos(u), np.sin(u)], axis=-1) * (radius(u)[:, None] if radius else [2.0, 1.0])
        records = []
        for name, curve_spec in (("formula", spec), ("samples", {"kind": "samples", "points": points.tolist()})):
            cfg = write_config(
                tmp_path / f"{name}.json",
                curveSpec=curve_spec,
                deltas=[{"fraction": 0.2}],
                nSamples=256,
                checks=["chord_cube", "cut_length", "petty"],
                outputDir=str(tmp_path / name),
            )
            main(["run", str(cfg)])
            report = json.loads((tmp_path / name / "report.json").read_text())
            records.append([(r["check"], r["status"], r["threshold"]) for r in report["records"]])
        assert records[0] == records[1]
        assert records[0] == [(check, status, 1e-6) for check in ("chord_cube", "cut_length", "petty")]

    def test_inapplicable_checks_are_skipped(self, tmp_path):
        bump3 = {"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0.1]}
        ellipse = {"kind": "ellipse", "a": 2.0, "b": 1.0}
        circle = {"kind": "ellipse", "a": 1.0, "b": 1.0}
        cases = {
            # not origin-symmetric: no radon value, no -1 sentinel
            "radon": ("radon", bump3, [0.8]),
            # implied ratio at most 2/3: there is no dual cone area
            "duality": ("duality", ellipse, [{"fraction": 0.999}]),
            # every half-area chord of a circle is a diameter: no lane has an apex, so
            # the affine chord length is infinite, with no NaN in the report
            "chord_cube": ("chord_cube", circle, [{"fraction": 0.5}]),
            # ... and the homothetic regime is undefined, not "not constant"
            "duality_no_apex": ("duality", circle, [{"fraction": 0.5}]),
        }
        for name, (check, spec, deltas) in cases.items():
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.json", curveSpec=spec, deltas=deltas, checks=[check], outputDir=str(out)
            )
            assert main(["run", str(cfg)]) == EXIT_OK
            report = strict_json((out / "report.json").read_text())
            (rec,) = report["records"]
            assert rec["status"] == "skipped" and rec["value"] is None and rec["reason"]
            assert report["passed"]
            if spec is circle:
                assert "parallel end tangents" in rec["reason"]

    @pytest.mark.parametrize("name, code", [("ellipse", EXIT_OK), ("perturbed_circle", EXIT_CHECK_FAILED)])
    def test_identities_in_the_chord_frame_are_skipped(self, tmp_path, capsys, name, code):
        # dupin and affine_normal compare a closed form in the chord frame with itself,
        # so they read rounding level on any chords: each says so instead of passing
        assert main(["run", str(ROOT / "configs" / f"{name}.json"), "--out", str(tmp_path)]) == code
        out = capsys.readouterr().out
        report = strict_json((tmp_path / "report.json").read_text())
        records = {r["check"]: r for r in report["records"]}
        identities = [records[check] for check in ("dupin", "affine_normal") if check in records]
        assert len(identities) == (2 if name == "ellipse" else 1)
        for rec in identities:
            assert rec["status"] == "skipped" and rec["value"] is None and rec["pass"]
            assert rec["reason"].startswith("an identity in the chord frame")
            assert f"[SKIP] {rec['check']}: {rec['reason']}" in out

    def test_skipped_records_do_not_mask_a_failure(self, tmp_path):
        bump3 = {"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0.1]}
        cfg = write_config(tmp_path / "c.json", curveSpec=bump3, deltas=[0.8], checks=["radon", "chord_cube"])
        assert main(["run", str(cfg)]) == EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["status"] for r in report["records"]] == ["skipped", "fail"]
        assert not report["passed"]

    def test_measured_records_carry_their_status(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", checks=["chord_cube", "omega"])
        assert main(["run", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(r["status"] == "pass" and r["pass"] and "reason" not in r for r in report["records"])

    def test_duality_check_is_informative_out_of_regime(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            curveSpec={"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0.1]},
            deltas=[0.8],
            deltaHat=0.8,
            checks=["duality"],
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rec = report["records"][0]
        assert rec["pass"] and rec["statistic"] == "duality_not_in_homothetic_regime"
        assert rec["status"] == "skipped" and rec["value"] is None

    def test_duality_skipped_when_delta_hat_is_not_the_dual_area(self, tmp_path):
        # an explicit deltaHat of 0.5 on the 2:1 ellipse used to compare the
        # poles with an illumination boundary at the wrong area, and fail
        dual = compute_bundle(Ellipse(2.0, 1.0), 1.0, 64).illum_chords.delta
        for name, delta_hat in (("other", 0.5), ("dual", dual)):
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.json", curveSpec={"kind": "ellipse", "a": 2.0, "b": 1.0},
                deltas=[1.0], deltaHat=delta_hat, checks=["duality"], outputDir=str(out),
            )
            assert main(["run", str(cfg)]) == EXIT_OK
            rec = json.loads((out / "report.json").read_text())["records"][0]
            if name == "dual":
                assert rec["status"] == "pass" and rec["statistic"] == "max_relative_pole_mismatch"
                continue
            assert rec["status"] == "skipped" and rec["value"] is None and rec["pass"]
            assert rec["statistic"] == "duality_not_at_dual_cone_area"
            assert "0.5" in rec["reason"] and f"{dual:.6g}" in rec["reason"]

    @pytest.mark.parametrize("fraction", [0.4999, 0.49999, 0.499999])
    def test_duality_passes_near_half_the_area(self, tmp_path, fraction):
        # the poles run off to 1e4-1e6 diameters as f nears 1/2 and their rounding grows with them;
        # over the diameter of the shrinking flotation curve these valid ellipses read 5e-5, 0.1 and 100
        cfg = write_config(
            tmp_path / "c.json", curveSpec={"kind": "ellipse", "a": 2.0, "b": 1.0},
            deltas=[{"fraction": fraction}], checks=["duality"],
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        rec = json.loads((tmp_path / "out" / "report.json").read_text())["records"][0]
        assert rec["status"] == "pass" and rec["value"] < 1e-8


class TestBodyChecks:
    def test_run_once_per_run(self, monkeypatch):
        # petty, radon and affine_sphere read the body only: with two deltas
        # each runs once, and the records equal the per-delta aggregation
        curve = Ellipse(2.0, 1.0)
        bundles = [compute_bundle(curve, d, 64) for d in (1.0, 0.6)]
        names = list(CHECKS)
        with monkeypatch.context() as m:
            m.setattr(cli_module, "BODY_CHECKS", ())
            per_delta = [run_checks("e", bundles, name) for name in names]
        calls = dict.fromkeys(names, 0)
        for name in names:

            def counting(*args, _name=name, _check=CHECKS[name]):
                calls[_name] += 1
                return _check(*args)

            monkeypatch.setitem(CHECKS, name, counting)
        records = [run_checks("e", bundles, name) for name in names]
        assert records == per_delta
        assert calls == {name: 1 if name in BODY_CHECKS else 2 for name in names}
        assert set(BODY_CHECKS) == {"petty", "radon", "affine_sphere"}
        assert all(rec["delta"] == 1.0 for rec in records if rec["check"] in BODY_CHECKS)


CIRCLE = {"kind": "ellipse", "a": 1.0, "b": 1.0}
BUMP3 = {"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, 0.1]}


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    spec=st.one_of(
        st.builds(lambda a, b: {"kind": "ellipse", "a": a, "b": b}, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        st.just(BUMP3),
    ),
    fractions=st.lists(st.one_of(st.sampled_from([0.5, 0.999]), st.floats(0.01, 0.999)), min_size=1, max_size=2),
)
@example(spec=CIRCLE, fractions=[0.5])  # no chord has an apex
@example(spec={"kind": "ellipse", "a": 2.0, "b": 1.0}, fractions=[0.999])
@example(spec=BUMP3, fractions=[0.5, 0.999])
def test_no_input_writes_non_finite_report_values(tmp_path, spec, fractions):
    out = Path(tempfile.mkdtemp(dir=tmp_path))  # one directory per example
    cfg = write_config(
        out / "c.json", curveSpec=spec, deltas=[{"fraction": f} for f in fractions],
        checks=list(CHECKS), outputDir=str(out),
    )
    assert main(["run", str(cfg)]) in (EXIT_OK, EXIT_CHECK_FAILED)
    report = strict_json((out / "report.json").read_text())
    assert [rec["check"] for rec in report["records"]] == list(CHECKS)


def expected_rows(bundles):
    """The CSV rows of the bundles, one dict per chord and family, read off the arrays."""
    rows = []
    for bundle in bundles:
        for family, chords in ((f, c) for c, fams in bundle.sweeps() for f in fams):
            for i in range(len(chords)):
                rows.append(
                    {
                        "family": family.family,
                        "s": chords.s[i],
                        "point_x": family.points[i, 0],
                        "point_y": family.points[i, 1],
                        "tangent_x": family.tangents[i, 0],
                        "tangent_y": family.tangents[i, 1],
                        "kappa": family.kappa[i],
                        "kappa_prime": None if family.kappa_prime is None else family.kappa_prime[i],
                        "chord_s": chords.s[i],
                        "chord_t": chords.t[i],
                        "alpha": chords.alpha[i],
                        "beta": chords.beta[i],
                        "norm_c": chords.norm_c[i],
                        "affine_norm_c": chords.affine_norm_c[i],
                    }
                )
    return rows


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        curve = Ellipse(2.0, 1.0)
        bundle = compute_bundle(curve, 1.0, 64)
        rows = expected_rows([bundle])
        path = tmp_path / "curves.csv"
        write_curves_csv(path, [bundle])
        with open(path, newline="") as fh:
            header, *back = csv.reader(fh)
        assert header == CSV_COLUMNS
        assert len(back) == len(rows)
        for orig, parsed in zip(rows, back):
            assert len(parsed) == len(CSV_COLUMNS)
            assert parsed[0] == orig["family"]
            for col, cell in zip(CSV_COLUMNS[1:], parsed[1:]):
                a = orig[col]
                if a is None or (isinstance(a, float) and math.isnan(a)):
                    assert cell == "" or math.isnan(float(cell))
                else:
                    assert float(a) == float(cell)  # 17 significant digits: exact round trip

    def test_bytes_match_per_value_formatting(self, tmp_path):
        # at half the area of the 2:1 ellipse no chord has an apex, so the
        # flotation kappa and kappa' cells are NaN; the illumination pair
        # (forced by delta_hat) has empty kappa' cells
        curve = Ellipse(2.0, 1.0)
        half = compute_bundle(curve, math.pi, 64, delta_hat_override=1.0)
        assert np.all(np.isnan(half.flotation.kappa)) and np.all(np.isnan(half.flotation.kappa_prime))
        assert half.illumination.kappa_prime is None and half.illum_centroid.kappa_prime is None
        bundles = [compute_bundle(curve, 1.0, 64), half]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, bundles)
        # reference: one f-string per value, rows joined by csv.writer's \r\n
        lines = [",".join(CSV_COLUMNS)] + [
            ",".join([row["family"]] + ["" if row[col] is None else f"{row[col]:.17g}" for col in CSV_COLUMNS[1:]])
            for row in expected_rows(bundles)
        ]
        written = path.read_bytes()
        assert written == ("\r\n".join(lines) + "\r\n").encode()
        assert b",nan," in written and b",," in written

    def test_each_grid_writes_its_own_s_cells(self, tmp_path):
        # the s cells are formatted once per grid: bundles on two grids of one
        # curve (n = 64 and n = 128) write each sweep's own s and chord_s cells
        curve = Ellipse(2.0, 1.0)
        bundles = [compute_bundle(curve, 1.0, 64), compute_bundle(curve, 1.0, 128), compute_bundle(curve, 0.5, 64)]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, bundles)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = expected_rows(bundles)
        assert len(rows) == len(expected) == 4 * (64 + 128 + 64)
        for row, orig in zip(rows, expected):
            assert row["family"] == orig["family"]
            assert float(row["s"]) == float(row["chord_s"]) == orig["s"]

    def test_header_and_column_order(self, tmp_path):
        curve = Ellipse(1.0, 1.0)
        bundle = compute_bundle(curve, DELTA, 64)
        path = tmp_path / "curves.csv"
        write_curves_csv(path, [bundle])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_all_four_families_present_for_homothetic_body(self, tmp_path):
        bundle = compute_bundle(Ellipse(1.0, 1.0), DELTA, 64)
        path = tmp_path / "curves.csv"
        write_curves_csv(path, [bundle])
        with open(path, newline="") as fh:
            families = {row[0] for row in list(csv.reader(fh))[1:]}
        assert families == {
            "flotation_boundary",
            "buoyancy_curve",
            "illumination_boundary",
            "illumination_centroid",
        }


class TestSvg:
    def _bundle_curves(self):
        curve = Ellipse(1.0, 1.0)
        bundle = compute_bundle(curve, DELTA, 64)
        grid = np.arange(64) * (2 * math.pi / 64)
        curves = [{"label": "body", "points": curve.derivative(grid, 0)}]
        for label, samples in (
            ("flotation_boundary", bundle.flotation),
            ("buoyancy_curve", bundle.buoyancy),
            ("illumination_boundary", bundle.illumination),
            ("illumination_centroid", bundle.illum_centroid),
        ):
            curves.append({"label": label, "points": samples.points})
        return curves, [bundle.chords]

    def test_circle_bundle_renders_five_closed_curves(self, tmp_path):
        curves, chords = self._bundle_curves()
        path = tmp_path / "fig.svg"
        export_svg(curves, path, chords=chords, chord_stride=8)
        root = ET.parse(path).getroot()
        polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        assert len(polygons) == 5
        assert len(lines) == 8  # 64 chords at stride 8
        assert len(texts) == 5  # legend entry per curve

    @pytest.mark.parametrize("chord_stride", [8, 0])
    def test_bytes_match_per_value_formatting(self, tmp_path, chord_stride):
        # the body sample at s = 0 lies on y = 0, so "-0" appears after the
        # flip; a curve with a NaN point gives "nan" coordinates throughout
        curves, chords = self._bundle_curves()
        assert curves[0]["points"][0, 1] == 0.0
        for extra in ([], [{"label": "extra", "points": [[0.5, np.nan], [0.25, -0.5]]}]):
            export_svg(curves + extra, tmp_path / "fig.svg", chords=chords, chord_stride=chord_stride)
            export_svg_per_value(curves + extra, tmp_path / "ref.svg", chords=chords, chord_stride=chord_stride)
            written = (tmp_path / "fig.svg").read_bytes()
            assert written == (tmp_path / "ref.svg").read_bytes()
            assert b",-0 " in written
            assert (b"nan" in written) == bool(extra)

    def test_zero_stride_omits_chords(self, tmp_path):
        curves, chords = self._bundle_curves()
        path = tmp_path / "fig.svg"
        export_svg(curves, path, chords=chords, chord_stride=0)
        root = ET.parse(path).getroot()
        assert not [el for el in root.iter() if el.tag.endswith("line")]

    def test_viewbox_is_bounds_plus_margin(self, tmp_path):
        curves, chords = self._bundle_curves()
        path = tmp_path / "fig.svg"
        export_svg(curves, path)
        root = ET.parse(path).getroot()
        vb = [float(x) for x in root.attrib["viewBox"].split()]
        pts = np.concatenate([np.asarray(c["points"]) for c in curves])
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
        span = max(x1 - x0, y1 - y0)
        margin = 0.05 * span
        # svg y axis is flipped
        assert vb[0] == pytest.approx(x0 - margin, rel=1e-6)
        assert vb[1] == pytest.approx(-y1 - margin, rel=1e-6)
        assert vb[2] == pytest.approx((x1 - x0) + 2 * margin, rel=1e-6)
        assert vb[3] == pytest.approx((y1 - y0) + 2 * margin, rel=1e-6)


class TestSubcommands:
    def test_carousel_command(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "car"
        assert main(["carousel", str(cfg), "--q", "3", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "carousel.json").read_text())
        assert payload["delta_star"] == pytest.approx(DELTA, abs=1e-9)
        assert abs(payload["closure_defect"]) < 1e-10
        assert payload["lambda_product_max_dev"] < 1e-8

    def test_carousel_reuses_the_solved_chain(self, tmp_path):
        # build_carousel takes the chains from every start that its root
        # finder solved at delta*, the one from s0 as lane 0: on the ellipse
        # the closing start is delta*, so one chain solve, none after (2 when
        # build_carousel solved the chains from the starts again)
        cfg = write_config(tmp_path / "c.json", curveSpec={"kind": "ellipse", "a": 2.0, "b": 1.0})
        out = tmp_path / "car"
        assert main(["carousel", str(cfg), "--q", "3", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "carousel.json").read_text())
        assert payload["chain_solves"] == 1
        car = build_carousel(Ellipse(2.0, 1.0), 1, 3, payload["delta_star"])  # the chains solved afresh
        assert (car.vertices, car.lambdas) == (payload["vertices"], payload["lambdas"])

    def test_carousel_evaluates_each_chain_vertex_once(self, tmp_path, monkeypatch):
        # each chain step hands gamma and gamma' at its end, from its last
        # Newton round, to the next step and to the tangent triangles: the
        # ellipse's convexity and moments are closed forms and sample no points,
        # and the chains from the 32 starts, the one from s0 among them, take
        # 32 + 3 x 32 (one Newton round per chord)
        points = 0
        derivatives = Ellipse.derivatives

        def counting(curve, s, orders):
            nonlocal points
            points += np.size(s)
            return derivatives(curve, s, orders)

        monkeypatch.setattr(Ellipse, "derivatives", counting)
        cfg = write_config(tmp_path / "c.json", curveSpec={"kind": "ellipse", "a": 2.0, "b": 1.0})
        assert main(["carousel", str(cfg), "--q", "3", "--out", str(tmp_path / "car")]) == EXIT_OK
        assert points == 128

    def test_carousel_closure_defect_reported(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "car"
        assert main(["carousel", str(cfg), "--q", "3", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "carousel.json").read_text())
        assert payload["closure_defect_max"] < 1e-8 * 2 * math.pi

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_payload_is_a_numerical_failure(self, tmp_path, value):
        # json's own ValueError reached main as a traceback; a SolverError exits 3 in one line
        path = tmp_path / "carousel.json"
        with pytest.raises(SolverError, match="^carousel.json would hold a non-finite number .*JSON compliant"):
            cli_module.write_json(path, {"lambdas": [1.0, value]})
        assert not path.exists()

    def test_carousel_not_closing_everywhere_fails_check(self, tmp_path):
        # bump3 closes from s0 = 0 only: a negative result (exit 1), not a config error
        spec = {"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, 0.1]}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec)
        out = tmp_path / "car"
        assert main(["carousel", str(cfg), "--q", "3", "--out", str(out)]) == EXIT_CHECK_FAILED
        payload = json.loads((out / "carousel.json").read_text())
        assert abs(payload["closure_defect"]) < 1e-10
        assert payload["closure_defect_max"] > 1e-8 * 2 * math.pi

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "ellipse", "a": 2.0, "b": 1.0}, {"kind": "ellipse", "a": 2.0, "b": 1.0, "center": [0.2, -0.1], "rotation": 0.4}],
    )
    def test_every_carousel_of_an_ellipse_closes_from_every_start(self, tmp_path, spec):
        cfg = write_config(tmp_path / "c.json", curveSpec=spec)
        for p, q in LOWEST_TERMS:
            out = tmp_path / f"car{p}_{q}"
            assert main(["carousel", str(cfg), "--q", str(q), "--p", str(p), "--out", str(out)]) == EXIT_OK, (p, q)
            payload = json.loads((out / "carousel.json").read_text())
            assert payload["closure_defect_max"] <= 1e-8 * 2 * math.pi
            assert ("lambda_cv" in payload) == (q == 3)

    @pytest.mark.parametrize("eps, failing", [(0.1, {(1, 4), (1, 5)}), (0.01, {(1, 3), (1, 4)})])
    def test_carousels_of_a_non_ellipse_are_solved(self, tmp_path, eps, failing):
        # every valid p/q is solved (no exit 3); those that do not close from
        # every start are failed checks
        cfg = write_config(tmp_path / "c.json", curveSpec={"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, eps]})
        codes = {}
        for p, q in LOWEST_TERMS:
            codes[p, q] = main(["carousel", str(cfg), "--q", str(q), "--p", str(p), "--out", str(tmp_path / "car")])
        assert set(codes.values()) <= {EXIT_OK, EXIT_CHECK_FAILED}
        assert {pq for pq, code in codes.items() if code == EXIT_CHECK_FAILED} >= failing
        assert codes[1, 2] == EXIT_OK  # every body's 1/2 chain closes at half the area

    def test_petty_of_a_moved_ellipse_passes(self, tmp_path, capsys):
        # measured about the coordinate origin, petty read 0.30 here, and radon was
        # skipped: "curve is not origin-symmetric (defect 4.472e-01)"
        spec = {"kind": "ellipse", "a": 2.0, "b": 1.0, "center": [0.2, -0.1]}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec, deltas=[1.0, {"fraction": 0.3}], nSamples=256, checks=list(CHECKS))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        records = {r["check"]: r for r in strict_json((out / "report.json").read_text())["records"]}
        assert records["petty"]["status"] == "pass" and records["petty"]["value"] < 1e-12
        assert records["radon"]["status"] == "pass" and records["radon"]["value"] < 1e-9
        assert "[PASS] radon" in capsys.readouterr().out

    def test_petty_on_flat_point_body_fails_with_a_valid_report(self, tmp_path, capsys):
        # det(g', g'') is 0.0 at a grid point of petty's: the condition is infinite there and
        # its CV was NaN, which left a truncated report.json behind a traceback
        spec = {"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, 0.0, 1.0 / 17.0]}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec, checks=["petty"])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILED
        (record,) = strict_json((out / "report.json").read_text())["records"]
        assert record["status"] == "fail" and math.isfinite(record["value"])
        assert "[FAIL] petty" in capsys.readouterr().out

    @pytest.mark.parametrize("phase", [0.0, math.pi / 32], ids=["flat_off_grid", "flat_on_grid"])
    def test_affine_sphere_on_flat_point_body_fails_with_a_valid_report(self, tmp_path, capsys, phase):
        # turned by pi/32, a flat point sits on the check's half-offset 128-point grid with
        # det(g', g'') = -2.5e-18, where the affine normal is undefined: that line used to
        # make the run exit 2 as bad input
        spec = {
            "kind": "fourier_radial", "r0": 1.0,
            "cos": [0.0, 0.0, 0.0, math.cos(phase) / 17.0], "sin": [0.0, 0.0, 0.0, math.sin(phase) / 17.0],
        }
        if phase:
            grid = (np.arange(128) + 0.5) * (2 * math.pi / 128)
            d1, d2 = flotilla.curve_from_json(spec).derivatives(grid, (1, 2))
            assert det2(d1, d2).min() <= 0.0
        cfg = write_config(tmp_path / "c.json", curveSpec=spec, checks=["affine_sphere"])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILED
        (record,) = strict_json((out / "report.json").read_text())["records"]
        assert record["status"] == "fail" and math.isfinite(record["value"])
        assert "[FAIL] affine_sphere" in capsys.readouterr().out

    @pytest.mark.parametrize("s0", ["nan", "inf", "-inf"])
    def test_carousel_non_finite_start_is_bad_input(self, tmp_path, s0):
        # a bad start used to surface as a Newton failure (exit 3)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "car"
        assert main(["carousel", str(cfg), "--q", "3", "--s0", s0, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_config_without_checks_writes_an_empty_report(self, tmp_path):
        # curves.csv and figure.svg, and a report of no records that still times the stages
        cfg = write_config(tmp_path / "c.json", checks=[])
        out = tmp_path / "exp"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "curves.csv").exists()
        assert (out / "figure.svg").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["records"] == [] and report["passed"] is True
        assert list(report["stage_seconds"]) == ["curve", "compute_bundle[0]", "write_curves_csv", "write_figure"]

    def test_usage_error(self):
        assert main(["run"]) == EXIT_CONFIG
        assert main(["bogus-subcommand"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, code, word",
        [
            # usage errors: exit 2 with the word named on stderr, before anything is written
            ([], EXIT_CONFIG, "command"),
            (["bogus", "{cfg}"], EXIT_CONFIG, "'bogus'"),
            (["--out", "{out}", "run", "{cfg}"], EXIT_CONFIG, "'--out'"),
            (["run", "--out", "{out}"], EXIT_CONFIG, "CONFIG"),
            (["carousel", "--q", "3"], EXIT_CONFIG, "CONFIG"),
            (["run", "{cfg}", "extra.json"], EXIT_CONFIG, "'extra.json'"),
            (["run", "{cfg}", "--samples", "64"], EXIT_CONFIG, "'--samples'"),
            (["run", "{cfg}", "--checks=omega"], EXIT_CONFIG, "'--checks'"),
            (["run", "{cfg}", "--q", "3"], EXIT_CONFIG, "'--q'"),
            (["carousel", "{cfg}", "--q", "3", "--ou", "{out}"], EXIT_CONFIG, "'--ou'"),
            (["run", "{cfg}", "--out"], EXIT_CONFIG, "'--out'"),
            # an empty value is no value, not a fallback to the config's outputDir
            (["run", "{cfg}", "--out="], EXIT_CONFIG, "'--out' needs a value"),
            (["run", "{cfg}", "--out", ""], EXIT_CONFIG, "'--out' needs a value"),
            (["carousel", "{cfg}", "--q", "3", "--out="], EXIT_CONFIG, "'--out' needs a value"),
            (["carousel", "{cfg}", "--out", "", "--q", "3"], EXIT_CONFIG, "'--out' needs a value"),
            (["carousel", "{cfg}", "--q", "--p", "1"], EXIT_CONFIG, "'--q'"),
            (["carousel", "{cfg}", "--q", "x"], EXIT_CONFIG, "'x'"),
            (["carousel", "{cfg}", "--q", "3.0"], EXIT_CONFIG, "'3.0'"),
            (["carousel", "{cfg}", "--s0", "zero", "--q", "3"], EXIT_CONFIG, "'zero'"),
            (["carousel", "{cfg}", "--p", "1"], EXIT_CONFIG, "'--q'"),
            # help: exit 0 with the usage on stdout
            (["-h"], EXIT_OK, "usage: flotilla run CONFIG"),
            (["--help"], EXIT_OK, "usage: flotilla run CONFIG"),
            (["carousel", "{cfg}", "--q", "3", "-h"], EXIT_OK, "usage: flotilla run CONFIG"),
            # accepted spellings: options before or after CONFIG, --opt=VALUE, a negative value
            (["carousel", "--out={out}", "{cfg}", "--q", "3"], EXIT_OK, "carousel p/q=1/3"),
            (["carousel", "{cfg}", "--s0", "-0.5", "--q=3", "--out", "{out}"], EXIT_OK, "carousel p/q=1/3"),
            # an output directory that cannot be made: exit 2 with the reason, no traceback
            (["run", "{cfg}", "--out", "{cfg}"], EXIT_CONFIG, "cannot write output"),
            (["carousel", "{cfg}", "--q", "3", "--out", "{cfg}/x"], EXIT_CONFIG, "cannot write output"),
            # a p/q not in lowest terms repeats a shorter chain: bad input; q = 2 is valid
            (["carousel", "{cfg}", "--q", "6", "--p", "2"], EXIT_CONFIG, "2/6"),
            (["carousel", "{cfg}", "--p", "2", "--q", "4"], EXIT_CONFIG, "2/4"),
            (["carousel", "{cfg}", "--q", "2", "--out", "{out}"], EXIT_OK, "carousel p/q=1/2"),
            # valid ellipses whose lengths overflow at the sixth power: exit 3 in one line, nothing written
            (["run", "{e60}", "--out", "{out}"], EXIT_NUMERICAL, "numerical failure: overflow"),
            (["run", "{e150}", "--out", "{out}"], EXIT_NUMERICAL, "numerical failure: overflow"),
            # config values of the wrong JSON type: exit 2 in one line. Nested checks and an integer
            # outputDir used to raise TypeError, a string was read one character at a time ("12"
            # ran delta 1 and delta 2), and true counted as the number 1
            (["run", "{checks_nested}"], EXIT_CONFIG, "checks must be a list of check names"),
            (["run", "{checks_object}"], EXIT_CONFIG, "checks must be a list of check names"),
            (["run", "{checks_string}"], EXIT_CONFIG, "checks must be a list of check names"),
            (["run", "{output_dir_int}"], EXIT_CONFIG, "outputDir must be a string"),
            (["run", "{deltas_string}"], EXIT_CONFIG, "deltas must be a list"),
            (["run", "{deltas_bool}"], EXIT_CONFIG, "bad delta entry True"),
            (["run", "{delta_hat_bool}"], EXIT_CONFIG, "deltaHat must be a number"),
            (["run", "{a_bool}"], EXIT_CONFIG, "'a' in 'ellipse' curve spec must hold only numbers"),
            (["carousel", "{a_bool}", "--q", "3"], EXIT_CONFIG, "'a' in 'ellipse' curve spec must hold only numbers"),
            # an integer no float holds used to exit 3: "int too large to convert to float"
            (["run", "{a_huge}"], EXIT_CONFIG, "'a' in 'ellipse' curve spec must hold only numbers"),
            (["run", "{deltas_huge}"], EXIT_CONFIG, "bad delta entry"),
            # a start where s0 + 1e-12 period rounds to s0 used to exit 3 with an empty bracket
            (["carousel", "{cfg}", "--q", "3", "--s0", "1e300"], EXIT_CONFIG, "s0 = 1e+300"),
            (["carousel", "{cfg}", "--q", "3", "--s0", "-1e17"], EXIT_CONFIG, "s0 = -1e+17"),
        ],
    )
    def test_command_line_contract(self, tmp_path, capsys, monkeypatch, argv, code, word):
        monkeypatch.chdir(tmp_path)  # a relative output directory lands here, if any is made
        cfg = write_config(tmp_path / "c.json")
        bad = {
            name: write_config(tmp_path / f"{name}.json", **overrides)
            for name, overrides in {
                "checks_nested": {"checks": [["omega"]]},
                "checks_object": {"checks": [{"a": 1}]},
                "checks_string": {"checks": "chord_cube"},
                "output_dir_int": {"outputDir": 7},
                "deltas_string": {"deltas": "12"},
                "deltas_bool": {"deltas": [True]},
                "delta_hat_bool": {"deltaHat": True},
                "a_bool": {"curveSpec": {"kind": "ellipse", "a": True, "b": 0.5}},
                "a_huge": {"curveSpec": {"kind": "ellipse", "a": 10**400, "b": 0.5}},
                "deltas_huge": {"deltas": [{"fraction": 10**400}]},
            }.items()
        }
        # semi-axes 10^k and 10^(k - 1), cut at 0.3 of the area, with every check
        big = {
            f"e{k}": write_config(
                tmp_path / f"e{k}.json",
                curveSpec={"kind": "ellipse", "a": 10.0**k, "b": 10.0 ** (k - 1)},
                deltas=[{"fraction": 0.3}],
                checks=list(CHECKS),
            )
            for k in (60, 150)
        }
        out = tmp_path / "out"  # also the config's outputDir
        assert main([arg.format(cfg=cfg, out=out, **big, **bad) for arg in argv]) == code
        captured = capsys.readouterr()
        stream = captured.out if code == EXIT_OK else captured.err
        assert word in stream
        # every error but a usage error is one line, never a traceback
        assert code == EXIT_OK or stream.startswith("usage error") or stream.count("\n") == 1
        # only the rows that run the carousel write anything
        assert out.exists() == word.startswith("carousel p/q")
        assert sorted(path.name for path in tmp_path.iterdir() if path.is_dir()) == ["out"] * out.exists()

    def test_options_read_as_typed_values(self):
        # the last occurrence of an option wins; unset options take their defaults
        argv = ["carousel", "--q", "4", "c.json", "--s0", "-0.5", "--q=3", "--out=a", "--out", "b"]
        assert parse_args(argv) == ("carousel", "c.json", {"q": 3, "p": 1, "s0": -0.5, "out": "b"})
        assert parse_args(["run", "c.json"]) == ("run", "c.json", {"out": None})
        assert all(name in cli_module.USAGE for options in cli_module.COMMANDS.values() for name in options)


README = ROOT / "README.md"


def readme_block(heading, lang):
    """The first ```lang fenced block of README.md after the line ``heading``."""
    text = README.read_text()
    start = text.index(f"```{lang}\n", text.index(f"\n{heading}\n")) + len(lang) + 4
    return text[start : text.index("```", start)]


class TestReadme:
    def test_config_example_holds_exactly_the_accepted_keys(self, tmp_path):
        example = json.loads(readme_block("Config schema (JSON):", "json"))
        assert list(example) == list(cli_module.CONFIG_KEYS)
        assert set(example["curveSpec"]) == {"kind", *SPEC_KEYS[example["curveSpec"]["kind"]]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(example))
        assert cli_module.load_config(path).checks == list(CHECKS)

    def test_command_lines_parse(self):
        lines = [line.split("#")[0].split() for line in readme_block("## Command line", "bash").splitlines()]
        commands = [words[1:] for words in lines if words and words[0] == "flotilla"]
        assert {args[0] for args in commands} == {"run", "carousel"}
        for args in commands:
            assert parse_args(args)[0] == args[0]


# argparse imports gettext, whose first message lookup imports locale: about 3 ms
# of every call. Each probe lists which of its modules got loaded
CLI_UNLOADED = ("argparse", "gettext", "locale")


def test_cli_import_does_not_load_scipy():
    src = str(Path(flotilla.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    modules = ("scipy", *CLI_UNLOADED)
    probe = f"import sys, flotilla.cli; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_run_does_not_load_jsonschema(tmp_path):
    # report.json is not validated at run time; jsonschema is a test dependency
    root = Path(flotilla.__file__).resolve().parents[2]
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": src}
    config = str(root / "configs" / "ellipse.json")
    modules = ("jsonschema", *CLI_UNLOADED)
    probe = (
        "import sys; from flotilla.cli import main; "
        f"run = main(['run', {config!r}, '--out', {str(tmp_path / 'run')!r}]); "
        f"carousel = main(['carousel', {config!r}, '--q', '3', '--out', {str(tmp_path / 'car')!r}]); "
        f"print(run, carousel, [m for m in {modules!r} if m in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 0 []"


def test_ellipse_carousel_does_not_load_numpy_fft(tmp_path):
    # the ellipse's moments and convexity are closed forms, so nothing on the
    # carousel path samples the curve or builds an FFT interpolant
    root = Path(flotilla.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    config = str(root / "configs" / "ellipse.json")
    probe = (
        "import sys; from flotilla.cli import main; "
        f"code = main(['carousel', {config!r}, '--q', '3', '--out', {str(tmp_path)!r}]); "
        "print(code, 'numpy.fft' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("config, code", [("ellipse.json", EXIT_OK), ("perturbed_circle.json", EXIT_CHECK_FAILED)])
def test_run_does_not_load_numpy_ma(tmp_path, config, code):
    # np.unique imports numpy.ma on first use (10 ms or more in a cold run);
    # nothing on the run path may call it
    root = Path(flotilla.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = (
        "import sys; from flotilla.cli import main; "
        f"code = main(['run', {str(root / 'configs' / config)!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == f"{code} False"


def test_run_does_not_load_numpy_polynomial(tmp_path):
    # numpy.polynomial costs about 3.5 ms to import; the quadrature rule is a literal
    root = Path(flotilla.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = (
        "import sys; import flotilla; loaded = 'numpy.polynomial' in sys.modules; "
        "from flotilla.cli import main; "
        f"code = main(['run', {str(root / 'configs' / 'ellipse.json')!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, loaded, 'numpy.polynomial' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == f"{EXIT_OK} False False"
