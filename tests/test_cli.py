import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import flotilla
from flotilla.cli import (
    CHECKS,
    CSV_COLUMNS,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    compute_bundle,
    main,
    read_curves_csv,
    report_schema,
    write_curves_csv,
)
from flotilla.curve import Ellipse
from flotilla.svg import export_svg

from oracles import circle_segment_area

DELTA = circle_segment_area(math.pi / 3)


@pytest.fixture(autouse=True)
def reports_match_schema(tmp_path):
    """Every report.json a test here writes must validate against report_schema.json."""
    yield
    schema = report_schema()
    for path in tmp_path.rglob("report.json"):
        jsonschema.validate(json.loads(path.read_text()), schema)


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

    def test_delta_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltas=[10.0])
        assert main(["run", str(cfg)]) == EXIT_CONFIG

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

    def test_non_numeric_tolerance_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tolerancesOverride={"omega": "x"})
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_non_convex_curve_spec(self, tmp_path):
        spec = {"kind": "fourier_radial", "r0": 1, "cos": [0, 0, 0.2]}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec)
        assert main(["run", str(cfg)]) == EXIT_CONFIG


class TestRun:
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
        schema = report_schema()
        for name, (overrides, code) in runs.items():
            cfg = write_config(tmp_path / f"{name}.json", outputDir=str(tmp_path / name), **overrides)
            assert main(["run", str(cfg)]) == code
            report = json.loads((tmp_path / name / "report.json").read_text())
            jsonschema.validate(report, schema)
            assert report["passed"] == (code == EXIT_OK)
        # a skipped record carries no value, so no sentinel either
        assert report["records"][0]["status"] == "skipped"
        report["records"][0]["value"] = -1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)

    def test_cli_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", checks=["chord_cube"])
        out2 = tmp_path / "alt"
        assert main(["run", str(cfg), "--out", str(out2), "--samples", "64", "--checks", "omega"]) == EXIT_OK
        report = json.loads((out2 / "report.json").read_text())
        assert [r["check"] for r in report["records"]] == ["omega"]

    def test_two_deltas_in_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", deltas=[0.4, 0.9], checks=["chord_cube"])
        assert main(["run", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["deltas"] == [0.4, 0.9]

    def test_samples_curve_kind_uses_sampled_threshold(self, tmp_path):
        s = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
        pts = np.stack([np.cos(s), np.sin(s)], axis=-1).tolist()
        cfg = write_config(
            tmp_path / "c.json",
            curveSpec={"kind": "samples", "points": pts},
            deltas=[DELTA],
            checks=["chord_cube"],
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["records"][0]["threshold"] == 1e-4

    def test_inapplicable_checks_are_skipped(self, tmp_path):
        bump3 = {"kind": "fourier_radial", "r0": 1.0, "cos": [0, 0, 0.1]}
        ellipse = {"kind": "ellipse", "a": 2.0, "b": 1.0}
        circle = {"kind": "ellipse", "a": 1.0, "b": 1.0}
        cases = {
            # not origin-symmetric: no radon value, no -1 sentinel
            "radon": ("radon", bump3, [0.8]),
            # implied ratio at most 2/3: there is no dual cone area
            "duality": ("duality", ellipse, [{"fraction": 0.999}]),
            # every half-area chord of a circle is a diameter: no lane has an apex
            "affine_normal": ("affine_normal", circle, [{"fraction": 0.5}]),
            # ... so the affine chord length is infinite, with no NaN in the report
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
            if spec is circle and check != "affine_normal":
                assert "parallel end tangents" in rec["reason"]

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

    def test_tolerances_override(self, tmp_path):
        # force a failure by making the ellipse threshold absurdly tight
        cfg = write_config(
            tmp_path / "c.json",
            curveSpec={"kind": "ellipse", "a": 2.0, "b": 1.0},
            deltas=[1.0],
            checks=["chord_cube"],
            tolerancesOverride={"chord_cube": 1e-30},
        )
        assert main(["run", str(cfg)]) == EXIT_CHECK_FAILED


def expected_rows(bundles):
    """The CSV rows of the bundles, one dict per chord and family, read off the arrays."""
    rows = []
    for bundle in bundles:
        for family, chords in bundle.families():
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
        back = read_curves_csv(path)
        assert len(back) == len(rows)
        for orig, parsed in zip(rows, back):
            assert parsed["family"] == orig["family"]
            for col in CSV_COLUMNS[1:]:
                a, b = orig[col], parsed[col]
                if a is None or (isinstance(a, float) and math.isnan(a)):
                    assert b is None or math.isnan(b)
                else:
                    assert float(a) == b  # 17 significant digits: exact round trip

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
        families = {row["family"] for row in read_curves_csv(path)}
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

    def test_carousel_closure_defect_reported(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "car"
        assert main(["carousel", str(cfg), "--q", "3", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "carousel.json").read_text())
        assert payload["closure_defect_max"] < 1e-8 * 2 * math.pi

    def test_carousel_not_closing_everywhere_fails_check(self, tmp_path):
        # bump3 closes from s0 = 0 only: a negative result (exit 1), not a config error
        spec = {"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, 0.1]}
        cfg = write_config(tmp_path / "c.json", curveSpec=spec)
        out = tmp_path / "car"
        assert main(["carousel", str(cfg), "--q", "3", "--out", str(out)]) == EXIT_CHECK_FAILED
        payload = json.loads((out / "carousel.json").read_text())
        assert abs(payload["closure_defect"]) < 1e-10
        assert payload["closure_defect_max"] > 1e-8 * 2 * math.pi

    def test_export_command(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "exp"
        assert main(["export", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "curves.csv").exists()
        assert (out / "figure.svg").exists()
        assert not (out / "report.json").exists()

    def test_usage_error(self):
        assert main(["run"]) == EXIT_CONFIG
        assert main(["bogus-subcommand"]) == EXIT_CONFIG


def test_cli_import_does_not_load_scipy():
    src = str(Path(flotilla.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, flotilla.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_run_does_not_load_jsonschema(tmp_path):
    # report.json is not validated at run time; jsonschema is a test dependency
    root = Path(flotilla.__file__).resolve().parents[2]
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys; from flotilla.cli import main; "
        f"code = main(['run', {str(root / 'configs' / 'ellipse.json')!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, 'jsonschema' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 False"
