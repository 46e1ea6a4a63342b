"""The experiment scripts run end to end on small inputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import flotilla
from flotilla.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(flotilla.__file__).resolve().parents[1])


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        # a numpy warning fails a script's run, as pyproject's filterwarnings fails a test's
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_carousel_scan(tmp_path):
    # 2/3 closes above half the area: the scan's defect changes sign there
    out = tmp_path / "scan.csv"
    result = run_script("carousel_scan.py", "--p", "2", "--q", "3", "--steps", "4", "--out", str(out), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "p/q = 2/3: delta* =" in result.stdout
    rows = out.read_text().splitlines()
    assert len(rows) == 5  # header and four deltas
    defects = [float(row.split(",")[1]) for row in rows[1:]]
    assert defects[0] < 0.0 < defects[-1]


def test_limit_convergence(tmp_path):
    result = run_script("limit_convergence.py", "--samples", "64", "--eps", "0.1", "0.05", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("Hausdorff distance") == 4  # two bodies, two eps



def stage_rows(stdout):
    """{stage: median ms} of stage_times.py's table, between its two header lines and its counter line."""
    return {line[:28].strip(): float(line[28:]) for line in stdout.splitlines()[2:-1]}


def test_stage_times(tmp_path):
    config = ROOT / "configs" / "ellipse.json"
    result = run_script("stage_times.py", "--repeat", "2", "run", str(config), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:2] == [f"median of 2 runs of flotilla run {config}", f"{'stage':<28} {'ms':>10}"]
    checks = ["chord_cube", "endpoint_balance", "omega", "dupin", "affine_normal", "cut_length", "duality"]
    checks += ["petty", "radon", "affine_sphere"]
    assert list(stage_rows(result.stdout)) == [
        "compile", "curve", "compute_bundle[0]", "compute_bundle[1]", "write_curves_csv", "write_figure",
        *(f"check {check}" for check in checks), "rest", "total",
    ]
    calls = {"flotation[0]": 1, "illumination[0]": 1, "flotation[1]": 1, "illumination[1]": 1}
    assert lines[-1] == f"residual_calls {json.dumps(calls)}"
    assert not list(tmp_path.iterdir())  # the outputs go to a temporary directory


def test_stage_times_prints_the_residual_calls_of_each_sweep(tmp_path):
    # the counter line is report.json's residual_calls, which no two runs differ in
    config = ROOT / "configs" / "perturbed_circle.json"
    result = run_script("stage_times.py", "--repeat", "1", "run", str(config), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == 'residual_calls {"flotation[0]": 4, "illumination[0]": 14}'


def test_stage_times_without_checks(tmp_path):
    # a run without checks still writes report.json, so its stages are timed too
    config = tmp_path / "export.json"
    config.write_text('{"curveSpec": {"kind": "ellipse", "a": 2.0, "b": 1.0}, "deltas": [1.0], "nSamples": 64}')
    work = tmp_path / "work"
    work.mkdir()
    result = run_script("stage_times.py", "--repeat", "1", "run", str(config), cwd=work)
    assert result.returncode == 0, result.stderr
    stages = stage_rows(result.stdout)
    assert list(stages) == ["compile", "curve", "compute_bundle[0]", "write_curves_csv", "write_figure", "rest", "total"]
    assert not list(work.iterdir())


def test_stage_times_of_a_carousel(tmp_path):
    # the stages of carousel.json, and its chain solves: 6 on bump3 from s0 = 2.2, where the
    # closing-area solve misses its start; the carousel fails its check (exit 1) and is timed
    config = ROOT / "configs" / "perturbed_circle.json"
    argv = ["--repeat", "2", "carousel", str(config), "--q", "3", "--s0", "2.2"]
    result = run_script("stage_times.py", *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"median of 2 runs of flotilla carousel {config} --q 3 --s0 2.2"
    stages = stage_rows(result.stdout)
    assert list(stages) == ["compile", "curve", "build_carousel", "rest", "total"]
    assert all(ms > 0.0 for ms in stages.values())
    assert lines[-1] == "chain_solves 6"
    assert not list(tmp_path.iterdir())


def test_stage_times_stops_at_a_usage_error(tmp_path):
    # the CLI's own message and exit code, before any row; nothing is left behind
    config = ROOT / "configs" / "ellipse.json"
    result = run_script("stage_times.py", "carousel", str(config), cwd=tmp_path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines()[:2] == [
        "usage error: carousel: missing option '--q'", "usage: flotilla run CONFIG [--out DIR]",
    ]
    assert not list(tmp_path.iterdir())


def test_compare_outputs(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "curveSpec": {"kind": "ellipse", "a": 2.0, "b": 1.0}, "deltas": [1.0], "nSamples": 64,
        "checks": ["chord_cube", "omega"],
    }))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", str(config), "--out", str(out)]) == 0
    result = run_script("compare_outputs.py", str(a), str(b), cwd=tmp_path)
    assert result.returncode == 0, result.stdout
    lines = result.stdout.splitlines()
    assert lines[:2] == ["curves.csv: byte-identical", "figure.svg: byte-identical"]
    # the stage times of two runs differ, and nothing else does
    assert lines[2] in ("report.json: byte-identical", "report.json: identical apart from stage_seconds")

    # one cell moved by 1e-6 of its value, and one record's value
    with open(b / "curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][3] = repr(float(rows[5][3]) * (1.0 + 1e-6))
    with open(b / "curves.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    report = json.loads((b / "report.json").read_text())
    report["records"][1]["value"] *= 2.0
    (b / "report.json").write_text(json.dumps(report))
    (b / "figure.svg").unlink()
    result = run_script("compare_outputs.py", str(a), str(b), cwd=tmp_path)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert lines[0] == "curves.csv: differs"
    assert lines[1].startswith("  largest relative cell difference 1.000e-06 at row 5, column point_y: ")
    assert lines[2] == f"figure.svg: only in {a}"
    assert lines[3] == "report.json: differs"
    assert lines[4].startswith("  omega: pass ") and len(lines) == 5


def test_compare_outputs_matches_records_by_check(tmp_path):
    # two reports with other check lists: each record is compared with the record of its own
    # check, never with the one at its position, and a check in one report only is named
    a, b = tmp_path / "a", tmp_path / "b"
    for out, checks in ((a, ["chord_cube", "omega"]), (b, ["omega", "endpoint_balance"])):
        config = tmp_path / f"{out.name}.json"
        config.write_text(json.dumps({
            "curveSpec": {"kind": "ellipse", "a": 2.0, "b": 1.0}, "deltas": [1.0], "nSamples": 64, "checks": checks,
        }))
        assert main(["run", str(config), "--out", str(out)]) == 0
    result = run_script("compare_outputs.py", str(a), str(b), cwd=tmp_path)
    assert result.returncode == 1
    assert result.stdout.splitlines()[2:] == [
        "report.json: differs",
        "  chord_cube: only in the first report",
        "  endpoint_balance: only in the second report",
    ]


def test_compare_outputs_on_carousels(tmp_path):
    # two runs of one carousel differ in their stage times only; any other key is named
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["carousel", str(ROOT / "configs" / "ellipse.json"), "--q", "3", "--out", str(out)]) == 0
    result = run_script("compare_outputs.py", str(a), str(b), cwd=tmp_path)
    assert result.returncode == 0, result.stdout
    assert result.stdout.splitlines() == ["carousel.json: identical apart from stage_seconds"]

    payload = json.loads((b / "carousel.json").read_text())
    payload["chain_solves"] = 2
    (b / "carousel.json").write_text(json.dumps(payload))
    result = run_script("compare_outputs.py", str(a), str(b), cwd=tmp_path)
    assert result.returncode == 1
    assert result.stdout.splitlines() == ["carousel.json: differs", "  chain_solves: 1 against 2"]
