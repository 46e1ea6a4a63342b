"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import flotilla

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(flotilla.__file__).resolve().parents[1])


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_demo_bundle(tmp_path):
    out = tmp_path / "demo"
    result = run_script("demo_bundle.py", "--samples", "64", "--out", str(out), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "body area             : 6.283185307" in result.stdout
    assert (out / "curves.csv").exists() and (out / "figure.svg").exists()


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



def test_stage_times(tmp_path):
    result = run_script("stage_times.py", str(ROOT / "configs" / "ellipse.json"), "--repeat", "2", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    stages = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    checks = ["chord_cube", "endpoint_balance", "omega", "dupin", "affine_normal", "cut_length", "duality"]
    checks += ["petty", "radon", "affine_sphere"]
    assert stages == [
        "compile", "config", "curve", "compute_bundle[0]", "compute_bundle[1]", "write_curves_csv", "write_figure",
        *["check"] * len(checks), "rest", "total",
    ]
    assert [line.split()[1] for line in result.stdout.splitlines() if line.startswith("check ")] == checks
    assert not list(tmp_path.iterdir())  # the outputs go to a temporary directory


def test_stage_times_without_checks(tmp_path):
    # a run without checks still writes report.json, so its stages are timed too
    config = tmp_path / "export.json"
    config.write_text('{"curveSpec": {"kind": "ellipse", "a": 2.0, "b": 1.0}, "deltas": [1.0], "nSamples": 64}')
    work = tmp_path / "work"
    work.mkdir()
    result = run_script("stage_times.py", str(config), "--repeat", "1", cwd=work)
    assert result.returncode == 0, result.stderr
    stages = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert stages == ["compile", "config", "curve", "compute_bundle[0]", "write_curves_csv", "write_figure", "rest", "total"]
    assert not list(work.iterdir())
