"""Record the reference outputs that run.py compares against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs ``flotilla run`` on both shipped configs and ``flotilla carousel
configs/ellipse.json --q 3`` from ``src/`` and writes perfbench/reference/.
Re-record only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import verify  # noqa: E402
from flotilla import cli  # noqa: E402


def record_run(config_name, out_name):
    config_path = ROOT / "configs" / config_name
    config = json.loads(config_path.read_text())
    body = verify.Body.from_spec(config["curveSpec"])
    with tempfile.TemporaryDirectory() as tmp:
        cli.main(["run", str(config_path), "--out", tmp])
        rows = verify.read_rows(Path(tmp) / "curves.csv")
        report = json.loads((Path(tmp) / "report.json").read_text())
    n = config["nSamples"]
    bundles, i = [], 0
    for delta in report["deltas"]:
        families = []
        while i < len(rows) and (not families or rows[i][0] not in families):
            families.append(rows[i][0])
            i += n
        delta_hat = None
        if "illumination_boundary" in families:
            start = i - n * (len(families) - families.index("illumination_boundary"))
            s = np.array([r[verify.CSV_COLUMNS.index("chord_s")] for r in rows[start:start + n]])
            t = np.array([r[verify.CSV_COLUMNS.index("chord_t")] for r in rows[start:start + n]])
            area, _ = verify.fan_moments(body, s, t, verify.tangent_apex(body, s, t))
            delta_hat = config.get("deltaHat") or float(np.median(-area))
        bundles.append({"delta": delta, "delta_hat": delta_hat, "families": families})
    payload = {"config": config_name, "columns": verify.REFERENCE_COLUMNS, "bundles": bundles,
               "rows": verify.reference_from_rows(rows)}
    problems = verify.check_curves(rows, body, n, bundles)
    if problems:
        raise SystemExit(f"{config_name}: output fails the oracle, not recording: {problems}")
    verify.save_reference(HERE / "reference" / out_name, payload)


def record_carousel():
    with tempfile.TemporaryDirectory() as tmp:
        cli.main(["carousel", str(ROOT / "configs" / "ellipse.json"), "--q", "3", "--out", tmp])
        payload = json.loads((Path(tmp) / "carousel.json").read_text())
    reference = {"config": "ellipse.json", "q": 3, "s0": 0.0, "delta_star": payload["delta_star"],
                 "closure_defect": payload["closure_defect"]}
    (HERE / "reference" / "carousel_ellipse.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    (HERE / "reference").mkdir(exist_ok=True)
    record_run("ellipse.json", "run_ellipse.json.gz")
    record_run("perturbed_circle.json", "run_bump3.json.gz")
    record_carousel()
