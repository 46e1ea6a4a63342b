"""The benchmark's workloads: CLI arguments, seeded inputs and output checks.

Each workload turns ``--seed`` into the inputs of its CLI calls and checks
every call's outputs (see verify.py). The program only ever sees the
generated config and command-line arguments.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import verify

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

RUN_OUTPUTS = ("curves.csv", "figure.svg", "report.json")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SAMPLED_POINTS = 256
SAMPLED_HARMONICS = range(2, 6)
SAMPLED_CHECKS = [
    "chord_cube", "endpoint_balance", "omega", "dupin", "affine_normal", "cut_length", "petty", "affine_sphere",
]


def sampled_body(seed):
    """Seeded radial body r(u) = 1 + sum_k a_k cos(ku) + b_k sin(ku), k = 2..5.

    |a_k|, |b_k| <= 0.04 / k^2 keeps r^2 + 2 r'^2 - r r'' > 0, so the body is
    strictly convex for every seed, and the Fourier degree stays far below
    the sample count, so the samples determine the curve exactly.
    """
    rng = random.Random(f"run_sampled:{seed}")
    cos = [0.0] * max(SAMPLED_HARMONICS)
    sin = [0.0] * max(SAMPLED_HARMONICS)
    for k in SAMPLED_HARMONICS:
        cos[k - 1] = rng.uniform(-1.0, 1.0) * 0.04 / k**2
        sin[k - 1] = rng.uniform(-1.0, 1.0) * 0.04 / k**2
    return verify.Body(1.0, cos, sin)


def sampled_config(seed):
    """Config text for run_sampled; the same seed gives the same bytes."""
    body = sampled_body(seed)
    u = [2.0 * math.pi * i / SAMPLED_POINTS for i in range(SAMPLED_POINTS)]
    points = [[float(x), float(y)] for x, y in body.point(u)]
    config = {
        "curveSpec": {"kind": "samples", "points": points},
        "deltas": [{"fraction": 0.25}],
        "nSamples": 256,
        "checks": SAMPLED_CHECKS,
    }
    return json.dumps(config, indent=None, separators=(",", ":")) + "\n"


class RunWorkload:
    """``flotilla run CONFIG --out DIR``: sweeps, ten checks at most, three writers."""

    def __init__(self, name, config=None, reference=None):
        self.name = name
        self.config_name = config
        self.reference_name = reference
        self.config_path = None

    def prepare(self, seed, root, work):
        if self.config_name is not None:
            self.config_path = root / "configs" / self.config_name
            self.body = verify.Body.from_spec(json.loads(self.config_path.read_text())["curveSpec"])
        else:
            self.config_path = work / "sampled.json"
            self.config_path.write_text(sampled_config(seed))
            self.body = sampled_body(seed)
        self.config = json.loads(self.config_path.read_text())
        self.reference = (
            verify.load_reference(REFERENCE_DIR / self.reference_name) if self.reference_name else None
        )

    def argv(self, index, out_dir):
        return ["run", str(self.config_path), "--out", str(out_dir)]

    def verify(self, index, out_dir, exit_code):
        problems = verify.file_problems(out_dir, RUN_OUTPUTS)
        if problems:
            return problems, {}
        verdicts, report, problems = verify.read_verdicts(out_dir / "report.json", self.config["checks"])
        if (exit_code == 0) != bool(report.get("passed")):
            problems.append(f"exit code {exit_code} disagrees with report passed={report.get('passed')}")
        rows = verify.read_rows(out_dir / "curves.csv")
        if self.reference is not None:
            bundles = self.reference["bundles"]
            deltas = [b["delta"] for b in bundles]
            problems += verify.check_reference(rows, self.reference)
        else:
            deltas = [0.25 * self.body.area()]
            bundles = [{"delta": deltas[0], "delta_hat": None, "families": ["flotation_boundary", "buoyancy_curve"]}]
        got = report.get("deltas", [])
        if len(got) != len(deltas) or any(abs(a - b) > verify.REL_AREA_TOL * b for a, b in zip(got, deltas)):
            problems.append(f"report deltas {got} != expected {deltas}")
        problems += verify.check_curves(rows, self.body, self.config["nSamples"], bundles)
        return problems, verdicts


class CarouselWorkload:
    """``flotilla carousel configs/ellipse.json --q 3 --s0 S0 --out DIR`` with seeded starts."""

    name = "carousel_ellipse"

    def prepare(self, seed, root, work):
        self.config_path = root / "configs" / "ellipse.json"
        self.body = verify.Body.from_spec(json.loads(self.config_path.read_text())["curveSpec"])
        self.reference = json.loads((REFERENCE_DIR / "carousel_ellipse.json").read_text())
        self._phase = random.Random(f"carousel_ellipse:{seed}").random()

    def s0(self, index):
        # golden-ratio sequence from a seeded phase: any run's first n starts
        # spread evenly around the curve, so the share of starts on which the
        # closing-area root finder needs many steps is about the same in every run
        return 2.0 * math.pi * ((self._phase + index * GOLDEN) % 1.0)

    def argv(self, index, out_dir):
        return ["carousel", str(self.config_path), "--q", "3", "--s0", repr(self.s0(index)), "--out", str(out_dir)]

    def verify(self, index, out_dir, exit_code):
        problems = verify.file_problems(out_dir, ["carousel.json"])
        if problems:
            return problems, {}
        payload = json.loads((out_dir / "carousel.json").read_text())
        verdicts = {
            key: payload[key]
            for key in ("lambda_cv", "centroid_drift_max", "lambda_product_max_dev", "medial_residual_max")
            if key in payload
        }
        return verify.check_carousel(payload, self.body, self.s0(index), 3, self.reference), verdicts


WORKLOADS = {
    "run_ellipse": lambda: RunWorkload("run_ellipse", "ellipse.json", "run_ellipse.json.gz"),
    "run_bump3": lambda: RunWorkload("run_bump3", "perturbed_circle.json", "run_bump3.json.gz"),
    "run_sampled": lambda: RunWorkload("run_sampled"),
    "carousel_ellipse": CarouselWorkload,
}
