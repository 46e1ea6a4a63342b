"""Command-line front end: config ingestion, sweeps, verification runner, exporters.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage/config
error, 3 numerical failure (solver or quadrature did not converge).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chord, floatgeom, homothety, illumgeom
from .curve import (
    SampledPeriodic,
    affine_normal,
    area,
    curve_from_json,
    det2,
    norm2,
)
from .errors import DomainError, FlotillaError
from .svg import export_svg

CSV_COLUMNS = [
    "family",
    "s",
    "point_x",
    "point_y",
    "tangent_x",
    "tangent_y",
    "kappa",
    "kappa_prime",
    "chord_s",
    "chord_t",
    "alpha",
    "beta",
    "norm_c",
    "affine_norm_c",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    curve_spec: dict
    deltas: list
    n_samples: int = 512
    checks: list = field(default_factory=list)
    output_dir: str = "."
    tolerances_override: dict = field(default_factory=dict)
    delta_hat: float | None = None
    chord_stride: int = 16


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = RunConfig(
            curve_spec=raw["curveSpec"],
            deltas=list(raw.get("deltas", [])),
            n_samples=int(raw.get("nSamples", 512)),
            checks=list(raw.get("checks", [])),
            output_dir=raw.get("outputDir", "."),
            tolerances_override={
                name: _positive_number(tol, f"tolerancesOverride[{name!r}]")
                for name, tol in dict(raw.get("tolerancesOverride", {})).items()
            },
            delta_hat=raw.get("deltaHat"),
            chord_stride=int(raw.get("chordStride", 16)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}")
    if cfg.n_samples < 64:
        raise ConfigError("nSamples must be at least 64")
    if cfg.delta_hat is not None:
        cfg.delta_hat = _positive_number(cfg.delta_hat, "deltaHat")
    return cfg


def _positive_number(value, name):
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(number) and number > 0.0):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    return number


def curve_label(spec):
    kind = spec.get("kind", "?")
    if kind == "ellipse":
        return f"ellipse(a={spec['a']}, b={spec['b']})"
    if kind == "fourier_radial":
        return f"fourier_radial(r0={spec['r0']}, cos={spec.get('cos', [])}, sin={spec.get('sin', [])})"
    if kind == "samples":
        return f"samples(n={len(spec.get('points', []))})"
    return kind


def resolve_deltas(raw_deltas, total_area):
    out = []
    for d in raw_deltas:
        try:
            value = float(d["fraction"]) * total_area if isinstance(d, dict) else float(d)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"bad delta entry {d!r}")
        if not 0.0 < value < total_area:
            raise ConfigError(f"delta {value} outside (0, area={total_area})")
        out.append(value)
    if not out:
        raise ConfigError("no deltas given")
    return out


def _constancy_threshold(curve):
    # spectral kinds carry interpolation noise; analytic kinds do not
    sampled = isinstance(curve, SampledPeriodic)
    return 1e-4 if sampled else 1e-6


# ---------------------------------------------------------------------------
# per-delta computation


# why the chord cube (and so the homothety regime) is undefined for a sweep
NO_APEX_REASON = "some flotation chords have parallel end tangents, where the affine chord length is infinite"


@dataclass
class DeltaBundle:
    """The sweeps and derived curves of one cut-off area.

    ``chord_cube_stats`` and ``implied_lambda`` are None when some flotation
    chord has no apex; the body is then not in the homothetic regime.
    """

    delta: float
    chords: chord.Chords
    flotation: floatgeom.DerivedCurve
    buoyancy: floatgeom.DerivedCurve
    chord_cube_stats: homothety.ConstancyReport | None
    implied_lambda: float | None
    homothetic: bool
    illum_chords: chord.Chords | None = None
    illumination: floatgeom.DerivedCurve | None = None
    illum_centroid: floatgeom.DerivedCurve | None = None

    def families(self):
        """(derived curve, the chords it is sampled at) of every family, in output order."""
        pairs = [(self.flotation, self.chords), (self.buoyancy, self.chords)]
        if self.illumination is not None:
            pairs += [(self.illumination, self.illum_chords), (self.illum_centroid, self.illum_chords)]
        return pairs


def compute_bundle(curve, delta, n_samples, delta_hat_override=None):
    chords_f = chord.sweep(curve, chord.FLOTATION, delta, n_samples)
    report = lam = None
    if chords_f.apex.all():
        report, lam = homothety.chord_cube_report(curve, delta, chord.FLOTATION, chords=chords_f)
    homothetic = report is not None and report.coefficient_of_variation < _constancy_threshold(curve)
    bundle = DeltaBundle(
        delta=delta,
        chords=chords_f,
        flotation=floatgeom.flotation_point(chords_f),
        buoyancy=floatgeom.buoyancy_point(chords_f, delta),
        chord_cube_stats=report,
        implied_lambda=lam,
        homothetic=homothetic,
    )
    delta_hat = delta_hat_override
    if delta_hat is None and homothetic and lam > 2.0 / 3.0:
        delta_hat, _ = homothety.duality_parameters(delta, lam)
    if delta_hat is not None:
        bundle.illum_chords = chord.sweep(curve, chord.ILLUMINATION, delta_hat, n_samples)
        bundle.illumination = illumgeom.illumination_point(bundle.illum_chords)
        bundle.illum_centroid = illumgeom.illumination_centroid_point(bundle.illum_chords, delta_hat)
    return bundle


# ---------------------------------------------------------------------------
# verification checks
#
# Each check returns the statistic's name, its value and threshold, and a
# status: "fail" when the value reaches the threshold, "skipped" (value None,
# with a reason) when the check does not apply to the body or the run.

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


def _measured(statistic, value, threshold):
    status = PASS if value < threshold else FAIL
    return {"statistic": statistic, "value": float(value), "threshold": float(threshold), "status": status}


def _skipped(statistic, threshold, reason):
    return {"statistic": statistic, "value": None, "threshold": float(threshold), "status": SKIPPED, "reason": reason}


def _tangency_residual(family, chords):
    norm_t = norm2(family.tangents)
    live = norm_t != 0.0  # vertex singularities: tangency is vacuous
    residual = np.abs(det2(family.tangents[live], chords.c[live])) / (norm_t[live] * chords.norm_c[live])
    return float(residual.max(initial=0.0))


def _check_chord_cube(curve, bundle, tol):
    tol = tol if tol is not None else _constancy_threshold(curve)
    if bundle.chord_cube_stats is None:
        return _skipped("cv_affine_chord_cubed", tol, NO_APEX_REASON)
    return _measured("cv_affine_chord_cubed", bundle.chord_cube_stats.coefficient_of_variation, tol)


def _check_endpoint_balance(curve, bundle, tol):
    tol = tol if tol is not None else 1e-8
    worst = float(np.max(np.abs(homothety.endpoint_balance_residual(bundle.chords))))
    return _measured("max_abs_endpoint_balance_residual", worst, tol)


def _check_omega(curve, bundle, tol):
    tol = tol if tol is not None else 1e-6
    res = floatgeom.omega_identity_residual(curve, bundle.delta, len(bundle.chords), chords=bundle.chords)
    return _measured("omega_identity_rel_residual", res, tol)


def _check_dupin(curve, bundle, tol):
    tol = tol if tol is not None else 1e-9
    worst = max(_tangency_residual(family, chords) for family, chords in bundle.families())
    return _measured("max_tangency_residual", worst, tol)


def _check_affine_normal(curve, bundle, tol):
    tol = tol if tol is not None else 1.0
    angle, mag = floatgeom.buoyancy_affine_normal_check(bundle.chords, bundle.delta)
    live = ~np.isnan(angle)
    if not live.any():
        return _skipped("worst_affine_normal_ratio", tol, "no chord has intersecting end tangents")
    worst = float(np.max(np.maximum(angle[live] / 1e-6, mag[live] / 1e-5)))
    return _measured("worst_affine_normal_ratio", worst, tol)


def _check_cut_length(curve, bundle, tol):
    tol = tol if tol is not None else _constancy_threshold(curve)
    rep = homothety.affine_cut_length_report(
        curve, bundle.delta, chords=bundle.chords
    )
    return _measured("cv_affine_cut_length", rep.coefficient_of_variation, tol)


def _check_duality(curve, bundle, tol):
    tol = tol if tol is not None else 1e-6
    if not bundle.homothetic:
        reason = NO_APEX_REASON if bundle.chord_cube_stats is None else "the cubed affine chord length is not constant"
        return _skipped("duality_not_in_homothetic_regime", tol, reason)
    if bundle.illum_chords is None:
        return _skipped(
            "duality_not_in_homothetic_regime", tol,
            f"the implied ratio {bundle.implied_lambda:.6g} is at most 2/3, so there is no dual cone area",
        )
    worst, _ = homothety.duality_pointwise_check(
        curve, bundle.delta, chords=bundle.chords, illum_chords=bundle.illum_chords
    )
    pts = bundle.flotation.points
    diameter = float(norm2(pts.max(axis=0) - pts.min(axis=0)))
    return _measured("max_pole_mismatch_over_diameter", worst / diameter, tol)


def _check_petty(curve, bundle, tol):
    tol = tol if tol is not None else _constancy_threshold(curve)
    return _measured("cv_petty_condition", homothety.petty_condition_report(curve).coefficient_of_variation, tol)


def _check_radon(curve, bundle, tol):
    tol = tol if tol is not None else 1e-9
    try:
        worst = homothety.radon_check(curve, n_samples=128)
    except DomainError as exc:
        return _skipped("radon_requires_origin_symmetry", tol, str(exc))
    return _measured("max_radon_residual", worst, tol)


def _check_affine_sphere(curve, bundle, tol):
    tol = tol if tol is not None else 1e-8
    n = 128
    grid = (np.arange(n) + 0.5) * (curve.period / n)
    pts = curve.derivative(grid, 0)
    normals = affine_normal(curve, grid)
    fit = homothety.proper_affine_sphere_residual(pts, normals)
    diameter = float(norm2(pts.max(axis=0) - pts.min(axis=0)))
    return _measured("affine_normal_concurrency_rms_over_diameter", fit.rms_distance / diameter, tol)


CHECKS = {
    "chord_cube": _check_chord_cube,
    "endpoint_balance": _check_endpoint_balance,
    "omega": _check_omega,
    "dupin": _check_dupin,
    "affine_normal": _check_affine_normal,
    "cut_length": _check_cut_length,
    "duality": _check_duality,
    "petty": _check_petty,
    "radon": _check_radon,
    "affine_sphere": _check_affine_sphere,
}

_SEVERITY = {SKIPPED: 0, PASS: 1, FAIL: 2}


def _severity(entry):
    """Order of records across deltas: a failure over a pass over a skip, then value over threshold."""
    if entry["status"] == SKIPPED:
        return (0, 0.0)
    return (_SEVERITY[entry["status"]], entry["value"] / max(entry["threshold"], 1e-300))


def run_checks(curve, label, bundles, checks, overrides):
    """One record per requested check, aggregated worst-case over deltas.

    ``pass`` is false only for a failed check; a skipped record says why in
    ``reason``.
    """
    records = []
    for name in checks:
        entries = []
        for bundle in bundles:
            result = CHECKS[name](curve, bundle, overrides.get(name))
            entries.append({"check": name, "curve": label, "delta": bundle.delta, **result, "pass": result["status"] != FAIL})
        records.append(max(entries, key=_severity))
    return records


# ---------------------------------------------------------------------------
# serialization


def _csv_rows(family, chords):
    """The rows of one derived family, one per chord, each float as %.17g."""
    columns = [
        chords.s, family.points, family.tangents, family.kappa, family.kappa_prime,
        chords.s, chords.t, chords.alpha, chords.beta, chords.norm_c, chords.affine_norm_c,
    ]
    # a family without kappa' leaves its cell empty
    kappa_prime = "" if family.kappa_prime is None else "%.17g"
    row = ",".join([family.family, *["%.17g"] * 6, kappa_prime, *["%.17g"] * 6]) + "\r\n"
    block = np.column_stack([col for col in columns if col is not None])
    return (row * len(block)) % tuple(block.ravel().tolist())


def write_curves_csv(path, bundles):
    """Write every derived family of the bundles to curves.csv, with csv.writer's CRLF row ends."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for bundle in bundles:
            for family, chords in bundle.families():
                fh.write(_csv_rows(family, chords))


def read_curves_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise DomainError(f"unexpected CSV header {header}")
        for raw in reader:
            row = {"family": raw[0]}
            for col, val in zip(CSV_COLUMNS[1:], raw[1:]):
                row[col] = float(val) if val != "" else None
            rows.append(row)
    return rows


def report_schema():
    with open(Path(__file__).parent / "report_schema.json") as fh:
        return json.load(fh)


def write_report(path, label, deltas, n_samples, records):
    """Write report.json (shape in report_schema.json); skipped records do not count against ``passed``."""
    payload = {
        "curve": label,
        "deltas": [float(d) for d in deltas],
        "n_samples": int(n_samples),
        "passed": all(r["status"] != FAIL for r in records),
        "records": records,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return payload


def write_figure(path, curve, bundles, chord_stride):
    n = max(len(b.chords) for b in bundles)
    grid = np.arange(n) * (curve.period / n)
    curves = [{"label": "body", "points": curve.derivative(grid, 0)}]
    for bundle in bundles:
        curves += [{"label": family.family, "points": family.points} for family, _ in bundle.families()]
    export_svg(curves, path, chords=[b.chords for b in bundles], chord_stride=chord_stride)


# ---------------------------------------------------------------------------
# commands


def cmd_run(config: RunConfig, do_checks=True):
    unknown = [name for name in config.checks if name not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown check {unknown[0]!r} (available: {sorted(CHECKS)})")
    curve = curve_from_json(config.curve_spec)
    label = curve_label(config.curve_spec)
    total = area(curve)
    deltas = resolve_deltas(config.deltas, total)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    bundles = [compute_bundle(curve, d, config.n_samples, config.delta_hat) for d in deltas]

    write_curves_csv(out_dir / "curves.csv", bundles)
    write_figure(out_dir / "figure.svg", curve, bundles, config.chord_stride)

    if not do_checks or not config.checks:
        print(f"wrote {out_dir/'curves.csv'} and {out_dir/'figure.svg'}")
        return EXIT_OK

    records = run_checks(curve, label, bundles, config.checks, config.tolerances_override)
    payload = write_report(out_dir / "report.json", label, deltas, config.n_samples, records)
    for rec in records:
        if rec["status"] == SKIPPED:
            print(f"[SKIP] {rec['check']}: {rec['reason']} (delta {rec['delta']:.6g})")
            continue
        print(
            f"[{rec['status'].upper()}] {rec['check']}: {rec['statistic']} = {rec['value']:.6g} "
            f"(threshold {rec['threshold']:.3g}, delta {rec['delta']:.6g})"
        )
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def cmd_carousel(config: RunConfig, q, p, s0):
    curve = curve_from_json(config.curve_spec)
    label = curve_label(config.curve_spec)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    delta_star = homothety.solve_carousel_delta(curve, p, q, s0=s0)
    car = homothety.build_carousel(curve, p, q, delta_star, s0=s0)
    payload = {
        "curve": label,
        "p": p,
        "q": q,
        "delta_star": delta_star,
        "closure_defect": car.closure_defect,
        "vertices": car.vertices,
        "lambdas": car.lambdas,
    }
    if q == 3:
        diag = homothety.carousel_diagnostics(curve, delta_star, n_samples=32)
        payload["lambda_cv"] = diag.lambda_report.coefficient_of_variation
        payload["centroid_drift_max"] = diag.centroid_drift_max
        payload["lambda_product_max_dev"] = diag.lambda_product_max_dev
        payload["medial_residual_max"] = diag.medial_residual_max
        payload["closure_defect_max"] = diag.closure_defect_max
    with open(out_dir / "carousel.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"carousel p/q={p}/{q}: delta* = {delta_star:.12g}, "
        f"closure defect {car.closure_defect:.3e}"
    )
    # closing from s0 but not from every start is a negative result, not bad input
    if payload.get("closure_defect_max", 0.0) > 1e-8 * curve.period:
        print(f"[FAIL] carousel does not close from every start: max |defect| = {payload['closure_defect_max']:.3e}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flotilla",
        description="flotation / buoyancy / illumination curves of convex plane bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run sweeps, checks and exporters")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--samples", type=int, help="sweep sample count (overrides config)")
    p_run.add_argument("--checks", help="comma-separated check names (overrides config)")

    p_car = sub.add_parser("carousel", help="solve and diagnose a p/q carousel")
    p_car.add_argument("config")
    p_car.add_argument("--q", type=int, required=True)
    p_car.add_argument("--p", type=int, default=1)
    p_car.add_argument("--s0", type=float, default=0.0)
    p_car.add_argument("--out", help="output directory (overrides config)")

    p_exp = sub.add_parser("export", help="write curves.csv and figure.svg only")
    p_exp.add_argument("config")
    p_exp.add_argument("--out", help="output directory (overrides config)")
    p_exp.add_argument("--samples", type=int)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        config = load_config(args.config)
        if getattr(args, "out", None):
            config.output_dir = args.out
        if getattr(args, "samples", None):
            config.n_samples = args.samples
        if getattr(args, "checks", None):
            config.checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if args.command == "run":
            return cmd_run(config)
        if args.command == "carousel":
            return cmd_carousel(config, q=args.q, p=args.p, s0=args.s0)
        if args.command == "export":
            config.checks = []
            return cmd_run(config, do_checks=False)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FlotillaError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
