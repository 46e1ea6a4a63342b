"""Command-line front end: config ingestion, sweeps, verification runner, exporters.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage/config
error (ConfigError), bad input (errors.DomainError) or an output that cannot
be written, 3 numerical failure (errors.SolverError: a solver or quadrature
did not converge; or a float overflowed).
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import chord, floatgeom, homothety
from .curve import PERIOD, SPEC_KEYS, area, curve_from_json, is_number
from .errors import DomainError, SolverError
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

# the config keys load_config reads; any other key is a ConfigError
CONFIG_KEYS = ("curveSpec", "deltas", "nSamples", "checks", "outputDir", "deltaHat")
# figure.svg draws every CHORD_STRIDE-th chord of each flotation sweep
CHORD_STRIDE = 16
# the largest nSamples: a run of the 2:1 ellipse at this size peaks near 200 MB; far larger ones exhaust memory
MAX_SAMPLES = 65536
# a deltaHat lies in [MIN_CONE_FRACTION, MAX_CONE_FRACTION] times the body area: towards either end the illumination
# sweep's rounding grows, and on the 2:1 ellipse its chord cube's CV passes 1e-6 near 3e-22 and 2e9 of the area
MIN_CONE_FRACTION, MAX_CONE_FRACTION = 1e-18, 1e6


class ConfigError(Exception):
    pass


class RunConfig:
    """A run config as load_config reads it: one attribute per key of CONFIG_KEYS."""

    def __init__(self, curve_spec, deltas, n_samples=512, checks=(), output_dir=".", delta_hat=None):
        self.curve_spec, self.deltas, self.n_samples = curve_spec, deltas, n_samples
        self.checks, self.output_dir, self.delta_hat = list(checks), output_dir, delta_hat


def load_config(path):
    """Read and validate a run config; a key outside CONFIG_KEYS is an error, never ignored."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"malformed config: expected a JSON object, got {type(raw).__name__}")
    unknown = [key for key in raw if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} (allowed: {', '.join(CONFIG_KEYS)})")
    deltas, checks, output_dir = raw.get("deltas", []), raw.get("checks", []), raw.get("outputDir", ".")
    # a string is not read as a list of its characters
    if not isinstance(deltas, list):
        raise ConfigError(f"deltas must be a list, got {deltas!r}")
    if not (isinstance(checks, list) and all(isinstance(name, str) for name in checks)):
        raise ConfigError(f"checks must be a list of check names, got {checks!r}")
    if not isinstance(output_dir, str):
        raise ConfigError(f"outputDir must be a string, got {output_dir!r}")
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown check {unknown[0]!r} (available: {sorted(CHECKS)})")
    # each check writes one record and one stage time, so a repeated name would sum two times in one stage
    repeated = [name for i, name in enumerate(checks) if name in checks[:i]]
    if repeated:
        raise ConfigError(f"check {repeated[0]!r} named twice")
    for d in deltas:
        extra = [key for key in d if key != "fraction"] if isinstance(d, dict) else []
        if extra:
            raise ConfigError(f"unknown key {extra[0]!r} in delta entry {d!r} (allowed: fraction)")
        if not is_number(d.get("fraction") if isinstance(d, dict) else d):
            raise ConfigError(f"bad delta entry {d!r}")
    if "curveSpec" not in raw:
        raise ConfigError("malformed config: missing key 'curveSpec'")
    cfg = RunConfig(
        curve_spec=raw["curveSpec"],
        deltas=deltas,
        n_samples=_n_samples(raw.get("nSamples", 512)),
        checks=checks,
        output_dir=output_dir,
        delta_hat=raw.get("deltaHat"),
    )
    if not 64 <= cfg.n_samples <= MAX_SAMPLES:
        raise ConfigError(f"nSamples must be between 64 and {MAX_SAMPLES}, got {raw['nSamples']!r}")
    if cfg.delta_hat is not None:
        cfg.delta_hat = _delta_hat(cfg.delta_hat)
    return cfg


def _n_samples(value):
    """An int, or a float with an integral value such as 64.0; any other value is a ConfigError, never truncated."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"nSamples must be an integer, got {value!r}")
    return int(value)


def _delta_hat(value):
    if not is_number(value):
        raise ConfigError(f"deltaHat must be a number, got {value!r}")
    number = float(value)
    if not (math.isfinite(number) and number > 0.0):
        raise ConfigError(f"deltaHat must be finite and positive, got {value!r}")
    return number


def bound_delta_hat(delta_hat, total_area):
    """The config's deltaHat, or None; one outside [MIN_CONE_FRACTION, MAX_CONE_FRACTION] x area is an error."""
    lo, hi = MIN_CONE_FRACTION * total_area, MAX_CONE_FRACTION * total_area
    if delta_hat is not None and not lo <= delta_hat <= hi:
        raise ConfigError(
            f"deltaHat {delta_hat} outside [{MIN_CONE_FRACTION:g}, {MAX_CONE_FRACTION:g}] x area = [{lo}, {hi}]: "
            "beyond them the illumination sweep's rounding grows towards the identities' thresholds"
        )
    return delta_hat


def curve_label(spec):
    """The spec's kind and every key it sets; a fourier_radial's cos and sin always, samples by their count."""
    kind = spec.get("kind", "?")
    if kind == "ellipse":
        return f"ellipse({', '.join(f'{key}={spec[key]}' for key in SPEC_KEYS[kind] if key in spec)})"
    if kind == "fourier_radial":
        return f"fourier_radial(r0={spec['r0']}, cos={spec.get('cos', [])}, sin={spec.get('sin', [])})"
    if kind == "samples":
        return f"samples(n={len(spec.get('points', []))})"
    return kind


def resolve_deltas(raw_deltas, total_area):
    """The cut-off areas of delta entries that load_config has read: a number, or {"fraction": f} of the area.

    An area nearer 0 or the whole body than chord.MIN_CUT_FRACTION of it is an error.
    """
    floor = chord.MIN_CUT_FRACTION
    lo, hi = floor * total_area, (1.0 - floor) * total_area
    out = []
    for d in raw_deltas:
        value = d["fraction"] * total_area if isinstance(d, dict) else float(d)
        if not lo <= value <= hi:
            raise ConfigError(
                f"delta {value} outside [{floor:g}, 1 - {floor:g}] x area = [{lo}, {hi}]: "
                "nearer 0 or the whole area, the rounding floor of the identities passes their thresholds"
            )
        out.append(value)
    if not out:
        raise ConfigError("no deltas given")
    return out


def _constancy_threshold(curve):
    # a body its representation resolves to rounding gets the tight bound; samples whose
    # interpolant keeps every mode may carry truncation or noise, and get the loose one
    return 1e-6 if curve.resolved else 1e-4


# ---------------------------------------------------------------------------
# per-delta computation


# why the chord cube (and so the homothety regime) is undefined for a sweep
NO_APEX_REASON = "some flotation chords have parallel end tangents, where the affine chord length is infinite"


class DeltaBundle:
    """The sweeps and derived curves of one cut-off area, ``chords.delta``.

    ``chord_cube_stats`` and ``implied_lambda`` are None when some flotation
    chord has no apex; the body is then not in the homothetic regime. The
    three illumination fields are None when the run has no illumination sweep.
    """

    def __init__(self, chords, flotation, buoyancy, chord_cube_stats, implied_lambda, homothetic):
        self.chords, self.flotation, self.buoyancy = chords, flotation, buoyancy
        self.chord_cube_stats, self.implied_lambda, self.homothetic = chord_cube_stats, implied_lambda, homothetic
        self.illum_chords = self.illumination = self.illum_centroid = None

    def sweeps(self):
        """(chords, the derived curves sampled at them) of every sweep, in output order."""
        pairs = [(self.chords, [self.flotation, self.buoyancy])]
        if self.illumination is not None:
            pairs.append((self.illum_chords, [self.illumination, self.illum_centroid]))
        return pairs


def compute_bundle(curve, delta, n_samples, delta_hat_override=None):
    chords_f = chord.sweep(curve, chord.FLOTATION, delta, n_samples)
    report = lam = None
    if chords_f.apex.all():
        report, lam = homothety.chord_cube_report(chords_f)
    homothetic = report is not None and report.coefficient_of_variation < _constancy_threshold(curve)
    bundle = DeltaBundle(
        chords=chords_f,
        flotation=floatgeom.flotation_point(chords_f),
        buoyancy=floatgeom.buoyancy_point(chords_f),
        chord_cube_stats=report,
        implied_lambda=lam,
        homothetic=homothetic,
    )
    delta_hat = delta_hat_override
    if delta_hat is None and homothetic and lam > 2.0 / 3.0:
        delta_hat, _ = homothety.duality_parameters(delta, lam)
    if delta_hat is not None:
        bundle.illum_chords = chord.sweep(curve, chord.ILLUMINATION, delta_hat, n_samples)
        bundle.illumination = floatgeom.illumination_point(bundle.illum_chords)
        bundle.illum_centroid = floatgeom.illumination_centroid_point(bundle.illum_chords)
    return bundle


# ---------------------------------------------------------------------------
# verification checks
#
# Each check takes one DeltaBundle, the body as its chords' curve, and returns
# the statistic's name, its value and threshold, and a status: "fail" when the
# value reaches the threshold, "skipped" (value None, with a reason) when the
# check does not apply to the body or the run, or cannot fail on any input.

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


def _measured(statistic, value, threshold):
    status = PASS if value < threshold else FAIL
    return {"statistic": statistic, "value": float(value), "threshold": float(threshold), "status": status}


def _skipped(statistic, threshold, reason):
    return {"statistic": statistic, "value": None, "threshold": float(threshold), "status": SKIPPED, "reason": reason}


def _check_chord_cube(bundle):
    tol = _constancy_threshold(bundle.chords.curve)
    if bundle.chord_cube_stats is None:
        return _skipped("cv_affine_chord_cubed", tol, NO_APEX_REASON)
    return _measured("cv_affine_chord_cubed", bundle.chord_cube_stats.coefficient_of_variation, tol)


def _check_endpoint_balance(bundle):
    worst = float(np.max(np.abs(homothety.endpoint_balance_residual(bundle.chords))))
    return _measured("max_abs_endpoint_balance_residual", worst, 1e-8)


def _check_omega(bundle):
    res = floatgeom.omega_identity_residual(bundle.chords, bundle.buoyancy.points)
    return _measured("omega_identity_rel_residual", res, 1e-6)


# the closed forms make dupin and affine_normal identities in the chord frame: each reads
# rounding level on any chords, shifted or relabelled ones too
IDENTITY_REASON = "an identity in the chord frame, which no chords can fail: "


def _check_dupin(bundle):
    reason = IDENTITY_REASON + "every derived tangent is c times a scalar in closed form"
    return _skipped("max_tangency_residual", 1e-9, reason)


def _check_affine_normal(bundle):
    reason = IDENTITY_REASON + (
        "the closed-form buoyancy affine normal equals (8 dbar^(1/3)/|c|_aff^3)(r1 - z) for every chord"
    )
    return _skipped("worst_affine_normal_ratio", 1.0, reason)


def _check_cut_length(bundle):
    curve = bundle.chords.curve
    rep = homothety.affine_cut_length_report(bundle.chords)
    record = _measured("cv_affine_cut_length", rep.coefficient_of_variation, _constancy_threshold(curve))
    # the paper's one-third hypothesis: the mean cut over the affine perimeter
    return {**record, "mean_cut_fraction": rep.mean / curve.affine_arc.total}


def _check_duality(bundle):
    tol = 1e-6
    if not bundle.homothetic:
        reason = NO_APEX_REASON if bundle.chord_cube_stats is None else "the cubed affine chord length is not constant"
        return _skipped("duality_not_in_homothetic_regime", tol, reason)
    if bundle.implied_lambda <= 2.0 / 3.0:
        return _skipped(
            "duality_not_in_homothetic_regime", tol,
            f"the implied ratio {bundle.implied_lambda:.6g} is at most 2/3, so there is no dual cone area",
        )
    # an explicit deltaHat gives an illumination sweep that need not be at the dual cone area
    dual, _ = homothety.duality_parameters(bundle.chords.delta, bundle.implied_lambda)
    if not math.isclose(bundle.illum_chords.delta, dual, rel_tol=1e-9):
        return _skipped(
            "duality_not_at_dual_cone_area", tol,
            f"the illumination sweep has cone area {bundle.illum_chords.delta:.6g}, "
            f"not the dual cone area {dual:.6g}",
        )
    worst, _ = homothety.duality_pointwise_check(bundle.chords, bundle.illum_chords)
    return _measured("max_relative_pole_mismatch", worst, tol)


def _check_petty(bundle):
    curve = bundle.chords.curve
    # the reciprocal form, finite at flat points where the condition itself is infinite
    report = homothety.ConstancyReport.from_values(homothety.petty_ratios(curve))
    return _measured("cv_petty_condition", report.coefficient_of_variation, _constancy_threshold(curve))


def _check_radon(bundle):
    tol = 1e-9
    try:
        worst = homothety.radon_check(bundle.chords.curve, n_samples=128)
    except DomainError as exc:
        return _skipped("radon_requires_central_symmetry", tol, str(exc))
    return _measured("max_radon_residual", worst, tol)


def _check_affine_sphere(bundle):
    residual = homothety.affine_sphere_residual(bundle.chords.curve)
    return _measured("affine_normal_concurrency_rms_over_diameter", residual, 1e-8)


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

# properties of the body alone, the same at every delta: evaluated once, at the first
BODY_CHECKS = ("petty", "radon", "affine_sphere")

_SEVERITY = {SKIPPED: 0, PASS: 1, FAIL: 2}


def _severity(entry):
    """Order of records across deltas: a failure over a pass over a skip, then value over threshold."""
    if entry["status"] == SKIPPED:
        return (0, 0.0)
    return (_SEVERITY[entry["status"]], entry["value"] / max(entry["threshold"], 1e-300))


def run_checks(label, bundles, name):
    """The record of one check, aggregated worst-case over deltas.

    ``pass`` is false only for a failed check; a skipped record says why in
    ``reason``. A check in BODY_CHECKS runs on the first bundle only.
    """
    entries = []
    for bundle in bundles[:1] if name in BODY_CHECKS else bundles:
        result = CHECKS[name](bundle)
        record = {"check": name, "curve": label, "delta": bundle.chords.delta, **result}
        entries.append({**record, "pass": result["status"] != FAIL})
    return max(entries, key=_severity)


# ---------------------------------------------------------------------------
# serialization


def _cells(columns):
    """One string per row of the columns, as an object array: every value as %.17g, cells joined by commas."""
    block = np.column_stack(columns)
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return np.array(((row * len(block)) % tuple(block.ravel().tolist())).split("\n")[:-1], dtype=object)


def _sweep_rows(chords, families, s):
    """The rows of the families sampled at one sweep, whose chord cells are formatted once for all of them.

    ``s`` holds the cells of the sweep's grid, both the s and the chord_s cell.
    """
    tail = _cells([chords.t, chords.alpha, chords.beta, chords.norm_c, chords.affine_norm_c])
    blocks = []
    for family in families:
        columns = [c for c in (family.points, family.tangents, family.kappa, family.kappa_prime) if c is not None]
        own = np.column_stack(columns)
        cells = np.column_stack([s, own.astype(object), s, tail])
        # a family without kappa' leaves its cell empty
        row = f"{family.family},%s" + ",%.17g" * own.shape[1] + "," * (family.kappa_prime is None) + ",%s,%s\r\n"
        blocks.append((row * len(own)) % tuple(cells.ravel().tolist()))
    return "".join(blocks)


def write_curves_csv(path, bundles):
    """Write every derived family of the bundles to curves.csv, with csv.writer's CRLF row ends.

    The s cells of a grid are formatted once for all the sweeps on it.
    """
    grids = {}  # the s cells of every grid, by the bytes of its s values
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for bundle in bundles:
            for chords, families in bundle.sweeps():
                key = chords.s.tobytes()
                if key not in grids:
                    grids[key] = _cells([chords.s])
                fh.write(_sweep_rows(chords, families, grids[key]))


def write_json(path, payload):
    """Write payload as strict indented JSON, serialised first: a NaN or infinity is a SolverError, with no file."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # json's reason names the value: "Out of range float values are not JSON compliant: nan"
        raise SolverError(f"{Path(path).name} would hold a non-finite number ({exc})") from None
    with open(path, "w") as fh:
        fh.write(text)


def write_figure(path, bundles, chord_stride):
    # the body is drawn through gamma at the first sweep's chord starts, its uniform grid
    curves = [{"label": "body", "points": bundles[0].chords.x}]
    for bundle in bundles:
        curves += [{"label": f.family, "points": f.points} for _, families in bundle.sweeps() for f in families]
    export_svg(curves, path, chords=[b.chords for b in bundles], chord_stride=chord_stride)


# ---------------------------------------------------------------------------
# commands


class StageTimer(dict):
    """The wall time of each stage of a command, in seconds from time.perf_counter, in the order the stages ran."""

    def __call__(self, stage, call):
        # each stage is called by its module name, so a wrapper set over that name sees the call
        start = time.perf_counter()
        result = call()
        self[stage] = self.get(stage, 0.0) + time.perf_counter() - start
        return result


def cmd_run(config: RunConfig):
    timed = StageTimer()
    curve = timed("curve", lambda: curve_from_json(config.curve_spec))
    label = curve_label(config.curve_spec)
    total = timed("curve", lambda: area(curve))
    deltas = timed("curve", lambda: resolve_deltas(config.deltas, total))
    delta_hat = timed("curve", lambda: bound_delta_hat(config.delta_hat, total))
    bundles = [
        timed(f"compute_bundle[{i}]", lambda: compute_bundle(curve, d, config.n_samples, delta_hat))
        for i, d in enumerate(deltas)
    ]
    # the residual evaluations of every sweep's chord solve, as "flotation[i]" and "illumination[i]" for delta i
    residual_calls = {
        f"{chords.kind}[{i}]": chords.residual_calls
        for i, bundle in enumerate(bundles)
        for chords, _ in bundle.sweeps()
    }

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    timed("write_curves_csv", lambda: write_curves_csv(out_dir / "curves.csv", bundles))
    timed("write_figure", lambda: write_figure(out_dir / "figure.svg", bundles, CHORD_STRIDE))

    # one stage per check, summed over the deltas it runs at
    records = [timed(f"check {name}", lambda: run_checks(label, bundles, name)) for name in config.checks]
    # report.json has the shape of report_schema.json; skipped records do not count against passed
    passed = all(r["status"] != FAIL for r in records)
    write_json(out_dir / "report.json", {
        "curve": label,
        "deltas": [float(d) for d in deltas],
        "n_samples": int(config.n_samples),
        "passed": passed,
        "records": records,
        "stage_seconds": timed,
        "residual_calls": residual_calls,
    })
    for rec in records:
        if rec["status"] == SKIPPED:
            print(f"[SKIP] {rec['check']}: {rec['reason']} (delta {rec['delta']:.6g})")
            continue
        print(
            f"[{rec['status'].upper()}] {rec['check']}: {rec['statistic']} = {rec['value']:.6g} "
            f"(threshold {rec['threshold']:.3g}, delta {rec['delta']:.6g})"
        )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_carousel(config: RunConfig, q, p, s0):
    timed = StageTimer()
    curve = timed("curve", lambda: curve_from_json(config.curve_spec))
    car = timed("build_carousel", lambda: homothety.build_carousel(curve, p, q, s0=s0))  # at the delta* where it closes
    payload = {
        "curve": curve_label(config.curve_spec),
        "p": car.p,
        "q": car.q,
        "delta_star": car.delta,
        "closure_defect": car.closure_defect,
        "vertices": car.vertices,
        "lambdas": car.lambdas,
    }
    if car.lambda_report is not None:  # the tangent-triangle statistics of 3-chair chains
        payload["lambda_cv"] = car.lambda_report.coefficient_of_variation
        payload["centroid_drift_max"] = car.centroid_drift_max
        payload["lambda_product_max_dev"] = car.lambda_product_max_dev
        payload["medial_residual_max"] = car.medial_residual_max
    payload["closure_defect_max"] = car.closure_defect_max
    payload["chain_solves"] = car.chain_solves
    payload["stage_seconds"] = timed
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "carousel.json", payload)
    print(f"carousel p/q={p}/{q}: delta* = {car.delta:.12g}, closure defect {car.closure_defect:.3e}")
    # closing from s0 but not from every start is a negative result, not bad input
    if car.closure_defect_max > 1e-8 * PERIOD:
        print(f"[FAIL] carousel does not close from every start: max |defect| = {car.closure_defect_max:.3e}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


# every command's options as {option: (value type, default)}; an option whose
# default is REQUIRED must be given. --out overrides the config's outputDir
REQUIRED = object()
COMMANDS = {
    "run": {"--out": (str, None)},
    "carousel": {"--q": (int, REQUIRED), "--p": (int, 1), "--s0": (float, 0.0), "--out": (str, None)},
}
SYNOPSIS = """usage: flotilla run CONFIG [--out DIR]
       flotilla carousel CONFIG --q Q [--p P] [--s0 S0] [--out DIR]"""
USAGE = f"""{SYNOPSIS}

flotation / buoyancy / illumination curves of convex plane bodies
  run       run sweeps, checks and exporters
  carousel  solve and diagnose a p/q carousel (--q chairs, --p turns, from --s0)

Options take --opt VALUE or --opt=VALUE, before or after CONFIG; the last
occurrence wins. --out DIR overrides the config's outputDir.
Exit codes: 0 ok, 1 a check failed, 2 usage or config error, 3 numerical failure."""


def parse_args(argv):
    """(command, config path, {option name without dashes: value}) of a command line; bad usage is a ConfigError."""
    if not argv:
        raise ConfigError(f"missing command (one of {', '.join(COMMANDS)})")
    command, words = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r} (one of {', '.join(COMMANDS)})")
    spec = COMMANDS[command]
    values = {name: default for name, (_, default) in spec.items()}
    config_path = None
    for word in words:
        if not word.startswith("-"):
            if config_path is not None:
                raise ConfigError(f"{command}: unexpected argument {word!r} after CONFIG {config_path!r}")
            config_path = word
            continue
        name, eq, value = word.partition("=")
        if name not in spec:
            raise ConfigError(f"{command}: unknown option {name!r} (options: {', '.join(spec)})")
        if not eq:
            value = next(words, None)
        # a value may start with one dash, as a negative number does; an empty one is no value
        if not value or not eq and value.startswith("--"):
            raise ConfigError(f"{command}: option {name!r} needs a value")
        kind = spec[name][0]
        try:
            values[name] = kind(value)
        except ValueError:
            raise ConfigError(f"{command}: option {name!r} takes {kind.__name__} values, got {value!r}")
    if config_path is None:
        raise ConfigError(f"{command}: missing CONFIG")
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"{command}: missing option {missing[0]!r}")
    return command, config_path, {name.lstrip("-"): value for name, value in values.items()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return EXIT_OK
    try:
        command, config_path, options = parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}\n{SYNOPSIS}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = load_config(config_path)
        out = options.pop("out")
        if out is not None:
            config.output_dir = out
        # a float overflow is a numerical failure, not a warning and an inf in the outputs
        with np.errstate(over="raise"):
            if command == "run":
                return cmd_run(config)
            return cmd_carousel(config, **options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # the output directory or a file in it cannot be made
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # SolverError, and the FloatingPointError or OverflowError of a float
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
