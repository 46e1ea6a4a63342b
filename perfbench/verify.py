"""Output verification for the benchmark, independent of flotilla's numerics.

Curves are evaluated from closed forms (ellipse, radial Fourier series), never
through flotilla's curve classes, and areas and centroids use a fixed
composite Gauss-Legendre rule written here, not ``numerics.panel_quadrature``.

Every function returns a list of problems (strings); an empty list means the
output is correct. Check verdicts in ``report.json`` are collected as values,
never as problems: later changes are expected to alter them on purpose.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

import numpy as np

PERIOD = 2.0 * math.pi

# tolerances, stated once
REL_AREA_TOL = 1e-9  # cap/cone area against the requested delta
GEOM_TOL = 1e-9  # derived points, relative to the body diameter
CLOSED_FORM_TOL = 1e-8  # curvatures, angles and lengths against closed forms
REFERENCE_TOL = 1e-8  # |value - reference| <= REFERENCE_TOL * max(1, |reference|)
PARAM_TOL = 1e-12  # grid parameters s and chord_s

CSV_COLUMNS = [
    "family", "s", "point_x", "point_y", "tangent_x", "tangent_y", "kappa", "kappa_prime",
    "chord_s", "chord_t", "alpha", "beta", "norm_c", "affine_norm_c",
]
REFERENCE_COLUMNS = ["point_x", "point_y", "tangent_x", "tangent_y", "kappa", "kappa_prime", "chord_t"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_PANELS = 8


class Body:
    """Closed-form boundary gamma(u) = M (r(u) cos u, r(u) sin u) + center."""

    def __init__(self, r0=1.0, cos=(), sin=(), matrix=((1.0, 0.0), (0.0, 1.0)), center=(0.0, 0.0)):
        self.r0 = float(r0)
        self.cos = np.asarray(cos, dtype=float)
        self.sin = np.asarray(sin, dtype=float)
        self.matrix = np.asarray(matrix, dtype=float)
        self.center = np.asarray(center, dtype=float)

    @classmethod
    def from_spec(cls, spec):
        if spec["kind"] == "ellipse":
            c, s = math.cos(spec.get("rotation", 0.0)), math.sin(spec.get("rotation", 0.0))
            rot = np.array([[c, -s], [s, c]])
            return cls(matrix=rot @ np.diag([spec["a"], spec["b"]]), center=spec.get("center", (0.0, 0.0)))
        if spec["kind"] == "fourier_radial":
            return cls(spec["r0"], spec.get("cos", ()), spec.get("sin", ()))
        raise ValueError(f"no closed form for curve kind {spec['kind']!r}")

    def _radial(self, u):
        r, dr = np.full_like(u, self.r0), np.zeros_like(u)
        for k, a in enumerate(self.cos, start=1):
            r, dr = r + a * np.cos(k * u), dr - a * k * np.sin(k * u)
        for k, b in enumerate(self.sin, start=1):
            r, dr = r + b * np.sin(k * u), dr + b * k * np.cos(k * u)
        return r, dr

    def point(self, u):
        u = np.asarray(u, dtype=float)
        r, _ = self._radial(u)
        local = np.stack([r * np.cos(u), r * np.sin(u)], axis=-1)
        return local @ self.matrix.T + self.center

    def velocity(self, u):
        u = np.asarray(u, dtype=float)
        r, dr = self._radial(u)
        local = np.stack([dr * np.cos(u) - r * np.sin(u), dr * np.sin(u) + r * np.cos(u)], axis=-1)
        return local @ self.matrix.T

    def area(self):
        u = np.arange(4096) * (PERIOD / 4096)
        return 0.5 * float(np.mean(_det(self.point(u), self.velocity(u)))) * PERIOD

    def diameter(self):
        pts = self.point(np.arange(4096) * (PERIOD / 4096))
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def _det(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def fan_moments(body, s, t, apex):
    """Signed area and centroid of the fans from ``apex`` over the arcs [s_i, t_i].

    Fixed composite Gauss-Legendre (8 panels of 48 nodes) per arc; the
    integrand is smooth, so this is accurate to rounding for the bodies here.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    edges = s[:, None] + (t - s)[:, None] * np.linspace(0.0, 1.0, _GL_PANELS + 1)[None, :]
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    u = mid[:, :, None] + half[:, :, None] * _GL_NODES[None, None, :]
    w = half[:, :, None] * _GL_WEIGHTS[None, None, :]
    g = body.point(u) - apex[:, None, None, :]
    a = _det(g, body.velocity(u))
    area = 0.5 * np.sum(a * w, axis=(1, 2))
    moment = np.sum((g * (a * w)[..., None]), axis=(1, 2)) / 3.0
    return area, apex + moment / area[:, None]


def tangent_apex(body, s, t):
    x, y = body.point(s), body.point(t)
    d1, d2 = body.velocity(s), body.velocity(t)
    return x + d1 * (_det(y - x, d2) / _det(d1, d2))[:, None]


# ---------------------------------------------------------------------------
# curves.csv


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected header {header}")
        rows = []
        for raw in reader:
            rows.append([raw[0]] + [float(v) if v != "" else math.nan for v in raw[1:]])
    return rows


def _col(rows, name):
    j = CSV_COLUMNS.index(name)
    return np.array([r[j] for r in rows], dtype=float)


def _close(a, b, tol):
    """Elementwise |a - b| <= tol * max(1, |b|); NaN matches NaN and infinities match exactly."""
    with np.errstate(invalid="ignore"):
        ok = np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))
    return ok | (np.isnan(a) & np.isnan(b)) | (a == b)


def family_blocks(rows, n_samples, bundles):
    """Split rows into (family, bundle, rows) blocks in the CLI's write order."""
    blocks, i = [], 0
    for bundle in bundles:
        for family in bundle["families"]:
            block = rows[i:i + n_samples]
            if len(block) != n_samples or any(r[0] != family for r in block):
                return None
            blocks.append((family, bundle, block))
            i += n_samples
    return blocks if i == len(rows) else None


def check_curves(rows, body, n_samples, bundles):
    """Problems in curves.csv against closed-form oracles.

    ``bundles`` lists, per delta in write order, {"delta", "delta_hat" or None,
    "families": [...]}. Every row is checked: the s grid, the chord's area,
    derived points, tangent directions, curvatures and chord frame data.
    """
    blocks = family_blocks(rows, n_samples, bundles)
    if blocks is None:
        return [f"curves.csv rows do not match the expected families {[b['families'] for b in bundles]}"]
    problems = []
    diam = body.diameter()
    grid = np.arange(n_samples) * (PERIOD / n_samples)
    for family, bundle, block in blocks:
        tag = f"{family} (delta {bundle['delta']:.6g})"
        s, t = _col(block, "chord_s"), _col(block, "chord_t")
        if not (np.allclose(_col(block, "s"), grid, rtol=0, atol=PARAM_TOL) and np.allclose(s, grid, rtol=0, atol=PARAM_TOL)):
            problems.append(f"{tag}: s grid differs from the uniform sweep grid")
            continue
        if not (np.all(np.diff(t) > 0) and np.all(t > s) and np.all(t < s + PERIOD)):
            problems.append(f"{tag}: chord_t is not increasing inside (s, s + period)")
            continue
        x, y = body.point(s), body.point(t)
        d1, d2 = body.velocity(s), body.velocity(t)
        c = y - x
        norm_c = np.linalg.norm(c, axis=1)
        p, q, v = _det(c, d1), _det(c, d2), _det(d1, d2)
        frame = {
            "alpha": np.arctan2(-p, np.sum(c * d1, axis=1)),
            "beta": np.arctan2(q, np.sum(c * d2, axis=1)),
            "norm_c": norm_c,
            "affine_norm_c": 2.0 * np.cbrt(-0.5 * p * q / v),
        }
        for name, expected in frame.items():
            bad = ~_close(_col(block, name), expected, CLOSED_FORM_TOL)
            if bad.any():
                problems.append(f"{tag}: {name} off its closed form at {int(bad.sum())} rows")
        point = np.stack([_col(block, "point_x"), _col(block, "point_y")], axis=1)
        tangent = np.stack([_col(block, "tangent_x"), _col(block, "tangent_y")], axis=1)
        kappa = _col(block, "kappa")
        illum = family.startswith("illumination")
        apex = tangent_apex(body, s, t) if illum else x
        area, centroid = fan_moments(body, s, t, apex)
        target = bundle["delta_hat"] if illum else bundle["delta"]
        area = -area if illum else area
        bad = np.abs(area - target) > REL_AREA_TOL * target
        if bad.any():
            problems.append(f"{tag}: area off delta at {int(bad.sum())} rows (worst {np.max(np.abs(area - target)):.3e})")
        expected_point = {
            "flotation_boundary": 0.5 * (x + y),
            "buoyancy_curve": centroid,
            "illumination_boundary": apex,
            "illumination_centroid": centroid,
        }[family]
        err = np.linalg.norm(point - expected_point, axis=1)
        if np.any(err > GEOM_TOL * diam):
            problems.append(f"{tag}: points off the oracle at {int(np.sum(err > GEOM_TOL * diam))} rows (worst {err.max():.3e})")
        tnorm = np.linalg.norm(tangent, axis=1)
        live = tnorm > 0
        skew = np.abs(_det(tangent[live], c[live])) / (tnorm[live] * norm_c[live])
        if np.any(skew > CLOSED_FORM_TOL):
            problems.append(f"{tag}: tangents not parallel to the chord (worst {skew.max():.3e})")
        if family == "buoyancy_curve":
            bad = ~_close(kappa, 12.0 * bundle["delta"] / norm_c**3, CLOSED_FORM_TOL)
            if bad.any():
                problems.append(f"{tag}: kappa != 12 delta / |c|^3 at {int(bad.sum())} rows")
        if family == "flotation_boundary":
            bad = ~_close(kappa, frame["affine_norm_c"] ** 3 / norm_c**3, CLOSED_FORM_TOL)
            if bad.any():
                problems.append(f"{tag}: kappa != (affine |c|)^3 / |c|^3 at {int(bad.sum())} rows")
    return problems


def check_reference(rows, reference):
    """Problems in curves.csv against a reference recorded from an earlier commit."""
    ref_rows = reference["rows"]
    if [r[0] for r in rows] != [r[0] for r in ref_rows]:
        return ["curves.csv families or row count differ from the reference"]
    problems = []
    for j, name in enumerate(REFERENCE_COLUMNS, start=1):
        got = _col(rows, name)
        want = np.array([r[j] if r[j] is not None else math.nan for r in ref_rows], dtype=float)
        bad = ~_close(got, want, REFERENCE_TOL)
        if bad.any():
            first = int(np.nonzero(bad)[0][0])
            problems.append(
                f"{name} differs from the reference at {int(bad.sum())} rows "
                f"(first: row {first}, {got[first]!r} vs {want[first]!r})"
            )
    return problems


def reference_from_rows(rows):
    """Compact reference: family plus REFERENCE_COLUMNS at 12 significant digits."""
    out = []
    for r in rows:
        values = [r[CSV_COLUMNS.index(name)] for name in REFERENCE_COLUMNS]
        out.append([r[0]] + [None if math.isnan(v) else float(f"{v:.12g}") for v in values])
    return out


def load_reference(path):
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(path, payload):
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps(payload, separators=(",", ":")).encode())


# ---------------------------------------------------------------------------
# report.json and carousel.json


def read_verdicts(report_path, expected_checks):
    """({check: [pass, value]}, problems) from report.json; verdicts are not problems."""
    with open(report_path) as fh:
        report = json.load(fh)
    records = report.get("records", [])
    got = [r.get("check") for r in records]
    problems = [] if got == list(expected_checks) else [f"report.json checks {got} != requested {list(expected_checks)}"]
    return {r.get("check"): [r.get("status", r.get("pass")), r.get("value")] for r in records}, report, problems


def check_carousel(payload, body, s0, q, reference):
    """Problems in carousel.json: closing area, chain vertices and closure."""
    problems = []
    delta = float(payload["delta_star"])
    if abs(delta - reference["delta_star"]) > REL_AREA_TOL * reference["delta_star"]:
        problems.append(f"delta_star {delta!r} != reference {reference['delta_star']!r}")
    if abs(payload["closure_defect"]) > 1e-9:
        problems.append(f"closure defect {payload['closure_defect']:.3e} above 1e-9")
    ts = np.asarray(payload["vertices"], dtype=float)
    if len(ts) != q + 1 or ts[0] != s0 or not np.all(np.diff(ts) > 0):
        problems.append(f"carousel vertices {payload['vertices']} do not chain from s0={s0!r}")
        return problems
    if abs(ts[-1] - ts[0] - PERIOD) > 1e-9:
        problems.append("carousel chain does not wind once")
    area, _ = fan_moments(body, ts[:-1], ts[1:], body.point(ts[:-1]))
    if np.any(np.abs(area - delta) > REL_AREA_TOL * delta):
        problems.append(f"carousel chord areas {area.tolist()} != delta_star {delta!r}")
    return problems


def file_problems(out_dir, names):
    return [f"missing or empty output {name}" for name in names
            if not (Path(out_dir) / name).is_file() or (Path(out_dir) / name).stat().st_size == 0]
