"""Span tracing of flotilla's public functions from outside the package.

A ``Tracer`` replaces functions and methods of the already imported
``flotilla`` modules with wrappers (module, class and ``CHECKS`` attributes;
nothing under ``src/`` is edited). Every wrapped call appends one span
``(id, name, start_ns, end_ns, parent_id, thread_id, ok)`` to an in-memory
list, which is written out once, when the traced run ends. Counters and span
ids are updated under a lock, because ``flotilla run`` calls into the traced
layers from two pool threads at once.

``summarize`` turns the spans of one traced run into the per-layer metrics of
``LAYER_METRICS``. A layer is a flotilla module. A span's self time is its
duration minus the union of its children's intervals, so children that
overlap on pool threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

MODULES = ("curve", "chord", "numerics", "floatgeom", "illumgeom", "homothety", "cli", "svg")

CHECK_NAMES = (
    "chord_cube",
    "endpoint_balance",
    "omega",
    "dupin",
    "affine_normal",
    "cut_length",
    "duality",
    "petty",
    "radon",
    "affine_sphere",
)

# (module, attribute): wrapped wherever a flotilla module binds the same object
FUNCTIONS = [
    ("curve", "curve_from_json"),
    ("curve", "area"),
    ("curve", "affine_arclength"),
    ("curve", "quad_vec"),  # scipy's adaptive fallback inside affine_arclength
    ("chord", "body_area"),
    ("chord", "cap_area"),
    ("chord", "cone_area"),
    ("chord", "sweep"),
    ("chord", "solve_flotation_chord"),
    ("chord", "solve_silhouette_chord"),
    ("chord", "antipodal_tangent_param"),
    ("numerics", "panel_quadrature"),
    ("numerics", "bracketed_newton"),
    ("numerics", "expand_bracket"),
    ("floatgeom", "flotation_point"),
    ("floatgeom", "buoyancy_point"),
    ("floatgeom", "kappa_prime_flotation"),
    ("floatgeom", "kappa_prime_buoyancy"),
    ("floatgeom", "omega_identity_residual"),
    ("illumgeom", "illumination_point"),
    ("illumgeom", "illumination_centroid_point"),
    ("homothety", "chord_cube_report"),
    ("homothety", "endpoint_balance_residual"),
    ("homothety", "affine_cut_length_report"),
    ("homothety", "petty_condition_report"),
    ("homothety", "radon_check"),
    ("homothety", "proper_affine_sphere_residual"),
    ("homothety", "build_carousel"),
    ("homothety", "solve_carousel_delta"),
    ("homothety", "carousel_diagnostics"),
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "cmd_run"),
    ("cli", "cmd_carousel"),
    ("cli", "compute_bundle"),
    ("cli", "run_checks"),
    ("cli", "sample_rows"),
    ("cli", "write_curves_csv"),
    ("cli", "write_figure"),
    ("cli", "write_report"),
    ("svg", "export_svg"),
]

CURVE_CLASSES = ("Ellipse", "FourierRadial", "SampledPeriodic", "AffineImage")

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = (
    [
        ("import.flotilla_s", "s", "lower"),
        ("import.scipy_s", "s", "lower"),
        ("import.jsonschema_s", "s", "lower"),
        ("curve.construct_ms", "ms", "lower"),
        ("curve.derivative_calls", "count", "lower"),
        ("curve.derivative_points", "count", "lower"),
        ("curve.derivative_ms", "ms", "lower"),
        ("curve.affine_arclength_calls", "count", "lower"),
        ("curve.affine_arclength_ms", "ms", "lower"),
        ("curve.adaptive_fallbacks", "count", "lower"),
        ("chord.body_area_ms", "ms", "lower"),
        ("chord.sweep_flotation_ms", "ms", "lower"),
        ("chord.sweep_illumination_ms", "ms", "lower"),
        ("chord.flotation_solve_us_p50", "us", "lower"),
        ("chord.flotation_solve_us_p99", "us", "lower"),
        ("chord.illumination_solve_us_p50", "us", "lower"),
        ("chord.illumination_solve_us_p99", "us", "lower"),
        ("chord.cap_area_calls_per_chord", "count", "lower"),
        ("chord.cone_area_calls_per_chord", "count", "lower"),
        ("numerics.panel_quadrature_calls", "count", "lower"),
        ("numerics.quadrature_nodes", "count", "lower"),
        ("numerics.panel_quadrature_ms", "ms", "lower"),
        ("numerics.bracketed_newton_calls", "count", "lower"),
        ("numerics.expand_bracket_calls", "count", "lower"),
        ("floatgeom.flotation_point_ms", "ms", "lower"),
        ("floatgeom.buoyancy_point_ms", "ms", "lower"),
        ("floatgeom.kappa_prime_ms", "ms", "lower"),
        ("illumgeom.illumination_point_ms", "ms", "lower"),
        ("illumgeom.centroid_point_ms", "ms", "lower"),
        ("homothety.affine_cut_length_report_ms", "ms", "lower"),
        ("homothety.solve_carousel_delta_ms", "ms", "lower"),
        ("homothety.build_carousel_calls", "count", "lower"),
        ("homothety.carousel_diagnostics_ms", "ms", "lower"),
        ("homothety.radon_check_ms", "ms", "lower"),
    ]
    + [(f"cli.check_{name}_ms", "ms", "lower") for name in CHECK_NAMES]
    + [
        ("cli.compute_bundle_ms", "ms", "lower"),
        ("cli.pool_wait_ms", "ms", "lower"),
        ("cli.pool_overlap", "ratio", "higher"),
        ("cli.write_curves_csv_ms", "ms", "lower"),
        ("cli.csv_bytes", "bytes", "lower"),
        ("cli.write_report_ms", "ms", "lower"),
        ("svg.export_svg_ms", "ms", "lower"),
        ("svg.bytes", "bytes", "lower"),
    ]
    + [(f"{module}.self_ms", "ms", "lower") for module in MODULES]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# metrics that must repeat exactly between traced runs of the same input
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


class Tracer:
    """Collects spans and counters from wrapped flotilla calls, on any thread."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        # span that hands work to pool threads; their outermost spans hang below it
        self._handoff_parent = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, amount):
        with self._lock:
            self.counters[key] += amount

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._handoff_parent
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append(span_id)
        return span_id, name, parent, perf_counter_ns()

    def end(self, token, ok):
        end = perf_counter_ns()
        span_id, name, parent, start = token
        self._stack().pop()
        record = (span_id, name, start, end, parent, threading.get_ident(), ok)
        with self._lock:
            self.spans.append(record)

    def wrap(self, name, fn):
        """Wrapper recording one span per call; ``name`` may be a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.begin(name(args, kwargs) if callable(name) else name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer.end(token, ok)

        return traced

    def install(self):
        """Wrap the traced functions in every imported flotilla module, for good.

        Names the program no longer has are skipped, so their metrics read 0
        instead of breaking the traced run.
        """
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("flotilla.") and mod is not None
        }
        owners = list(mods.values()) + [sys.modules["flotilla"]]
        for module, attr in FUNCTIONS:
            fn = getattr(mods.get(module), attr, None)
            if fn is None:
                continue
            traced = self.wrap(_span_name(module, attr), self._instrument(module, attr, fn))
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, traced)
        for cls_name in CURVE_CLASSES:
            cls = getattr(mods.get("curve"), cls_name, None)
            if cls is not None:
                derivative = self._counted_derivative(cls.derivative)
                cls.derivative = self.wrap("curve.derivative", derivative)
        cli = mods.get("cli")
        for check, fn in list(getattr(cli, "CHECKS", {}).items()):
            cli.CHECKS[check] = self.wrap(f"cli.check_{check}", fn)
        if hasattr(cli, "ThreadPoolExecutor"):
            cli.ThreadPoolExecutor = self._traced_pool(cli.ThreadPoolExecutor)

    def _instrument(self, module, attr, fn):
        if (module, attr) != ("numerics", "panel_quadrature"):
            return fn
        tracer = self

        @functools.wraps(fn)
        def quadrature(f, *args, **kwargs):
            def counted(u):
                tracer.count("quadrature_nodes", getattr(u, "size", 1))
                return f(u)

            return fn(counted, *args, **kwargs)

        return quadrature

    def _counted_derivative(self, method):
        tracer = self

        @functools.wraps(method)
        def derivative(curve, s, order):
            tracer.count("derivative_points", getattr(s, "size", 1))
            return method(curve, s, order)

        return derivative

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._span = tracer.begin("cli.pool")
                tracer._handoff_parent = self._span[0]
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._handoff_parent = None
                    tracer.end(self._span, exc[0] is None)

        return TracedPool

    def dump(self, path):
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "ok"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _span_name(module, attr):
    if (module, attr) == ("chord", "sweep"):
        return lambda args, kwargs: "chord.sweep_" + str(args[1] if len(args) > 1 else kwargs["kind"])
    return f"{module}.{attr}"


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals, lo, hi):
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans):
    """Self time in ns of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2]) - _union_length(children.get(span[0], ()), span[2], span[3])
        for span in spans
    }


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def solve_latencies_us(trace):
    """Per-chord solve durations in microseconds, for both chord kinds."""
    out = {"flotation": [], "illumination": []}
    for _, name, start, end, _, _, ok in trace["spans"]:
        if ok and name == "chord.solve_flotation_chord":
            out["flotation"].append((end - start) / 1e3)
        elif ok and name == "chord.solve_silhouette_chord":
            out["illumination"].append((end - start) / 1e3)
    return out


def summarize(trace, csv_bytes, svg_bytes):
    """Per-layer metrics of one traced CLI call (timings, counts, self times)."""
    spans = trace["spans"]
    counters = trace["counters"]
    total = defaultdict(int)
    calls = Counter()
    ok_calls = Counter()
    for _, name, start, end, _, _, ok in spans:
        total[name] += end - start
        calls[name] += 1
        ok_calls[name] += bool(ok)

    def ms(*names):
        return sum(total[n] for n in names) / 1e6

    def per(numerator, denominator):
        return calls[numerator] / ok_calls[denominator] if ok_calls[denominator] else 0.0

    pool_ns = total["cli.pool"]
    out = {
        "curve.construct_ms": ms("curve.curve_from_json"),
        "curve.derivative_calls": calls["curve.derivative"],
        "curve.derivative_points": counters.get("derivative_points", 0),
        "curve.derivative_ms": ms("curve.derivative"),
        "curve.affine_arclength_calls": calls["curve.affine_arclength"],
        "curve.affine_arclength_ms": ms("curve.affine_arclength"),
        "curve.adaptive_fallbacks": calls["curve.quad_vec"],
        "chord.body_area_ms": ms("chord.body_area"),
        "chord.sweep_flotation_ms": ms("chord.sweep_flotation"),
        "chord.sweep_illumination_ms": ms("chord.sweep_illumination"),
        "chord.cap_area_calls_per_chord": per("chord.cap_area", "chord.solve_flotation_chord"),
        "chord.cone_area_calls_per_chord": per("chord.cone_area", "chord.solve_silhouette_chord"),
        "numerics.panel_quadrature_calls": calls["numerics.panel_quadrature"],
        "numerics.quadrature_nodes": counters.get("quadrature_nodes", 0),
        "numerics.panel_quadrature_ms": ms("numerics.panel_quadrature"),
        "numerics.bracketed_newton_calls": calls["numerics.bracketed_newton"],
        "numerics.expand_bracket_calls": calls["numerics.expand_bracket"],
        "floatgeom.flotation_point_ms": ms("floatgeom.flotation_point"),
        "floatgeom.buoyancy_point_ms": ms("floatgeom.buoyancy_point"),
        "floatgeom.kappa_prime_ms": ms("floatgeom.kappa_prime_flotation", "floatgeom.kappa_prime_buoyancy"),
        "illumgeom.illumination_point_ms": ms("illumgeom.illumination_point"),
        "illumgeom.centroid_point_ms": ms("illumgeom.illumination_centroid_point"),
        "homothety.affine_cut_length_report_ms": ms("homothety.affine_cut_length_report"),
        "homothety.solve_carousel_delta_ms": ms("homothety.solve_carousel_delta"),
        "homothety.build_carousel_calls": calls["homothety.build_carousel"],
        "homothety.carousel_diagnostics_ms": ms("homothety.carousel_diagnostics"),
        "homothety.radon_check_ms": ms("homothety.radon_check"),
        "cli.compute_bundle_ms": ms("cli.compute_bundle"),
        "cli.pool_wait_ms": pool_ns / 1e6,
        "cli.pool_overlap": total["cli.compute_bundle"] / pool_ns if pool_ns else 0.0,
        "cli.write_curves_csv_ms": ms("cli.write_curves_csv"),
        "cli.csv_bytes": csv_bytes,
        "cli.write_report_ms": ms("cli.write_report"),
        "svg.export_svg_ms": ms("svg.export_svg"),
        "svg.bytes": svg_bytes,
        "trace.spans": len(spans),
    }
    for check in CHECK_NAMES:
        out[f"cli.check_{check}_ms"] = ms(f"cli.check_{check}")
    own = self_times(spans)
    layer_self = Counter()
    for span in spans:
        layer_self[span[1].split(".", 1)[0]] += own[span[0]]
    for module in MODULES:
        out[f"{module}.self_ms"] = layer_self[module] / 1e6
    return out


def root_coverage(trace, root="cli.main"):
    """(sum of all self times, root span duration) in ns; equal for a single-threaded run."""
    spans = trace["spans"]
    roots = [s for s in spans if s[1] == root]
    if len(roots) != 1:
        raise ValueError(f"expected one {root} span, found {len(roots)}")
    return sum(self_times(spans).values()), roots[0][3] - roots[0][2]


# ---------------------------------------------------------------------------
# -X importtime


def parse_importtime(text):
    """(name, depth, cumulative_us) per module line of ``python -X importtime`` output."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        stripped = name.lstrip(" ")
        rows.append((stripped, (len(name) - len(stripped) - 1) // 2, int(fields[1])))
    return rows


def package_import_s(rows, package):
    """Seconds spent importing ``package`` and its submodules, counted once per subtree.

    Lines come in completion order, so a module's parent is the next line at a
    smaller depth. Only subtrees whose parent is outside the package count.
    """
    total = 0
    for i, (name, depth, cumulative) in enumerate(rows):
        if name != package and not name.startswith(package + "."):
            continue
        parent = next((r[0] for r in rows[i + 1:] if r[1] < depth), None)
        if parent is None or not (parent == package or parent.startswith(package + ".")):
            total += cumulative
    return total / 1e6
