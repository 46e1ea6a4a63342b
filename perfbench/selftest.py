"""Self-tests of the benchmark harness: the verifier and the failure count can fail.

Usage (from the repository root): python3 perfbench/selftest.py [-v]

Runs real CLI calls (about a minute on two cores). Not part of the
repository's test suite, because it times and spawns processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from flotilla import cli  # noqa: E402

# single-threaded traces: self times must add up to the root span to within this
SELF_TIME_SLACK_NS = 1000


class Scratch(unittest.TestCase):
    def setUp(self):
        base = run.ROOT / ".bench_build" / "perfbench"
        base.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=base, prefix="selftest-"))
        self.addCleanup(shutil.rmtree, self.work, True)


class VerifierRejectsCorruption(Scratch):
    """A curves.csv with one chord_t shifted fails both the reference and the oracle."""

    def _run_and_shift(self, name):
        wl = workloads.WORKLOADS[name]()
        wl.prepare(7, run.ROOT, self.work)
        out = self.work / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(wl.argv(0, out))
        problems, verdicts = wl.verify(0, out, code)
        self.assertEqual(problems, [])
        self.assertTrue(verdicts)
        csv_path = out / "curves.csv"
        lines = csv_path.read_text().splitlines()
        j = verify.CSV_COLUMNS.index("chord_t")
        fields = lines[41].split(",")
        fields[j] = repr(float(fields[j]) + 1e-6)
        lines[41] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        problems, _ = wl.verify(0, out, code)
        return problems

    def test_reference_workload(self):
        problems = self._run_and_shift("run_ellipse")
        self.assertTrue(any("chord_t differs from the reference" in p for p in problems), problems)
        self.assertTrue(any("area off delta" in p for p in problems), problems)

    def test_oracle_only_workload(self):
        problems = self._run_and_shift("run_sampled")
        self.assertTrue(any("area off delta" in p for p in problems), problems)

    def test_carousel_wrong_delta(self):
        wl = workloads.WORKLOADS["carousel_ellipse"]()
        wl.prepare(7, run.ROOT, self.work)
        payload = {"delta_star": wl.reference["delta_star"] * (1 + 1e-7), "closure_defect": 0.0,
                   "vertices": [wl.s0(0), wl.s0(0) + 2.0, wl.s0(0) + 4.0, wl.s0(0) + 6.283185307179586]}
        problems = verify.check_carousel(payload, wl.body, wl.s0(0), 3, wl.reference)
        self.assertTrue(any("delta_star" in p for p in problems), problems)
        self.assertTrue(any("chord areas" in p for p in problems), problems)


class FailuresAreCounted(Scratch):
    """A raising child and a bad exit code both count in error_rate."""

    def test_raising_child(self):
        fake = self.work / "fake_src" / "flotilla"
        fake.mkdir(parents=True)
        (fake / "__init__.py").write_text("")
        (fake / "cli.py").write_text("def main(argv=None):\n    raise RuntimeError('boom')\n")
        wl = workloads.WORKLOADS["carousel_ellipse"]()
        wl.prepare(7, run.ROOT, self.work)
        original = run.SRC
        run.SRC = fake.parent
        try:
            records, metrics, detail = run.timed_run(wl, 0.0, self.work)
        finally:
            run.SRC = original
        self.assertEqual(len(records), 1)
        self.assertEqual(records[0]["exit_code"], 70)
        self.assertIn("CLI raised: RuntimeError: boom", records[0]["problems"][0])
        self.assertEqual(detail["error_rate"], 1.0)
        self.assertEqual(metrics["success_rate"], 0.0)

    def test_bad_exit_code(self):
        wl = workloads.WORKLOADS["carousel_ellipse"]()
        wl.prepare(7, run.ROOT, self.work)
        wl.config_path = self.work / "missing.json"  # the CLI exits 2: config error
        records, metrics, detail = run.timed_run(wl, 0.0, self.work)
        self.assertEqual(records[0]["exit_code"], 2)
        self.assertEqual(records[0]["problems"], ["CLI exited 2"])
        self.assertEqual(detail["error_rate"], 1.0)


class Tracing(Scratch):
    def test_self_times_sum_to_root(self):
        tracer = tracing.Tracer("synthetic")

        leaf = tracer.wrap("m.leaf", lambda: time.sleep(0.002))

        def middle():
            leaf()
            time.sleep(0.001)
            leaf()

        root = tracer.wrap("cli.main", tracer.wrap("m.middle", middle))
        root()
        trace = {"spans": tracer.spans, "counters": {}}
        own, whole = tracing.root_coverage(trace)
        self.assertLessEqual(abs(own - whole), SELF_TIME_SLACK_NS)
        by_name = {s[1]: s for s in tracer.spans}
        selfs = tracing.self_times(tracer.spans)
        self.assertGreaterEqual(selfs[by_name["m.middle"][0]], 1_000_000)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [(1, "cli.pool", 0, 100, None, 1, True), (2, "cli.compute_bundle", 10, 80, 1, 2, True),
                 (3, "cli.compute_bundle", 20, 90, 1, 3, True)]
        self.assertEqual(tracing.self_times(spans)[1], 100 - 80)

    def test_counter_is_thread_safe(self):
        tracer = tracing.Tracer("threads")
        bump = tracer.wrap("m.bump", lambda: tracer.count("hits", 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [bump() for _ in range(2000)]) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                self.assertFalse(t.is_alive())
        finally:
            sys.setswitchinterval(interval)
        self.assertEqual(tracer.counters["hits"], 8000)
        self.assertEqual(len(tracer.spans), 8000)
        self.assertEqual(len({s[0] for s in tracer.spans}), 8000)

    def test_real_traces(self):
        """Two traced pool-threaded runs give identical counts; a serial one adds up to its root."""
        wl = workloads.WORKLOADS["run_ellipse"]()
        wl.prepare(7, run.ROOT, self.work)
        counts = []
        for _ in range(2):
            record = run.call(wl, 0, self.work, trace=True)
            self.assertEqual(record["problems"], [])
            summary = tracing.summarize(record["trace"], record["csv_bytes"], record["svg_bytes"])
            counts.append({name: summary[name] for name in tracing.COUNT_METRICS if name in summary})
            self.assertGreater(summary["cli.pool_overlap"], 1.0)
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["curve.derivative_calls"], 0)
        car = workloads.WORKLOADS["carousel_ellipse"]()
        car.prepare(7, run.ROOT, self.work)
        record = run.call(car, 0, self.work, trace=True)
        own, whole = tracing.root_coverage(record["trace"])
        self.assertLessEqual(abs(own - whole), SELF_TIME_SLACK_NS)

    def test_importtime_parsing(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     scipy._lib",
            "import time:        20 |         30 |   scipy",
            "import time:         5 |          5 |     scipy.integrate._quad",
            "import time:        15 |         20 |   scipy.integrate",
            "import time:        40 |         90 | flotilla.curve",
            "import time:         3 |          3 | jsonschema",
        ])
        rows = tracing.parse_importtime(text)
        self.assertEqual(rows[0], ("scipy._lib", 2, 10))
        self.assertAlmostEqual(tracing.package_import_s(rows, "scipy"), 50e-6)
        self.assertAlmostEqual(tracing.package_import_s(rows, "flotilla"), 90e-6)
        self.assertAlmostEqual(tracing.package_import_s(rows, "jsonschema"), 3e-6)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [tuple(m) for m in tracing.LAYER_METRICS])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))

    def test_seeded_config_is_byte_identical(self):
        self.assertEqual(workloads.sampled_config(3), workloads.sampled_config(3))
        self.assertNotEqual(workloads.sampled_config(3), workloads.sampled_config(4))


if __name__ == "__main__":
    unittest.main()
