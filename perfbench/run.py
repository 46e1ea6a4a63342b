"""flotilla benchmark: CLI calls in fresh processes, verified, with medians.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``flotilla.cli.main`` call in a fresh child interpreter
(child.py), launched one at a time, with ``src/`` on the path, its own
``--out`` directory under ``.bench_build/`` and no ``FLOTILLA_THREADS``. The
loop starts calls until ``--seconds`` have passed. Every call's outputs are
checked after the child exits, outside all timed regions (workloads.py,
verify.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json as medians over
the calls. ``--trace 1`` runs ``-X importtime`` children, then alternates
untraced and traced calls on the same input and prints the per-layer metrics
(tracing.py). The last stdout line is the JSON result; the line before it is
a JSON detail record with sample counts, quartiles, check verdicts and any
problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # whole run, inside the 180 s a run may take
IMPORTTIME_REPEATS = 3
IMPORT_PROBE = "import flotilla, flotilla.cli, jsonschema"

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, a child that cannot start)."""


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("FLOTILLA_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd, log_path):
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def call(workload, index, work, trace=False):
    """One verified CLI call; returns its record (timings, exit code, problems, verdicts)."""
    out = work / f"call{index}"
    result_path = work / f"call{index}.json"
    trace_path = work / f"call{index}.trace.json"
    opts = [str(result_path)] + ([str(trace_path), f"{workload.name}/{index}"] if trace else [])
    cmd = [sys.executable, str(HERE / "child.py")] + opts + ["--"] + workload.argv(index, out)
    wall, code, rss = spawn(cmd, work / f"call{index}.log")
    record = {"wall_s": wall, "exit_code": code, "peak_rss_mb": rss, "problems": [], "verdicts": {}}
    try:
        child = json.loads(result_path.read_text())
    except (OSError, ValueError):
        record["problems"].append(f"child exited {code} without a result")
        return record
    record.update(setup_s=child["setup_s"], solve_s=child["solve_s"])
    if child["error"]:
        record["problems"].append("CLI raised: " + child["error"].strip().splitlines()[-1])
    elif code not in (0, 1):
        record["problems"].append(f"CLI exited {code}")
    else:
        try:
            problems, record["verdicts"] = workload.verify(index, out, code)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        record["problems"] += problems
    if trace and trace_path.is_file():
        record["trace"] = json.loads(trace_path.read_text())
        record["csv_bytes"] = _size(out / "curves.csv")
        record["svg_bytes"] = _size(out / "figure.svg")
        shutil.copyfile(trace_path, work.parent / f"trace-{workload.name}.json")
    shutil.rmtree(out, ignore_errors=True)
    return record


def _size(path):
    return path.stat().st_size if path.is_file() else 0


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "n": len(values)}


def timed_run(workload, seconds, work):
    records = []
    start = perf_counter()
    # start a call only if a typical call still ends within the budget
    while not records or perf_counter() - start + statistics.median(r["wall_s"] for r in records) <= seconds:
        records.append(call(workload, len(records), work))
    good = [r for r in records if not r["problems"]] or [r for r in records if "solve_s" in r]
    if not good:
        raise BenchmarkError("no call produced timings: " + "; ".join(records[0]["problems"]))
    failed = sum(1 for r in records if r["problems"])
    stats = {name: describe([r[name] for r in good]) for name in ("setup_s", "solve_s", "wall_s", "peak_rss_mb")}
    metrics = {name: stats[name]["median"] for name in stats}
    metrics["success_rate"] = 1.0 - failed / len(records)
    calls = [[round(r.get(k, -1.0), 4) for k in ("setup_s", "solve_s", "wall_s")] for r in records]
    return records, metrics, {"stats": stats, "error_rate": failed / len(records), "calls": calls}


def import_profile(work):
    """Median seconds per package over IMPORTTIME_REPEATS ``-X importtime`` children."""
    samples = {"flotilla": [], "scipy": [], "jsonschema": []}
    for i in range(IMPORTTIME_REPEATS):
        log = work / f"importtime{i}.log"
        _, code, _ = spawn([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], log)
        if code != 0:
            raise BenchmarkError(f"import probe exited {code}: {log.read_text()[-400:]}")
        rows = tracing.parse_importtime(log.read_text())
        for package in samples:
            samples[package].append(tracing.package_import_s(rows, package))
    return {f"import.{package}_s": statistics.median(v) for package, v in samples.items()}


def traced_run(workload, seconds, work):
    """Alternate untraced and traced calls on the first input until ``seconds`` pass."""
    start = perf_counter()
    metrics = import_profile(work)
    plain, traced = [], []
    while not traced or perf_counter() - start + plain[0]["wall_s"] + traced[0]["wall_s"] <= seconds:
        plain.append(call(workload, 0, work))
        traced.append(call(workload, 0, work, trace=True))
    records = plain + traced
    usable = [r for r in traced if "trace" in r and not r["problems"]]
    if not usable:
        problems = [p for r in records for p in r["problems"]]
        raise BenchmarkError("no traced call succeeded: " + "; ".join(problems[:3]))
    per_call = [tracing.summarize(r["trace"], r["csv_bytes"], r["svg_bytes"]) for r in usable]
    for name in per_call[0]:
        # counts repeat exactly (checked below); timings take the median
        metrics[name] = per_call[0][name] if name in tracing.COUNT_METRICS else statistics.median(c[name] for c in per_call)
    latencies = {"flotation": [], "illumination": []}
    for r in usable:
        for kind, values in tracing.solve_latencies_us(r["trace"]).items():
            latencies[kind] += values
    for kind, values in latencies.items():
        metrics[f"chord.{kind}_solve_us_p50"] = tracing.percentile(values, 50)
        metrics[f"chord.{kind}_solve_us_p99"] = tracing.percentile(values, 99)
    solve = {
        "untraced": [r["solve_s"] for r in plain if "solve_s" in r],
        "traced": [r["solve_s"] for r in usable],
    }
    metrics["trace.overhead_s"] = statistics.median(solve["traced"]) - statistics.median(solve["untraced"])
    counts = [{name: c[name] for name in tracing.COUNT_METRICS if name in c} for c in per_call]
    for r in records:
        r.pop("trace", None)
    detail = {
        "solve_s": {k: describe(v) for k, v in solve.items() if v},
        "traced_calls": len(usable),
        "chords_timed": {k: len(v) for k, v in latencies.items()},
        "counts_repeat": all(c == counts[0] for c in counts),
        "error_rate": sum(1 for r in records if r["problems"]) / len(records),
    }
    return records, {name: metrics[name] for name, _, _ in tracing.LAYER_METRICS}, detail


def _alarm(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/flotilla/cli.py", "configs/ellipse.json", "configs/perturbed_circle.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: cannot run, missing {missing} under {ROOT}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    base = ROOT / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        # compile bytecode and fill the file cache once; users do not pay this per call
        _, code, _ = spawn([sys.executable, "-c", "import flotilla.cli"], work / "warmup.log")
        if code != 0:
            raise BenchmarkError(f"cannot import flotilla.cli: {(work / 'warmup.log').read_text()[-400:]}")
        workload = WORKLOADS[args.workload]()
        workload.prepare(args.seed, ROOT, work)
        run = traced_run if args.trace else timed_run
        records, values, detail = run(workload, args.seconds, work)
    except (BenchmarkError, TimeoutError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    units = dict((n, u) for n, u, _ in tracing.LAYER_METRICS) if args.trace else dict(END_TO_END)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        verdicts=records[0]["verdicts"],
        verdicts_stable=all(r["verdicts"] == records[0]["verdicts"] for r in records if not r["problems"]),
        problems=[f"call {i}: {p}" for i, r in enumerate(records) for p in r["problems"]][:20],
    )
    print(json.dumps(detail))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
