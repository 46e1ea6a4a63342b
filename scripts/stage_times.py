#!/usr/bin/env python3
"""Print the median in-process wall time of each stage of `flotilla run CONFIG`.

Usage:
    python scripts/stage_times.py CONFIG [--repeat 7]

Calls `cli.cmd_run` itself, K times over, into a temporary directory, with
its stages wrapped in timers: reading the config, building the curve (with
its area and the deltas), each `compute_bundle`, `write_curves_csv`,
`write_figure`, each requested check and `write_report`. A check's time is
the sum over its calls in `run_checks`, so a check that runs once per delta
counts every delta. Each stage is timed with time.perf_counter only; the
first repeat includes any one-time cache fill, which the median over K
repeats discounts.
"""

import argparse
import contextlib
import io
import itertools
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

from flotilla import cli

# the stages cmd_run calls through module globals of cli, and the stage each is timed under
STAGES = {
    "curve_from_json": "curve",
    "area": "curve",
    "resolve_deltas": "curve",
    "write_curves_csv": "write_curves_csv",
    "write_figure": "write_figure",
    "write_report": "write_report",
}


def _timed(fn, name, times):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[name] = times.get(name, 0.0) + perf_counter() - t0

    return wrapper


@contextlib.contextmanager
def _wrapped_stages(times):
    """Wrap the stages cmd_run calls in timers that add to ``times``; restore them on exit."""
    saved = {name: getattr(cli, name) for name in (*STAGES, "compute_bundle")}
    saved_checks = dict(cli.CHECKS)
    calls = itertools.count()

    def compute_bundle(*args, **kwargs):
        return _timed(saved["compute_bundle"], f"compute_bundle[{next(calls)}]", times)(*args, **kwargs)

    try:
        for name, stage in STAGES.items():
            setattr(cli, name, _timed(saved[name], stage, times))
        cli.compute_bundle = compute_bundle
        cli.CHECKS.update({name: _timed(fn, f"check {name}", times) for name, fn in saved_checks.items()})
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
        cli.CHECKS.update(saved_checks)


def stage_times(config_path, out_dir):
    """Seconds spent in each stage of one `cmd_run`, in the order the stages first ran."""
    times = {}
    config = _timed(cli.load_config, "config", times)(config_path)
    config.output_dir = str(out_dir)
    with _wrapped_stages(times), contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_run(config)
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeat", type=int, default=7, help="runs to take the median over (default 7)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.repeat):
            runs.append(stage_times(args.config, Path(tmp)))
    print(f"median of {args.repeat} runs of {args.config}")
    print(f"{'stage':<28} {'ms':>10}")
    for name in runs[0]:
        print(f"{name:<28} {1e3 * statistics.median(run[name] for run in runs):>10.3f}")
    total = statistics.median(sum(run.values()) for run in runs)
    print(f"{'total':<28} {1e3 * total:>10.3f}")


if __name__ == "__main__":
    main()
