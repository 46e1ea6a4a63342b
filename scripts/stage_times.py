#!/usr/bin/env python3
"""Print the median in-process wall time of each stage of a `flotilla` command line, over --repeat K runs.

Usage:
    python scripts/stage_times.py [--repeat K] run CONFIG
    python scripts/stage_times.py [--repeat K] carousel CONFIG --q Q [--s0 S]

Each run is one `cli.main(ARGV + ["--out", TMP])` call into a temporary directory, and its stages are the
`stage_seconds` of the record it writes: report.json for `run`, carousel.json for `carousel`. `rest` is what
the call spends outside every stage (the command line, the config and the record's writer), and `total` the
whole call. `compile` times `import flotilla, flotilla.cli` in a fresh interpreter, after numpy, from a copy
of the package's source with no cached bytecode: what a fresh process pays before any stage when no bytecode
is cached (as under PYTHONDONTWRITEBYTECODE=1), compiling included; it is not part of `total`. The last line
is the record's work counter, which every run repeats: the `residual_calls` of a run's sweeps, or a
carousel's `chain_solves`. A failed check (exit 1) still writes the record; a usage, config or numerical
error (exit 2 or 3) stops the script with the CLI's own message and exit code.
"""

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from flotilla import cli

# the work counter of each record: report.json for `run`, carousel.json for `carousel`
COUNTERS = {"report.json": "residual_calls", "carousel.json": "chain_solves"}

# run with -B, so it writes no bytecode either; argv[1] is the directory that holds the package copy
IMPORT_CHILD = """
import sys
from time import perf_counter
import numpy
sys.path.insert(0, sys.argv[1])
start = perf_counter()
import flotilla, flotilla.cli
print(perf_counter() - start)
"""


def compile_seconds():
    """Wall time of importing the package and its CLI after numpy, in a fresh interpreter that finds no bytecode."""
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(cli.__file__).parent
        shutil.copytree(package, Path(tmp) / "flotilla", ignore=shutil.ignore_patterns("__pycache__"))
        child = subprocess.run([sys.executable, "-B", "-c", IMPORT_CHILD, tmp], capture_output=True, text=True, check=True)
    return float(child.stdout)


def stage_times(argv, out_dir):
    """(the seconds of each row, the record's counter) of one `cli.main` call that writes into out_dir."""
    compiled = compile_seconds()
    with contextlib.redirect_stdout(io.StringIO()) as said:
        start = perf_counter()
        code = cli.main([*argv, "--out", out_dir])
        total = perf_counter() - start
    paths = [path for path in Path(out_dir).iterdir() if path.name in COUNTERS]
    if code not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED) or not paths:
        print(said.getvalue(), end="")  # the usage, for -h; main has told an error on stderr
        sys.exit(code)
    record, counter = json.loads(paths[0].read_text()), COUNTERS[paths[0].name]
    stages = record["stage_seconds"]
    times = {"compile": compiled, **stages, "rest": total - sum(stages.values()), "total": total}
    return times, f"{counter} {json.dumps(record[counter])}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="runs to take the median over (default 7)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="a flotilla command line, without --out")
    args = parser.parse_args()
    if args.repeat < 1 or not args.argv:
        parser.error("needs a flotilla command line, and a --repeat of at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        runs, counters = zip(*(stage_times(args.argv, tmp) for _ in range(args.repeat)))
    rows = (f"{name:<28} {1e3 * statistics.median(run[name] for run in runs):>10.3f}" for name in runs[0])
    title = f"median of {args.repeat} runs of flotilla {' '.join(args.argv)}"
    print(title, f"{'stage':<28} {'ms':>10}", *rows, counters[0], sep="\n")


if __name__ == "__main__":
    main()
