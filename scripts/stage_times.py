#!/usr/bin/env python3
"""Print the median in-process wall time of each stage of `flotilla run CONFIG`, over --repeat K runs.

Each run's stages are the `stage_seconds` of its report.json. `config` times cli.load_config, and `rest`
is what the cmd_run call spends outside every stage. `compile` times `import flotilla, flotilla.cli` in a
fresh interpreter, after numpy, from a copy of the package's source with no cached bytecode: what a fresh
process pays before any stage when no bytecode is cached (as under PYTHONDONTWRITEBYTECODE=1), compiling
included; it is not part of `total`. Beside each `compute_bundle[i]` stands the
`residual_calls` of its sweeps, the residual evaluations of their chord solves, which every run repeats.
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


def stage_times(config_path, out_dir):
    compiled = compile_seconds()
    start = perf_counter()
    config = cli.load_config(config_path)
    loaded = perf_counter()
    config.output_dir = str(out_dir)
    cli.cmd_run(config)
    done = perf_counter()
    report = json.loads((out_dir / "report.json").read_text())
    stages = report["stage_seconds"]
    rest = done - loaded - sum(stages.values())
    times = {"compile": compiled, "config": loaded - start, **stages, "rest": rest, "total": done - start}
    return times, report["residual_calls"]


def residual_calls_of(stage, calls):
    """The residual calls of the sweeps of a `compute_bundle[i]` stage, as `flotation[i] N`; empty for other stages."""
    if not stage.startswith("compute_bundle["):
        return ""
    index = stage[len("compute_bundle"):]
    return ", ".join(f"{sweep} {n}" for sweep, n in calls.items() if sweep.endswith(index))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeat", type=int, default=7, help="runs to take the median over (default 7)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        runs, calls = zip(*(stage_times(args.config, Path(tmp)) for _ in range(args.repeat)))
    rows = (
        f"{name:<28} {1e3 * statistics.median(run[name] for run in runs):>10.3f}  {residual_calls_of(name, calls[0])}"
        for name in runs[0]
    )
    header = f"{'stage':<28} {'ms':>10}  residual calls"
    print(f"median of {args.repeat} runs of {args.config}", header, *(row.rstrip() for row in rows), sep="\n")


if __name__ == "__main__":
    main()
