#!/usr/bin/env python3
"""Print the median in-process wall time of each stage of `flotilla run CONFIG`, or of `flotilla carousel CONFIG
--q Q [--s0 S]` (one turn, p = 1), over --repeat K runs.

Each run's stages are the `stage_seconds` of its report.json. `config` times cli.load_config, and `rest`
is what the cmd_run call spends outside every stage. `compile` times `import flotilla, flotilla.cli` in a
fresh interpreter, after numpy, from a copy of the package's source with no cached bytecode: what a fresh
process pays before any stage when no bytecode is cached (as under PYTHONDONTWRITEBYTECODE=1), compiling
included; it is not part of `total`. Beside each `compute_bundle[i]` stands the
`residual_calls` of its sweeps, the residual evaluations of their chord solves, which every run repeats.

A carousel's stages are the three calls of `cli.cmd_carousel`, each timed here: `curve` builds the body,
`build_carousel` solves the closing cut-off area and the chains from every start, and `write_json` writes
carousel.json. Beside `build_carousel` stands the carousel's `chain_solves`, its `chord.chains` calls.
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

from flotilla import cli, homothety
from flotilla.curve import curve_from_json

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


def carousel_stage_times(config_path, q, s0, out_dir):
    """The wall time of each stage of one carousel command, and the carousel's chain solves."""
    config = cli.load_config(config_path)
    start = perf_counter()
    curve = curve_from_json(config.curve_spec)
    built = perf_counter()
    car = homothety.build_carousel(curve, 1, q, s0=s0)
    solved = perf_counter()
    cli.write_json(out_dir / "carousel.json", cli.carousel_payload(cli.curve_label(config.curve_spec), car))
    times = {"curve": built - start, "build_carousel": solved - built, "write_json": perf_counter() - solved}
    return times, {"build_carousel": str(car.chain_solves)}


def residual_calls_of(stage, calls):
    """The residual calls of the sweeps of a `compute_bundle[i]` stage, as `flotation[i] N`; empty for other stages."""
    if not stage.startswith("compute_bundle["):
        return ""
    index = stage[len("compute_bundle"):]
    return ", ".join(f"{sweep} {n}" for sweep, n in calls.items() if sweep.endswith(index))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=["carousel"], help="time `flotilla carousel` instead of `run`")
    parser.add_argument("config")
    parser.add_argument("--q", type=int, help="the carousel's chairs (carousel only, required there)")
    parser.add_argument("--s0", type=float, default=0.0, help="the carousel's start (default 0)")
    parser.add_argument("--repeat", type=int, default=7, help="runs to take the median over (default 7)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if (args.command is None) != (args.q is None):
        parser.error("--q goes with carousel, and carousel needs --q")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        if args.command:
            title, column = f"carousel {args.config} --q {args.q} --s0 {args.s0!r}", "chain solves"
            runs, counts = zip(*(
                carousel_stage_times(args.config, args.q, args.s0, Path(tmp)) for _ in range(args.repeat)
            ))
            counts = counts[0]
        else:
            title, column = args.config, "residual calls"
            runs, calls = zip(*(stage_times(args.config, Path(tmp)) for _ in range(args.repeat)))
            counts = {name: residual_calls_of(name, calls[0]) for name in runs[0]}
    rows = (
        f"{name:<28} {1e3 * statistics.median(run[name] for run in runs):>10.3f}  {counts.get(name, '')}"
        for name in runs[0]
    )
    header = f"{'stage':<28} {'ms':>10}  {column}"
    print(f"median of {args.repeat} runs of {title}", header, *(row.rstrip() for row in rows), sep="\n")


if __name__ == "__main__":
    main()
