"""One flotilla CLI call in a fresh interpreter, with its own timings.

Usage: python3 child.py RESULT_JSON [TRACE_JSON RUN_ID] -- CLI_ARGS...

Times ``import flotilla`` plus ``import flotilla.cli`` (setup) and
``flotilla.cli.main(CLI_ARGS)`` (solve), writes them to RESULT_JSON and exits
with the CLI's exit code. With TRACE_JSON the calls into flotilla's modules
are traced (see tracing.py) and the spans are written there after the call.
A call that raises exits with code 70 after recording the traceback.
"""

import sys
from time import perf_counter

RAISED_EXIT = 70


def main():
    args = sys.argv[1:]
    sep = args.index("--")
    opts, cli_args = args[:sep], args[sep + 1:]
    result_path = opts[0]
    trace_path, run_id = (opts[1], opts[2]) if len(opts) == 3 else (None, None)

    t0 = perf_counter()
    import flotilla  # noqa: F401
    import flotilla.cli

    t1 = perf_counter()
    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    entry = flotilla.cli.main
    error = None
    t2 = perf_counter()
    try:
        code = entry(cli_args)
    except Exception:  # a raising CLI call is a failed operation, reported below
        import traceback

        error = traceback.format_exc()
        code = RAISED_EXIT
    t3 = perf_counter()

    import json
    import resource

    if tracer is not None:
        tracer.dump(trace_path)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "setup_s": t1 - t0,
                "solve_s": t3 - t2,
                "exit_code": code,
                "error": error,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
