"""The benchmark's own output checks (perfbench/verify.py), run in process on every workload's first call.

A benchmark run reports only how many of its calls failed; this names the
workload and every problem its checks find.
"""

from pathlib import Path

from flotilla.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_first_calls_pass_the_benchmark_checks(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    problems = {}
    for name, make in workloads.WORKLOADS.items():
        workload = make()
        work = tmp_path / name
        work.mkdir()
        workload.prepare(1, ROOT, work)
        out = work / "out"
        code = main(workload.argv(0, out))
        problems[name], _ = workload.verify(0, out, code)
    capsys.readouterr()
    assert problems
    assert {name: found for name, found in problems.items() if found} == {}
