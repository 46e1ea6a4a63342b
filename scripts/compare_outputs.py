#!/usr/bin/env python3
"""Compare two output directories of `flotilla run` or `flotilla carousel`, file by file.

Each file present in either directory is reported as byte-identical or not.
For a `curves.csv` that differs, the largest relative difference over its
cells is printed; for a JSON record (`report.json`, `carousel.json`), every
key that differs, and in a report every check record whose status or value
differs (matched by their check, not by position) and every check that only
one report holds. The `stage_seconds` of a record are wall times and are
ignored. Exits 0 when every file is identical (a JSON record apart from
`stage_seconds`), 1 otherwise.

Usage:
    python scripts/compare_outputs.py A B
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path


def relative_difference(a, b):
    """|a - b| over the larger magnitude of two CSV cells: 0 for equal cells (NaN and empty ones too), inf if only one is a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_csv(a, b):
    """Lines describing how two curves.csv texts differ: their shape, or the largest relative cell difference."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text, newline=""))) for text in (a, b))
    if len(rows_a) != len(rows_b) or any(len(x) != len(y) for x, y in zip(rows_a, rows_b)):
        return [f"  {len(rows_a)} rows against {len(rows_b)}, or rows of other lengths"]
    header = rows_a[0]
    worst, where = 0.0, None
    for i, (x, y) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for column, cell_a, cell_b in zip(header, x, y):
            diff = relative_difference(cell_a, cell_b)
            if diff > worst:
                worst, where = diff, (i, column, cell_a, cell_b)
    if where is None:
        return ["  equal cells, other bytes"]
    row, column, cell_a, cell_b = where
    return [f"  largest relative cell difference {worst:.3e} at row {row}, column {column}: {cell_a} against {cell_b}"]


def compare_json(a, b):
    """Lines naming every key of two JSON records that differs, but stage_seconds, and in reports every
    check record whose status or value differs and every check only one holds; matched by their check."""
    report_a, report_b = json.loads(a), json.loads(b)
    lines = []
    for key in sorted((set(report_a) | set(report_b)) - {"stage_seconds", "records"}):
        if report_a.get(key) != report_b.get(key):
            lines.append(f"  {key}: {report_a.get(key)!r} against {report_b.get(key)!r}")
    records_a, records_b = ({r["check"]: r for r in report.get("records", [])} for report in (report_a, report_b))
    for check in [*records_a, *(check for check in records_b if check not in records_a)]:
        x, y = records_a.get(check), records_b.get(check)
        if x is None or y is None:
            lines.append(f"  {check}: only in the {'first' if y is None else 'second'} report")
        elif (x["status"], x["value"]) != (y["status"], y["value"]):
            lines.append(f"  {check}: {x['status']} {x['value']!r} against {y['status']} {y['value']!r}")
        elif x != y:
            lines.append(f"  {check}: same status and value, other fields")
    return lines


def compare(dir_a, dir_b):
    """(every file identical, the report lines) of two output directories."""
    names = sorted({path.name for path in dir_a.iterdir()} | {path.name for path in dir_b.iterdir()})
    same, lines = True, []
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.is_file() and path_b.is_file()):
            same = False
            lines.append(f"{name}: only in {dir_a if path_a.exists() else dir_b}")
            continue
        a, b = path_a.read_bytes(), path_b.read_bytes()
        if a == b:
            lines.append(f"{name}: byte-identical")
            continue
        if name.endswith(".json"):
            detail = compare_json(a, b)
            if not detail:
                lines.append(f"{name}: identical apart from stage_seconds")
                continue
        elif name == "curves.csv":
            detail = compare_csv(a.decode(), b.decode())
        else:
            detail = []
        same = False
        lines += [f"{name}: differs", *detail]
    return same, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    for path in (args.a, args.b):
        if not path.is_dir():
            parser.error(f"{path} is not a directory")
    same, lines = compare(args.a, args.b)
    print(*lines, sep="\n")
    sys.exit(0 if same else 1)


if __name__ == "__main__":
    main()
