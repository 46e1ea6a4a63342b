#!/usr/bin/env python3
"""Scan the carousel closure defect against the cut-off area.

Writes a CSV of (delta, closure_defect) for a p/q chord chain and reports the
closing value delta*. Useful for seeing how the defect crosses zero.

Usage:
    python scripts/carousel_scan.py --q 3 [--p 1] [--steps 40] [--out out/carousel_scan.csv]
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from flotilla.chord import chains
from flotilla.curve import PERIOD, area, curve_from_json
from flotilla.homothety import build_carousel

DEFAULT_CURVE = {"kind": "fourier_radial", "r0": 1.0, "cos": [0.0, 0.0, 0.1]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--p", type=int, default=1)
    parser.add_argument("--s0", type=float, default=0.0)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--a", type=float, help="use an ellipse with this semi-axis instead")
    parser.add_argument("--b", type=float, default=1.0)
    parser.add_argument("--out", default="out/carousel_scan.csv")
    args = parser.parse_args()

    if args.a is not None:
        spec = {"kind": "ellipse", "a": args.a, "b": args.b}
    else:
        spec = DEFAULT_CURVE
    curve = curve_from_json(spec)
    total = area(curve)

    # validates p/q and s0 before the scan, and solves delta*
    car = build_carousel(curve, args.p, args.q, s0=args.s0)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the closing area of p/q >= 1/2 lies above half the body
    deltas = np.linspace(0.05 * total, 0.95 * total, args.steps)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "closure_defect"])
        for d in deltas:
            # the one chain from s0 is all the defect needs, not build_carousel's 32 starts
            ts, _, _ = chains(curve, args.q, float(d), 1, args.s0)
            defect = float(ts[args.q, 0] - ts[0, 0] - args.p * PERIOD)
            writer.writerow([f"{d:.17g}", f"{defect:.17g}"])

    delta_star = car.delta
    print(f"curve: {spec}")
    print(f"p/q = {args.p}/{args.q}: delta* = {delta_star:.12g} (fraction {delta_star/total:.6f})")
    if car.lambdas:
        print(f"tangent-triangle ratios at closure: {[round(x, 9) for x in car.lambdas]}")
    print(f"scan written to {out}")


if __name__ == "__main__":
    main()
