#!/usr/bin/env python3
"""Render the full curve bundle of a body and print its homothety diagnostics.

Usage:
    python scripts/demo_bundle.py [--a 2.0] [--b 1.0] [--delta 1.0] [--out out/demo]
"""

import argparse
from pathlib import Path

from flotilla.cli import compute_bundle, write_curves_csv, write_figure
from flotilla.curve import Ellipse, area
from flotilla.floatgeom import omega_identity_residual
from flotilla.homothety import chord_cube_report, duality_parameters


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=2.0)
    parser.add_argument("--b", type=float, default=1.0)
    parser.add_argument("--delta", type=float, default=1.0)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--out", default="out/demo")
    args = parser.parse_args()

    curve = Ellipse(args.a, args.b)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    bundle = compute_bundle(curve, args.delta, args.samples)
    write_curves_csv(out / "curves.csv", [bundle])
    write_figure(out / "figure.svg", [bundle], chord_stride=args.samples // 24)

    report, lam = chord_cube_report(bundle.chords)
    print(f"body area             : {area(curve):.12f}")
    print(f"cut-off area delta    : {args.delta}")
    print(f"mean ||c||^3          : {report.mean:.12f}  (CV {report.coefficient_of_variation:.3e})")
    print(f"homothety ratio       : {lam:.12f}")
    if bundle.homothetic:
        delta_hat, lam_hat = duality_parameters(args.delta, lam)
        print(f"dual cone area        : {delta_hat:.12f}")
        print(f"dual ratio            : {lam_hat:.12f}")
    omega = omega_identity_residual(bundle.chords, bundle.buoyancy.points)
    print(f"area-deficit identity : residual {omega:.3e}")
    print(f"wrote {out/'curves.csv'} and {out/'figure.svg'}")


if __name__ == "__main__":
    main()
