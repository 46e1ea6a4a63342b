#!/usr/bin/env python3
"""Convergence of the rescaled flotation boundary to the polar intersection body.

For an origin-symmetric body, sweeps chords at cut-off area area/2 - eps and
measures the Hausdorff distance between the 1/eps-rescaled flotation boundary
and the curve gamma' / (2 det(gamma, gamma')). The distances should decrease
as eps shrinks.

Usage:
    python scripts/limit_convergence.py [--harmonic 2] [--amplitude 0.05]
"""

import argparse

from flotilla.chord import FLOTATION, sweep
from flotilla.curve import Ellipse, FourierRadial, area
from flotilla.homothety import hausdorff_distance, intersection_body_polar


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--harmonic", type=int, default=2, help="even cosine harmonic")
    parser.add_argument("--amplitude", type=float, default=0.05)
    parser.add_argument("--samples", type=int, default=512)
    parser.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.05, 0.025, 0.0125])
    args = parser.parse_args()

    if args.harmonic % 2 != 0:
        parser.error("origin symmetry needs an even harmonic")
    coeffs = [0.0] * args.harmonic
    coeffs[args.harmonic - 1] = args.amplitude
    bodies = [("circle", Ellipse(1.0, 1.0)), ("fourier", FourierRadial(1.0, tuple(coeffs)))]

    for name, curve in bodies:
        half = area(curve) / 2.0
        dual = intersection_body_polar(curve, n_samples=args.samples)
        print(f"{name}:")
        for eps in args.eps:
            chords = sweep(curve, FLOTATION, half - eps, args.samples)
            pts = 0.5 * (chords.x + chords.y) / eps
            d = hausdorff_distance(pts, dual.points)
            print(f"  eps = {eps:<8g} Hausdorff distance = {d:.6e}")


if __name__ == "__main__":
    main()
