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
import math

import numpy as np

from flotilla.chord import FLOTATION, sweep
from flotilla.curve import Ellipse, FourierRadial, SampledPeriodic, area, det2
from flotilla.errors import DomainError
from flotilla.homothety import _check_symmetric


def intersection_body_polar(curve, n_samples=None) -> SampledPeriodic:
    """The curve g'/(2 det(g, g')), the polar of the intersection body.

    Only defined for origin-symmetric curves with the origin inside; returned
    as a sampled curve whose tangent is parallel to the original position
    vector at matched parameters.
    """
    _check_symmetric(curve, np.zeros(2), "the origin")  # the polar is taken about the origin
    g, d1 = curve.on_grid(n_samples if n_samples is not None else max(2 * curve.resolution, 256), (0, 1))
    radial = det2(g, d1)
    if np.any(radial <= 0.0):
        raise DomainError("origin must be strictly inside the curve")
    return SampledPeriodic(points=d1 / (2.0 * radial[:, None]))


def hausdorff_distance(points_a, points_b) -> float:
    """Symmetric Hausdorff distance between two (N, 2) point samples."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise DomainError("sample sets must be non-empty")
    # squared distances in row blocks bound the temporary to 256 x len(b) pairs
    worst_a = 0.0
    nearest_b = np.full(len(b), math.inf)
    for block in np.array_split(a, -(-len(a) // 256)):
        d2 = np.sum((block[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        worst_a = max(worst_a, float(d2.min(axis=1).max()))
        nearest_b = np.minimum(nearest_b, d2.min(axis=0))
    return math.sqrt(max(worst_a, float(nearest_b.max())))


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
