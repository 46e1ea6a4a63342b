"""Minimal SVG writer for curve bundles: layered polylines, chords, legend."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_PALETTE = {
    "body": "#222222",
    "flotation_boundary": "#1f77b4",
    "buoyancy_curve": "#d62728",
    "illumination_boundary": "#2ca02c",
    "illumination_centroid": "#9467bd",
}
_FALLBACK_COLORS = ["#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22"]

MARGIN_FRACTION = 0.05


def _fmt(x):
    return f"{x:.8g}"


def _flip(points):
    points = np.asarray(points, dtype=float)
    return points * np.array([1.0, -1.0])


def _chord_ends(chords):
    """End points x and y of the chords of every sweep, concatenated in order."""
    if not chords:
        return np.empty((0, 2)), np.empty((0, 2))
    return np.concatenate([ch.x for ch in chords]), np.concatenate([ch.y for ch in chords])


def figure_bounds(curves, chords=None):
    """Data bounds (min_x, min_y, max_x, max_y) over all drawn geometry."""
    pts = [np.asarray(c["points"], dtype=float) for c in curves]
    allpts = np.concatenate([*pts, *_chord_ends(chords)], axis=0)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])


def export_svg(curves, path, chords=None, chord_stride=0, size=640):
    """Write the curve families to a single SVG file.

    ``curves`` is a list of {"label": str, "points": (N, 2) array}; the
    chords of the optional sweeps (a list of Chords) are drawn as segments
    every ``chord_stride`` chords of their concatenation (0 = omit).
    The viewBox is the data bounding box plus a 5% margin, equal aspect
    (y axis flipped into screen coordinates).
    """
    if not curves or any(len(c["points"]) == 0 for c in curves):
        raise DomainError("export_svg requires non-empty sample lists")
    x0, y0, x1, y1 = figure_bounds(curves, chords)
    span = max(x1 - x0, y1 - y0)
    margin = MARGIN_FRACTION * span
    # screen coordinates: y negated
    vx, vy = x0 - margin, -y1 - margin
    vw, vh = (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin
    stroke = span / 300.0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}" '
        'preserveAspectRatio="xMidYMid meet">',
    ]
    if chord_stride > 0:
        starts, ends = _chord_ends(chords)
        for a, b in zip(_flip(starts[::chord_stride]), _flip(ends[::chord_stride])):
            lines.append(
                f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                f'stroke="#bbbbbb" stroke-width="{_fmt(0.5 * stroke)}"/>'
            )
    fallback = iter(_FALLBACK_COLORS * 8)
    legend = []
    for c in curves:
        color = _PALETTE.get(c["label"]) or next(fallback)
        pts = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in _flip(c["points"]))
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="{color}" stroke-width="{_fmt(stroke)}"/>'
        )
        legend.append((c["label"], color))
    font = 0.04 * span
    for i, (label, color) in enumerate(legend):
        lines.append(
            f'<text x="{_fmt(vx + font)}" y="{_fmt(vy + (1.5 + i) * font)}" '
            f'font-size="{_fmt(font)}" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
