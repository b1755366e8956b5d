"""CSV tables, the goal-error text table, and SVG polar heatmaps.

All artifacts are plain deterministic text: identical inputs produce
byte-identical files, which the test suite relies on.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: writing reports needs no simulator
    from .simulate import AngleCellResult, GoalCellResult, GoalSummaryRow

ANGLE_CSV_COLUMNS = [
    "range_m",
    "bearing_deg",
    "direction",
    "strategy",
    "mean_err_deg",
    "yield",
    "mean_abs_dpitch_deg",
    "mean_abs_dyaw_deg",
]

GOAL_CSV_COLUMNS = [
    "range_m",
    "bearing_deg",
    "target_x",
    "target_y",
    "strategy",
    "mean_err_cm",
    "std_err_cm",
    "yield",
]

# Goal-point accuracy of the original hardware system, printed for context
# alongside simulated results (distance m, mean cm, std cm).
REFERENCE_GOAL_ERROR_CM = (
    (1.5, 16.1, 1.9),
    (2.5, 18.1, 2.1),
    (3.5, 14.5, 3.5),
    (4.5, 22.4, 5.6),
    (5.5, 48.4, 12.3),
)


def _fmt(x: float, digits: int = 6) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.{digits}f}"


def direction_label(pitch_deg: float, yaw_deg: float) -> str:
    return f"{pitch_deg:g}/{yaw_deg:g}"


def angle_cells_to_csv(cells: list[AngleCellResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ANGLE_CSV_COLUMNS)
    for c in cells:
        writer.writerow(
            [
                f"{c.range_m:g}",
                f"{c.bearing_deg:g}",
                direction_label(c.pitch_deg, c.yaw_deg),
                c.strategy,
                _fmt(c.mean_err_deg),
                _fmt(c.yield_rate, 4),
                _fmt(c.mean_abs_dpitch_deg),
                _fmt(c.mean_abs_dyaw_deg),
            ]
        )
    return buf.getvalue()


def goal_cells_to_csv(cells: list[GoalCellResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GOAL_CSV_COLUMNS)
    for c in cells:
        writer.writerow(
            [
                f"{c.range_m:g}",
                f"{c.bearing_deg:g}",
                f"{c.target[0]:g}",
                f"{c.target[1]:g}",
                c.strategy,
                _fmt(c.mean_err_cm, 2),
                _fmt(c.std_err_cm, 2),
                _fmt(c.yield_rate, 4),
            ]
        )
    return buf.getvalue()


def format_angle_summary(cells: list[AngleCellResult], strategies) -> str:
    """Experiment A summary: mean angular error and yield per range."""
    lines = ["Angular error by range (mean over bearings and directions)", ""]
    header = f"{'range (m)':>10}" + "".join(f"  {s.value:>10}" for s in strategies)
    lines.append(header + "      yield (" + "/".join(s.value for s in strategies) + ")")
    ranges = sorted({c.range_m for c in cells})
    for r in ranges:
        row = f"{r:>10.1f}"
        yields = []
        for s in strategies:
            group = [c for c in cells if c.range_m == r and c.strategy == s.value]
            errs = np.concatenate([c.err_deg for c in group]) if group else np.array([])
            errs = errs[~np.isnan(errs)]
            row += f"  {np.mean(errs):>10.2f}" if errs.size else f"  {'n/a':>10}"
            total = sum(c.frames for c in group)
            got = sum(c.estimates for c in group)
            yields.append(f"{got / total:.2f}" if total else "n/a")
        lines.append(row + "      " + "/".join(yields))
    return "\n".join(lines) + "\n"


def format_goal_table(rows: list[GoalSummaryRow], strategy: str) -> str:
    """Goal-error table with the reference hardware figures alongside."""
    reference = {d: (m, s) for d, m, s in REFERENCE_GOAL_ERROR_CM}
    lines = [
        f"Goal-point error vs. distance (strategy: {strategy})",
        "",
        f"{'Distance (m)':>12}  {'mean (cm)':>10}  {'std (cm)':>9}  {'yield':>6}"
        f"  {'ref mean (cm)':>13}  {'ref std (cm)':>12}",
        "-" * 72,
    ]
    for row in rows:
        ref = reference.get(row.distance_m)
        ref_m = f"{ref[0]:.1f}" if ref else "-"
        ref_s = f"{ref[1]:.1f}" if ref else "-"
        lines.append(
            f"{row.distance_m:>12.1f}  {row.mean_cm:>10.1f}  {row.std_cm:>9.1f}"
            f"  {row.yield_rate:>6.3f}  {ref_m:>13}  {ref_s:>12}"
        )
    lines.append("-" * 72)
    lines.append("Reference columns: accuracy reported for the original hardware")
    lines.append("system; simulated values are not expected to match them.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG polar heatmap
# ---------------------------------------------------------------------------

_PALETTE = ((69, 117, 180), (255, 255, 191), (215, 48, 39))  # blue -> yellow -> red


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        a, b, f = _PALETTE[0], _PALETTE[1], t * 2.0
    else:
        a, b, f = _PALETTE[1], _PALETTE[2], (t - 0.5) * 2.0
    rgb = tuple(round(a[i] + (b[i] - a[i]) * f) for i in range(3))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _edges(values: list[float]) -> list[float]:
    """Cell boundaries at midpoints, extended by half a step at the ends."""
    if len(values) == 1:
        v = values[0]
        return [v - 0.5, v + 0.5]
    mids = [0.5 * (a + b) for a, b in zip(values, values[1:])]
    first = values[0] - (mids[0] - values[0])
    last = values[-1] + (values[-1] - mids[-1])
    return [first, *mids, last]


def polar_heatmap_svg(
    cell_values: dict[tuple[float, float], float],
    ranges: list[float],
    bearings: list[float],
    *,
    title: str,
) -> str:
    """Polar heatmap of grid cells: annular sectors, radially by range, angularly by bearing.

    ``cell_values`` maps (range, bearing) to the plotted error in degrees;
    the color scale runs from 0 to the largest finite value. Missing or NaN
    cells render gray.
    """
    ranges = sorted(ranges)
    bearings = sorted(bearings)
    finite = [v for v in cell_values.values() if v is not None and not math.isnan(v)]
    vmax = max(finite, default=1.0)
    if vmax <= 0.0:
        vmax = 1.0

    width, height = 640, 560
    cx, cy = 320.0, 470.0  # camera location on the canvas
    px_per_m = 420.0 / max(ranges[-1], 1e-6) / 1.08

    def xy(r_m: float, bearing_deg: float) -> tuple[float, float]:
        a = math.radians(bearing_deg)
        return (cx + r_m * px_per_m * math.sin(a), cy - r_m * px_per_m * math.cos(a))

    r_edges = _edges(ranges)
    b_edges = _edges(bearings)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.0f}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">{title}</text>',
    ]

    for i, r in enumerate(ranges):
        r_lo = max(r_edges[i], 0.0)
        r_hi = r_edges[i + 1]
        for j, b in enumerate(bearings):
            b_lo, b_hi = b_edges[j], b_edges[j + 1]
            value = cell_values.get((r, b))
            if value is None or math.isnan(value):
                fill = "#cccccc"
            else:
                fill = _color(value / vmax)
            p1 = xy(r_hi, b_lo)
            p2 = xy(r_hi, b_hi)
            p3 = xy(r_lo, b_hi)
            p4 = xy(r_lo, b_lo)
            r_hi_px = r_hi * px_per_m
            r_lo_px = r_lo * px_per_m
            path = (
                f"M {p1[0]:.2f} {p1[1]:.2f} "
                f"A {r_hi_px:.2f} {r_hi_px:.2f} 0 0 1 {p2[0]:.2f} {p2[1]:.2f} "
                f"L {p3[0]:.2f} {p3[1]:.2f} "
                f"A {r_lo_px:.2f} {r_lo_px:.2f} 0 0 0 {p4[0]:.2f} {p4[1]:.2f} Z"
            )
            parts.append(f'<path d="{path}" fill="{fill}" stroke="#ffffff" stroke-width="1"/>')

    for r in ranges:
        x, y = xy(r, bearings[-1])
        parts.append(
            f'<text x="{x + 8:.1f}" y="{y:.1f}" font-family="sans-serif" '
            f'font-size="11" fill="#333333">{r:g} m</text>'
        )
    for b in bearings:
        x, y = xy(r_edges[-1] * 1.02, b)
        parts.append(
            f'<text x="{x:.1f}" y="{y - 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="#333333">{b:g}&#176;</text>'
        )
    parts.append(
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="#000000"/>'
        f'<text x="{cx:.1f}" y="{cy + 18:.1f}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle">camera</text>'
    )

    bar_x, bar_y, bar_w, bar_h = width - 60, 60, 16, 180
    steps = 32
    for i in range(steps):
        t = 1.0 - (i + 0.5) / steps
        y = bar_y + bar_h * i / steps
        parts.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="{bar_w}" '
            f'height="{bar_h / steps + 0.5:.2f}" fill="{_color(t)}"/>'
        )
    parts.append(
        f'<text x="{bar_x + bar_w + 4}" y="{bar_y + 8}" font-family="sans-serif" '
        f'font-size="11">{vmax:.2f}</text>'
        f'<text x="{bar_x + bar_w + 4}" y="{bar_y + bar_h}" font-family="sans-serif" '
        f'font-size="11">0.00</text>'
        f'<text x="{bar_x - 4}" y="{bar_y + bar_h / 2:.0f}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">deg</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def angle_cells_heatmap(
    cells: list[AngleCellResult], strategy: str
) -> tuple[dict[tuple[float, float], float], list[float], list[float]]:
    """Mean angular error per (range, bearing), averaged over directions."""
    grouped: dict[tuple[float, float], list[float]] = {}
    for c in cells:
        if c.strategy != strategy:
            continue
        grouped.setdefault((c.range_m, c.bearing_deg), []).append(c.mean_err_deg)
    values = {}
    for key, errs in grouped.items():
        finite = [e for e in errs if not math.isnan(e)]
        values[key] = float(np.mean(finite)) if finite else float("nan")
    ranges = sorted({k[0] for k in values})
    bearings = sorted({k[1] for k in values})
    return values, ranges, bearings


def write_text(path: str | Path, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")
