import math
import xml.etree.ElementTree as ET

import numpy as np

from pointray.reports import (
    ANGLE_CSV_COLUMNS,
    GOAL_CSV_COLUMNS,
    REFERENCE_GOAL_ERROR_CM,
    angle_cells_heatmap,
    angle_cells_to_csv,
    format_angle_summary,
    format_goal_table,
    goal_cells_to_csv,
    polar_heatmap_svg,
)
from pointray.roi import KeypointStrategy
from pointray.simulate import AngleCellResult, GoalCellResult


def angle_cell(range_m=1.5, bearing=0.0, strategy="mean", errs=(1.0, 2.0)):
    arr = np.array(errs, dtype=float)
    return AngleCellResult(
        range_m=range_m, bearing_deg=bearing, pitch_deg=30.0, yaw_deg=0.0,
        strategy=strategy, frames=len(errs), estimates=int(np.isfinite(arr).sum()),
        err_deg=arr, dpitch_deg=arr * 0.5, dyaw_deg=arr * -0.5,
    )


def test_angle_csv_schema():
    csv_text = angle_cells_to_csv([angle_cell()])
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    assert header == ANGLE_CSV_COLUMNS
    assert header[:6] == ["range_m", "bearing_deg", "direction", "strategy",
                          "mean_err_deg", "yield"]
    row = lines[1].split(",")
    assert row[0] == "1.5" and row[3] == "mean"
    assert float(row[4]) == 1.5  # mean of 1.0, 2.0
    assert float(row[5]) == 1.0


def test_goal_csv_schema():
    cell = GoalCellResult(range_m=2.5, bearing_deg=0.0, target=(0.0, 1.0),
                          strategy="mean", frames=2, goals=2,
                          err_cm=np.array([10.0, 12.0]))
    text = goal_cells_to_csv([cell])
    lines = text.strip().split("\n")
    assert lines[0].split(",") == GOAL_CSV_COLUMNS
    assert float(lines[1].split(",")[5]) == 11.0


def test_angle_summary_pools_each_range_and_strategy():
    cells = [
        angle_cell(3.5, errs=(3.0, math.nan)),
        angle_cell(1.5, 0.0, errs=(1.0, 4.0)),
        angle_cell(1.5, 20.0, errs=(1.0,)),
        angle_cell(1.5, strategy="dbscan", errs=(math.nan, math.nan)),
    ]
    strategies = (KeypointStrategy.MEAN_DEPTH, KeypointStrategy.DBSCAN_CLUSTER)
    lines = format_angle_summary(cells, strategies).split("\n")
    # dbscan has frames but no estimate at 1.5 m and no cell at 3.5 m
    assert lines[2:5] == [
        " range (m)        mean      dbscan      yield (mean/dbscan)",
        "       1.5        2.00         n/a      1.00/0.00",
        "       3.5        3.00         n/a      0.50/n/a",
    ]


def goal_cell(range_m, bearing, target, errs):
    arr = np.array(errs, dtype=float)
    return GoalCellResult(range_m=range_m, bearing_deg=bearing, target=target,
                          strategy="mean", frames=len(errs),
                          goals=int(np.isfinite(arr).sum()), err_cm=arr)


def test_goal_table_includes_reference_values():
    cells = [goal_cell(d, 0.0, (0.0, 1.0), (20.0, 22.0)) for d, _, _ in REFERENCE_GOAL_ERROR_CM]
    table = format_goal_table(cells, "mean")
    assert "16.1" in table and "1.9" in table  # 1.5 m reference row
    assert "48.4" in table and "12.3" in table  # 5.5 m reference row
    assert "Distance (m)" in table


def test_goal_table_pools_every_frame_at_each_distance():
    single = goal_cell(2.5, 0.0, (0.0, 1.0), (math.nan, 20.0, math.nan))
    assert math.isnan(single.std_err_cm)  # one goal: no std of its own
    cells = [
        goal_cell(3.0, 0.0, (0.0, 1.0), (math.nan, math.nan)),  # no goal at 3.0 m
        goal_cell(1.5, 0.0, (0.0, 1.0), (10.0, math.nan, 14.0)),
        goal_cell(1.5, 10.0, (0.5, 2.0), (12.0, 16.0)),
        single,
        goal_cell(2.5, -10.0, (1.0, 2.0), (22.0, 24.0)),
    ]
    rows = format_goal_table(cells, "mean").split("\n")[4:7]
    # 1.5 m: 10, 14, 12, 16 -> mean 13, std sqrt(20 / 3), 4 goals of 5 frames
    # 2.5 m: 20, 22, 24 -> mean 22, std 2, 3 goals of 5 frames
    assert rows == [
        "         1.5        13.0        2.6   0.800           16.1           1.9",
        "         2.5        22.0        2.0   0.600           18.1           2.1",
        "         3.0         nan        nan   0.000              -             -",
    ]


def test_heatmap_is_valid_svg_and_deterministic():
    cells = [angle_cell(r, b) for r in (1.5, 3.5) for b in (-20.0, 0.0, 20.0)]
    values, ranges, bearings = angle_cells_heatmap(cells, "mean")
    svg1 = polar_heatmap_svg(values, ranges, bearings, title="test")
    svg2 = polar_heatmap_svg(values, ranges, bearings, title="test")
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    paths = [e for e in root.iter() if e.tag.endswith("path")]
    assert len(paths) == len(ranges) * len(bearings)


def test_heatmap_escapes_its_title():
    svg = polar_heatmap_svg({(1.5, 0.0): 1.0}, [1.5], [0.0], title="error < 2 & up")
    texts = [e.text for e in ET.fromstring(svg).iter() if e.tag.endswith("text")]
    assert texts[0] == "error < 2 & up"


def test_heatmap_handles_nan_cells():
    values = {(1.5, 0.0): 1.0, (3.5, 0.0): float("nan")}
    svg = polar_heatmap_svg(values, [1.5, 3.5], [0.0], title="t")
    assert "#cccccc" in svg  # the nan cell renders gray


def test_heatmap_aggregates_over_directions():
    cells = [angle_cell(errs=(2.0, 2.0)), angle_cell(errs=(4.0, 4.0))]
    values, _, _ = angle_cells_heatmap(cells, "mean")
    assert values[(1.5, 0.0)] == 3.0


def test_nan_render():
    empty = AngleCellResult(range_m=1.5, bearing_deg=0.0, pitch_deg=30.0,
                            yaw_deg=0.0, strategy="mean", frames=2, estimates=0,
                            err_deg=np.array([np.nan, np.nan]),
                            dpitch_deg=np.array([np.nan, np.nan]),
                            dyaw_deg=np.array([np.nan, np.nan]))
    text = angle_cells_to_csv([empty])
    assert math.isnan(empty.mean_err_deg)
    assert "nan" in text.split("\n")[1]
