"""Correctness check of pointray's outputs, counting rather than filtering.

The output contract: every input line ends as exactly one of a finite,
strict-JSON estimate record, a record carrying a ``reason``, or a counted
skip (no record). A record holding ``NaN``/``Infinity``, a malformed record,
a second frame record for one line or a non-finite commit breaks the
contract; such lines are counted as failed and the run goes on.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

RECORD_KEYS = {"t", "face", "hand", "pitch_deg", "yaw_deg", "goal", "reason"}
COMMIT_KEYS = {"t", "committed_goal", "cov_trace"}
REASONS = ("no_face", "no_hand", "empty_roi", "no_cluster", "no_ground_hit")
ANGLE_CSV_COLUMNS = [
    "range_m", "bearing_deg", "direction", "strategy",
    "mean_err_deg", "yield", "mean_abs_dpitch_deg", "mean_abs_dyaw_deg",
]


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text: str):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and overflowing numbers."""
    obj = json.loads(text, parse_constant=_reject_constant)
    _require_finite(obj)
    return obj


def _require_finite(obj) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError("number overflows to a non-finite float")
    if isinstance(obj, list):
        for item in obj:
            _require_finite(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            _require_finite(item)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_vec(x, n: int) -> bool:
    return isinstance(x, list) and len(x) == n and all(_is_num(c) for c in x)


@dataclass
class Tally:
    """Counts and per-frame errors over one set of outputs."""

    attempted: int = 0
    failed: int = 0
    frames: int = 0
    skips: int = 0
    estimates: int = 0
    commits: int = 0
    angle_err_deg: list[float] = field(default_factory=list)
    goal_err_cm: list[float] = field(default_factory=list)

    @property
    def yield_(self) -> float:
        return self.estimates / self.frames if self.frames else 0.0

    @property
    def angle_err_deg_mean(self) -> float:
        return _mean(self.angle_err_deg)

    @property
    def goal_err_cm_mean(self) -> float:
        return _mean(self.goal_err_cm)


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class Truth:
    ray: tuple[float, float, float]  # unit vector eye -> fingertip
    goal: tuple[float, float] | None


def load_truth(path: str) -> dict[float, Truth]:
    """Ground truth by timestamp from a ``simulate --truth`` file."""
    truth = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            ray = [b - a for a, b in zip(obj["eye"], obj["fingertip"])]
            norm = math.sqrt(sum(c * c for c in ray))
            goal = obj["goal"]
            truth[obj["t"]] = Truth(
                tuple(c / norm for c in ray), None if goal is None else tuple(goal)
            )
    return truth


def angle_between_deg(a, b) -> float:
    cross = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    dot = sum(x * y for x, y in zip(a, b))
    return math.degrees(math.atan2(math.sqrt(sum(c * c for c in cross)), dot))


def classify_frame(text: str):
    """Return ``(kind, record)``: kind is ``estimate``, ``reason`` or ``breach``."""
    try:
        rec = strict_loads(text)
    except ValueError:
        return "breach", None
    if not isinstance(rec, dict) or set(rec) != RECORD_KEYS or not _is_num(rec["t"]):
        return "breach", None
    reason = rec["reason"]
    has_est = (
        _is_vec(rec["face"], 3) and _is_vec(rec["hand"], 3)
        and _is_num(rec["pitch_deg"]) and _is_num(rec["yaw_deg"])
    )
    no_est = all(rec[k] is None for k in ("face", "hand", "pitch_deg", "yaw_deg"))
    if reason is None:
        ok = has_est and _is_vec(rec["goal"], 2)
    elif reason == "no_ground_hit":
        ok = (has_est or no_est) and rec["goal"] is None
    else:
        ok = reason in REASONS and no_est and rec["goal"] is None
    if not ok:
        return "breach", None
    return ("estimate" if has_est else "reason"), rec


def commit_ok(text: str, frame_t) -> bool:
    try:
        rec = strict_loads(text)
    except ValueError:
        return False
    return (
        isinstance(rec, dict) and set(rec) == COMMIT_KEYS and rec["t"] == frame_t
        and _is_vec(rec["committed_goal"], 2)
        and _is_num(rec["cov_trace"]) and rec["cov_trace"] >= 0
    )


def score(tally: Tally, rec: dict, truth: dict[float, Truth]) -> None:
    """Add one finite estimate record's errors against ground truth."""
    ref = truth.get(rec["t"])
    if ref is None:
        return
    pointing = [h - f for f, h in zip(rec["face"], rec["hand"])]
    tally.angle_err_deg.append(angle_between_deg(pointing, ref.ray))
    if rec["goal"] is not None and ref.goal is not None:
        tally.goal_err_cm.append(
            100.0 * math.hypot(rec["goal"][0] - ref.goal[0], rec["goal"][1] - ref.goal[1])
        )


def check_stream(per_line: list[list[str]], truth: dict[float, Truth]) -> Tally:
    """Classify each input line's output lines and score the estimates.

    ``per_line[i]`` holds the output lines attributed to input line ``i``:
    none for a skip, else one frame record optionally followed by commits.
    """
    tally = Tally(attempted=len(per_line), frames=len(per_line))
    for texts in per_line:
        if not texts:
            tally.skips += 1
            continue
        kind, rec = classify_frame(texts[0])
        commits = texts[1:]
        tally.commits += len(commits)
        if kind == "breach" or not all(commit_ok(c, rec["t"]) for c in commits):
            tally.failed += 1
            continue
        if rec["t"] not in truth:
            tally.failed += 1
            continue
        if kind == "reason":
            continue
        tally.estimates += 1
        score(tally, rec, truth)
    return tally


def group_by_owner(lines: list[str], owners, n_lines: int) -> tuple[list[list[str]], int]:
    """Group output lines by owning input line; also count unowned lines."""
    per_line: list[list[str]] = [[] for _ in range(n_lines)]
    orphans = 0
    for text, owner in zip(lines, owners):
        if 0 <= owner < n_lines:
            per_line[owner].append(text)
        else:
            orphans += 1
    return per_line, orphans


def check_frame_log(lines: list[str]) -> tuple[int, int]:
    """Validate a detection-frame log as ``simulate`` writes it.

    Returns ``(attempted, failed)``: a line fails unless it is a strict-JSON
    frame with a finite, strictly increasing timestamp, a face object or
    null, a list of hands, and every sample ``[u, v, z]`` finite with
    ``z > 0`` inside its bbox.
    """
    failed = 0
    last_t = -math.inf
    for text in lines:
        try:
            obj = strict_loads(text)
            ok = isinstance(obj, dict) and _is_num(obj.get("t")) and obj["t"] > last_t
            rois = ([obj["face"]] if obj.get("face") is not None else []) + obj["hands"]
            ok = ok and isinstance(obj["hands"], list) and all(_roi_ok(r) for r in rois)
        except (ValueError, KeyError, TypeError):
            ok = False
        if ok:
            last_t = obj["t"]
        else:
            failed += 1
    return len(lines), failed


def _roi_ok(roi) -> bool:
    if not isinstance(roi, dict) or not _is_vec(roi.get("bbox"), 4):
        return False
    u0, v0, u1, v1 = roi["bbox"]
    samples = roi.get("samples")
    return u0 < u1 and v0 < v1 and isinstance(samples, list) and all(
        _is_vec(s, 3) and s[2] > 0 and u0 <= s[0] <= u1 and v0 <= s[1] <= v1
        for s in samples
    )


def check_angle_csv(text: str, frames_per_cell: int) -> Tally:
    """Check experiment-a's ``angle_cells.csv`` and pool its accuracy.

    One row per (cell, strategy) is one attempted unit. A row fails unless
    its yield lies in [0, 1] and its error columns are finite numbers, or
    ``nan`` exactly when the yield is 0.
    """
    rows = list(csv.reader(text.splitlines()))
    tally = Tally()
    if not rows or rows[0] != ANGLE_CSV_COLUMNS:
        return tally
    weighted = 0.0
    for row in rows[1:]:
        tally.attempted += 1
        tally.frames += frames_per_cell
        try:
            y = float(row[5])
            errs = [float(row[i]) for i in (4, 6, 7)]
        except (ValueError, IndexError):
            tally.failed += 1
            continue
        if len(row) != len(ANGLE_CSV_COLUMNS) or not 0.0 <= y <= 1.0:
            tally.failed += 1
            continue
        if y == 0.0:
            if not all(math.isnan(e) for e in errs):
                tally.failed += 1
            continue
        if not all(math.isfinite(e) and e >= 0 for e in errs):
            tally.failed += 1
            continue
        n = round(y * frames_per_cell)
        tally.estimates += n
        weighted += errs[0] * n
    tally.angle_err_deg = [weighted / tally.estimates] if tally.estimates else []
    return tally
