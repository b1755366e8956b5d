"""Outside-in tracing of pointray's layers.

Wrappers are installed where the caller looks a name up (a module global
or a class attribute), so the program's sources stay untouched. Each call
becomes a span (name, start, end, parent) kept in flat arrays and written
out when the run ends. Counters are taken at the same boundaries through
per-name hooks. A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from check import REASONS

LAYERS = ("frames", "tracking", "roi", "geometry", "pointing", "simulate", "reports", "cli")


@dataclass
class Tracer:
    """In-memory span store; one per traced run."""

    names: list[str] = field(default_factory=list)
    name_ids: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("q"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    errors: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    _ids: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call, then calling ``hook``."""
        nid = self.name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(perf_counter())
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.ends[idx] = perf_counter()
                stack.pop()
                if not ok:
                    self.errors[name] = self.errors.get(name, 0) + 1
                    if hook is not None:
                        hook(self, args, None)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Calls are single-threaded and nested, so children never overlap and
    their durations add up to the part of the parent they cover.
    """
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    return durations - covered


# -- hooks: counters measured at the same boundaries as the spans -----------

def _parse_hook(tr: Tracer, args, result) -> None:
    tr.add("frames.bytes_in", len(args[0]))


def _encode_hook(tr: Tracer, args, result) -> None:
    if result is not None:
        tr.add("frames.bytes_out", len(result))


def _estimate_hook(tr: Tracer, args, result) -> None:
    if result is not None and result.reason is not None:
        tr.add(f"pointing.reason.{result.reason}", 1)


def _cobb_hook(tr: Tracer, args, result) -> None:
    tr.add("roi.cobb_filter.samples_in", len(args[0]))
    if result is not None:
        tr.add("roi.cobb_filter.samples_kept", len(result))


def _dbscan_hook(tr: Tracer, args, result) -> None:
    tr.add("roi.dbscan_depth.samples_in", np.size(args[0]))
    if result is not None and result[0]:
        tr.add("roi.dbscan_depth.samples_kept", max(c.size for c in result[0]))


def _step_hook(tr: Tracer, args, result) -> None:
    tr.peak("tracking.tracks_live_max", len(args[0].tracks))


def _gate_hook(tr: Tracer, args, result) -> None:
    if result is not None:
        tr.add("tracking.commits", 1)


# (module, attribute path where the caller looks it up, span name, hook)
WRAPS = (
    ("pointray.cli", "main", "cli.main", None),
    ("pointray.frames", "parse_frame", "frames.parse_frame", _parse_hook),
    ("pointray.frames", "RoiPointSet.with_bbox", "frames.RoiPointSet.with_bbox", None),
    ("pointray.cli", "frame_to_line", "frames.frame_to_line", _encode_hook),
    ("pointray.tracking", "DetectionTracker.step", "tracking.DetectionTracker.step", _step_hook),
    ("pointray.tracking", "GoalGate.update", "tracking.GoalGate.update", _gate_hook),
    ("pointray.pointing", "cobb_filter", "roi.cobb_filter", _cobb_hook),
    ("pointray.pointing", "estimate_keypoint", "roi.estimate_keypoint", None),
    ("pointray.roi", "dbscan_depth", "roi.dbscan_depth", _dbscan_hook),
    ("pointray.roi", "deproject", "geometry.deproject", None),
    ("pointray.pointing", "camera_to_world", "geometry.camera_to_world", None),
    ("pointray.cli", "estimate_frame", "pointing.estimate_frame", _estimate_hook),
    ("pointray.simulate", "estimate_frame", "pointing.estimate_frame", _estimate_hook),
    ("pointray.cli", "result_to_line", "pointing.result_to_line", None),
    ("pointray.simulate", "angular_error_deg", "pointing.angular_error_deg", None),
    ("pointray.simulate", "synthesize_frame", "simulate.synthesize_frame", None),
    ("pointray.cli", "angle_cells_to_csv", "reports.angle_cells_to_csv", None),
    ("pointray.cli", "angle_cells_heatmap", "reports.angle_cells_heatmap", None),
    ("pointray.cli", "polar_heatmap_svg", "reports.polar_heatmap_svg", None),
    ("pointray.cli", "write_text", "reports.write_text", None),
)


def install(tracer: Tracer, wraps=WRAPS) -> tuple[list[str], Callable[[], None]]:
    """Install every wrapper that can be installed.

    Returns ``(absent, uninstall)``: the ``module:attribute`` names that do
    not exist, and a function restoring every original.
    """
    absent: list[str] = []
    undo: list[tuple[object, str, object]] = []
    for module_name, path, span, hook in wraps:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            absent.append(f"{module_name}:{path}")
            continue
        if not callable(original):
            absent.append(f"{module_name}:{path}")
            continue
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, span, hook))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return absent, uninstall


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer, absent: list[str]) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run."""
    name_ids = np.frombuffer(tracer.name_ids, dtype=np.int32)
    parents = np.frombuffer(tracer.parents, dtype=np.int64)
    durations = np.frombuffer(tracer.ends, dtype=np.float64) - np.frombuffer(
        tracer.starts, dtype=np.float64
    )
    selfs = self_times(parents, durations)
    wall = float(durations[parents < 0].sum())

    def span(name):
        if name not in tracer._ids:
            return np.empty(0), np.empty(0)
        mask = name_ids == tracer._ids[name]
        return selfs[mask] * 1000.0, durations[mask] * 1000.0

    m: dict[str, float] = {}

    def timed(name, p99=False, total_p99=False, frac=False):
        self_ms, total_ms = span(name)
        m[f"{name}.calls"] = float(self_ms.size)
        m[f"{name}.self_ms_p50"] = _pct(self_ms, 50)
        if p99:
            m[f"{name}.self_ms_p99"] = _pct(self_ms, 99)
        if total_p99:
            m[f"{name}.ms_p99"] = _pct(total_ms, 99)
        if frac:
            m[f"{name}.self_frac"] = float(self_ms.sum()) / 1000.0 / wall if wall else 0.0

    c = tracer.counters
    timed("frames.parse_frame", p99=True, frac=True)
    m["frames.parse_frame.errors"] = float(tracer.errors.get("frames.parse_frame", 0))
    m["frames.bytes_in"] = float(c.get("frames.bytes_in", 0))
    timed("frames.RoiPointSet.with_bbox")
    timed("frames.frame_to_line", frac=True)
    m["frames.bytes_out"] = float(c.get("frames.bytes_out", 0))

    timed("tracking.DetectionTracker.step", p99=True, frac=True)
    m["tracking.tracks_live_max"] = float(c.get("tracking.tracks_live_max", 0))
    timed("tracking.GoalGate.update")
    m["tracking.commits"] = float(c.get("tracking.commits", 0))

    timed("roi.dbscan_depth", p99=True, frac=True)
    m["roi.dbscan_depth.samples_in"] = float(c.get("roi.dbscan_depth.samples_in", 0))
    m["roi.dbscan_depth.kept_ratio"] = _ratio(c, "roi.dbscan_depth")
    timed("roi.cobb_filter", frac=True)
    m["roi.cobb_filter.kept_ratio"] = _ratio(c, "roi.cobb_filter")
    timed("roi.estimate_keypoint", frac=True)
    m["roi.estimate_keypoint.errors"] = float(tracer.errors.get("roi.estimate_keypoint", 0))

    m["geometry.deproject.calls"] = float(span("geometry.deproject")[0].size)
    m["geometry.camera_to_world.calls"] = float(span("geometry.camera_to_world")[0].size)

    timed("pointing.estimate_frame", total_p99=True, frac=True)
    timed("pointing.result_to_line")
    timed("pointing.angular_error_deg")
    for reason in REASONS:
        m[f"pointing.reason.{reason}"] = float(c.get(f"pointing.reason.{reason}", 0))

    timed("simulate.synthesize_frame", frac=True)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for nid, name in enumerate(tracer.names):
        layer_self[name.split(".", 1)[0]] += float(selfs[name_ids == nid].sum())
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    m["geometry.self_ms_total"] = layer_self["geometry"] * 1000.0
    m["reports.self_ms_total"] = layer_self["reports"] * 1000.0
    m["trace.wall_s"] = wall
    m["trace.spans"] = float(len(tracer.starts))
    m["trace.absent"] = float(len(absent))
    return m


def _ratio(counters: dict[str, float], prefix: str) -> float:
    seen = counters.get(f"{prefix}.samples_in", 0)
    return counters.get(f"{prefix}.samples_kept", 0) / seen if seen else 0.0
