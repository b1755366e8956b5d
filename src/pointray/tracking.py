"""Kalman smoothing of detections across frames and the goal commit gate.

The tracker runs one Kalman filter per detection track: a constant-velocity
(position, velocity) filter on each bbox center axis and a random walk on
each bbox size axis, written as closed-form scalar updates. Association is
greedy nearest neighbor on center distance within a gate radius, separately
per label.

The goal gate buffers the most recent goal points (30 by default, capped at
one second of age) and commits their mean once the buffer is full and the
positional sample-covariance trace falls below a threshold. A flag switches
the gated quantity to the pointing-direction (pitch, yaw) spread instead,
with yaw deviations taken around the circular mean so the +/-180 degree
seam is no blind spot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .frames import FRAME_RATE_HZ, BoundingBox, DetectionFrame
from .pointing import GoalPoint

GATE_MODE_GOAL = "goal"
GATE_MODE_DIRECTION = "direction"


@dataclass(frozen=True)
class TrackerParams:
    """Kalman and association tunables; defaults suit 640-px 30 Hz streams."""

    sigma_accel: float = 200.0  # px/s^2 white acceleration on the center
    sigma_meas: float = 4.0  # px measurement noise on center and size
    miss_limit: int = 5  # consecutive unmatched frames before a track dies
    image_width: int = 640
    gate_min_px: float = 30.0
    gate_max_px: float = 150.0
    init_speed_sigma: float = 200.0  # px/s prior uncertainty on velocity


def association_gate_px(params: TrackerParams, dt: float) -> float:
    gate = 0.5 * params.image_width * dt * 4.0
    return min(max(gate, params.gate_min_px), params.gate_max_px)


class Track:
    """One tracked detection: bbox center, center velocity and bbox size.

    H observes center and size, R is isotropic and Q acts on each axis
    alone, so the constant-velocity filter splits into one (position,
    velocity) filter per center axis and one random walk per size axis.
    The covariance never depends on the measurements, and every axis starts
    from the same prior, so both center axes share one 2x2 covariance
    ``[[p_pos, p_cross], [p_cross, p_vel]]`` and width and height share the
    variance ``p_size``.
    """

    def __init__(self, track_id: int, bbox: BoundingBox, params: TrackerParams):
        self.id = track_id
        self.label = bbox.label
        self.confidence = bbox.confidence
        self.misses = 0
        self.center = np.array(bbox.center)
        self.velocity = np.zeros(2)
        self.size = np.array([bbox.width, bbox.height])
        self.p_pos = self.p_size = params.sigma_meas**2
        self.p_cross = 0.0
        self.p_vel = params.init_speed_sigma**2
        self._params = params

    def predict(self, dt: float) -> None:
        sa2 = self._params.sigma_accel**2
        q_pos = 0.25 * dt**4 * sa2
        self.center = self.center + dt * self.velocity
        # F P F^T + Q with F = [[1, dt], [0, 1]], white-acceleration Q.
        self.p_pos += 2.0 * dt * self.p_cross + dt * dt * self.p_vel + q_pos
        self.p_cross += dt * self.p_vel + 0.5 * dt**3 * sa2
        self.p_vel += dt**2 * sa2
        # Sizes have no velocity state; a small random walk keeps them adaptive.
        self.p_size += q_pos

    def update(self, bbox: BoundingBox) -> None:
        r = self._params.sigma_meas**2
        s = self.p_pos + r
        k_pos = self.p_pos / s
        k_vel = self.p_cross / s
        innovation = np.array(bbox.center) - self.center
        self.center = self.center + k_pos * innovation
        self.velocity = self.velocity + k_vel * innovation
        # Joseph form (I - KH) P (I - KH)^T + K R K^T, written out per entry,
        # keeps the covariance PSD under roundoff.
        keep = 1.0 - k_pos
        p_pos, p_cross, p_vel = self.p_pos, self.p_cross, self.p_vel
        self.p_pos = keep * keep * p_pos + r * k_pos * k_pos
        self.p_cross = keep * (p_cross - k_vel * p_pos) + r * k_pos * k_vel
        self.p_vel = p_vel - 2.0 * k_vel * p_cross + k_vel * k_vel * p_pos + r * k_vel * k_vel
        k_size = self.p_size / (self.p_size + r)
        self.size = self.size + k_size * (np.array([bbox.width, bbox.height]) - self.size)
        self.p_size = (1.0 - k_size) ** 2 * self.p_size + r * k_size * k_size
        self.confidence = bbox.confidence
        self.misses = 0

    def bbox(self) -> BoundingBox:
        cu, cv = self.center
        w = max(self.size[0], 1e-6)
        h = max(self.size[1], 1e-6)
        return BoundingBox(
            cu - 0.5 * w, cv - 0.5 * h, cu + 0.5 * w, cv + 0.5 * h,
            self.label, self.confidence,
        )


@dataclass(frozen=True)
class TrackedDetection:
    """Smoothed stand-in for one input detection."""

    detection_index: int
    track_id: int
    bbox: BoundingBox


class DetectionTracker:
    """Bank of Kalman filters over face/hand detections.

    Stateful and single-threaded: frames must arrive in timestamp order from
    one caller. Output is invariant to the ordering of detections within a
    frame (they are canonically sorted before association).
    """

    def __init__(self, params: TrackerParams | None = None):
        self.params = params or TrackerParams()
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_t: float | None = None

    def smooth(self, frame: DetectionFrame) -> DetectionFrame:
        """Step on ``frame``'s detections and rebind each ROI to its smoothed
        bbox. dt is the gap to the previous frame, 1 / FRAME_RATE_HZ at first."""
        t = frame.timestamp
        dt = 1.0 / FRAME_RATE_HZ if self._last_t is None else t - self._last_t
        self._last_t = t
        face = [] if frame.face is None else [frame.face]
        rois = face + list(frame.hands)
        smoothed = self.step([roi.source_bbox for roi in rois], dt)
        rebound = [roi.with_bbox(tracked.bbox) for roi, tracked in zip(rois, smoothed)]
        return DetectionFrame(t, rebound[0] if face else None, tuple(rebound[len(face):]))

    def step(self, detections: list[BoundingBox], dt: float) -> list[TrackedDetection]:
        """Advance one frame; returns a smoothed bbox per input detection."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        for track in self.tracks:
            track.predict(dt)

        canonical = sorted(
            range(len(detections)),
            key=lambda i: (
                detections[i].label,
                detections[i].u_min,
                detections[i].v_min,
                detections[i].u_max,
                detections[i].v_max,
                -detections[i].confidence,
            ),
        )
        gate = association_gate_px(self.params, dt)
        pairs = []
        for rank, det_idx in enumerate(canonical):
            det = detections[det_idx]
            cu, cv = det.center
            for track in self.tracks:
                if track.label != det.label:
                    continue
                dist = float(np.hypot(track.center[0] - cu, track.center[1] - cv))
                if dist <= gate:
                    pairs.append((dist, track.id, rank, track, det_idx))
        pairs.sort(key=lambda p: (p[0], p[1], p[2]))

        matched_tracks: set[int] = set()
        matched_dets: set[int] = set()
        assignment: dict[int, Track] = {}
        for _, track_id, _, track, det_idx in pairs:
            if track_id in matched_tracks or det_idx in matched_dets:
                continue
            matched_tracks.add(track_id)
            matched_dets.add(det_idx)
            assignment[det_idx] = track

        survivors = []
        for track in self.tracks:
            if track.id not in matched_tracks:
                track.misses += 1
                if track.misses > self.params.miss_limit:
                    continue
            survivors.append(track)
        self.tracks = survivors

        results = []
        for det_idx in canonical:
            det = detections[det_idx]
            track = assignment.get(det_idx)
            if track is not None:
                track.update(det)
            else:
                track = Track(self._next_id, det, self.params)
                self._next_id += 1
                self.tracks.append(track)
            results.append(TrackedDetection(det_idx, track.id, track.bbox()))
        results.sort(key=lambda r: r.detection_index)
        return results


@dataclass(frozen=True)
class GateParams:
    """Commit rule: full window within the age limit, covariance below tau."""

    window: int = 30
    tau: float = 0.01  # m^2, trace of the goal (x, y) sample covariance
    max_age_s: float = 1.0
    mode: str = GATE_MODE_GOAL
    tau_angle: float = 4.0  # deg^2, trace over (pitch, yaw) in direction mode

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.tau <= 0 or self.tau_angle <= 0:
            raise ValueError("covariance thresholds must be positive")
        if self.max_age_s <= 0:
            raise ValueError(f"max_age_s must be positive, got {self.max_age_s}")
        if self.mode not in (GATE_MODE_GOAL, GATE_MODE_DIRECTION):
            raise ValueError(f"mode must be 'goal' or 'direction', got {self.mode!r}")


@dataclass(frozen=True)
class CommittedGoal:
    """A goal point the gate released for navigation."""

    timestamp: float
    x: float
    y: float
    cov_trace: float


@dataclass
class _GateEntry:
    t: float
    x: float
    y: float
    pitch_deg: float | None
    yaw_deg: float | None


@dataclass
class GoalGate:
    """Windowed covariance gate over per-frame goal points."""

    params: GateParams = field(default_factory=GateParams)

    def __post_init__(self) -> None:
        self._entries: deque[_GateEntry] = deque(maxlen=self.params.window)

    def __len__(self) -> int:
        return len(self._entries)

    def update(
        self,
        t: float,
        goal: GoalPoint | None,
        pitch_deg: float | None = None,
        yaw_deg: float | None = None,
    ) -> CommittedGoal | None:
        """Push this frame's goal (if any) and report a commitment if due.

        Entries older than the age limit are evicted first. After a commit
        the window clears, so each gesture commits at most once.
        """
        cutoff = t - self.params.max_age_s
        while self._entries and self._entries[0].t < cutoff:
            self._entries.popleft()
        if goal is not None:
            if self.params.mode == GATE_MODE_DIRECTION and (
                pitch_deg is None or yaw_deg is None
            ):
                raise ValueError("direction-mode gating needs pitch/yaw with each goal")
            self._entries.append(_GateEntry(t, goal.x, goal.y, pitch_deg, yaw_deg))
        if len(self._entries) < self.params.window:
            return None
        if self.params.mode == GATE_MODE_GOAL:
            xs = np.array([e.x for e in self._entries])
            ys = np.array([e.y for e in self._entries])
            trace = float(np.var(xs, ddof=1) + np.var(ys, ddof=1))
            threshold = self.params.tau
        else:
            ps = np.array([e.pitch_deg for e in self._entries], dtype=float)
            yws = np.array([e.yaw_deg for e in self._entries], dtype=float)
            trace = float(np.var(ps, ddof=1) + np.var(_yaw_deviations(yws), ddof=1))
            threshold = self.params.tau_angle
        if trace >= threshold:
            return None
        commit = CommittedGoal(
            timestamp=t,
            x=float(np.mean([e.x for e in self._entries])),
            y=float(np.mean([e.y for e in self._entries])),
            cov_trace=trace,
        )
        self._entries.clear()
        return commit


def _yaw_deviations(yaw_deg: np.ndarray) -> np.ndarray:
    """Yaw offsets from the circular mean, wrapped into [-180, 180).

    Yaw lives on a circle, so a linear spread would put the +/-180 seam
    between poses pointing back toward the camera (Mardia & Jupp,
    *Directional Statistics*).
    """
    rad = np.radians(yaw_deg)
    mean = np.degrees(np.arctan2(np.sin(rad).mean(), np.cos(rad).mean()))
    return (yaw_deg - mean + 180.0) % 360.0 - 180.0


def commit_to_dict(commit: CommittedGoal) -> dict:
    return {
        "t": commit.timestamp,
        "committed_goal": [commit.x, commit.y],
        "cov_trace": commit.cov_trace,
    }
