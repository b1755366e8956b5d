"""Kalman smoothing of detections across frames and the goal commit gate.

The tracker runs one Kalman filter per detection track: a constant-velocity
(position, velocity) filter on each bbox center axis and a random walk on
each bbox size axis, written as closed-form scalar updates. Association is
greedy nearest neighbor on center distance within a gate radius, separately
per label. ``step`` returns, in input order, the track each detection
updated or started, and ``smooth`` rebinds each ROI to its track's bbox
(an ROI whose smoothed box rounds to an empty one keeps its detected box).

The goal gate reads each frame's ``FrameResult``. It buffers the most
recent goal points with the pitch and yaw of their estimate (30 by
default, capped at one second of age) and commits their mean once the
buffer is full and the positional sample-covariance trace falls below a
threshold. A flag switches the gated quantity to the pointing-direction
(pitch, yaw) spread instead, with yaw deviations taken around the circular
mean so the +/-180 degree seam is no blind spot.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .frames import FRAME_RATE_HZ, BoundingBox, DetectionFrame, FrameFormatError, RoiPointSet
from .geometry import check_fields
from .pointing import FrameResult

GATE_MODE_GOAL = "goal"
GATE_MODE_DIRECTION = "direction"

# association gate radius bounds, px
GATE_MIN_PX = 30.0
GATE_MAX_PX = 150.0
INIT_SPEED_SIGMA = 200.0  # px/s prior uncertainty on a new track's velocity


@dataclass(frozen=True)
class TrackerParams:
    """Kalman and association tunables; defaults suit 640-px 30 Hz streams."""

    sigma_accel: float = 200.0  # px/s^2 white acceleration on the center
    sigma_meas: float = 4.0  # px measurement noise on center and size
    miss_limit: int = 5  # consecutive unmatched frames before a track dies
    image_width: int = 640

    def __post_init__(self) -> None:
        check_fields(self, sigma_accel="[0, inf)", sigma_meas="(0, inf)", miss_limit="[0, inf)",
                     image_width="[1, inf)")


def association_gate_px(params: TrackerParams, dt: float) -> float:
    gate = 0.5 * params.image_width * dt * 4.0
    return min(max(gate, GATE_MIN_PX), GATE_MAX_PX)


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
        self.center = bbox.center
        self.velocity = (0.0, 0.0)
        self.size = (bbox.width, bbox.height)
        self.p_pos = self.p_size = params.sigma_meas**2
        self.p_cross = 0.0
        self.p_vel = INIT_SPEED_SIGMA**2
        self._params = params

    def predict(self, dt: float) -> None:
        """Advance the state by ``dt`` seconds. Raises OverflowError, leaving
        the track as it was, when the covariance would not fit in a float."""
        sa2 = self._params.sigma_accel**2
        q_pos = 0.25 * dt**4 * sa2
        # F P F^T + Q with F = [[1, dt], [0, 1]], white-acceleration Q.
        p_pos = self.p_pos + (2.0 * dt * self.p_cross + dt * dt * self.p_vel + q_pos)
        p_cross = self.p_cross + (dt * self.p_vel + 0.5 * dt**3 * sa2)
        p_vel = self.p_vel + dt**2 * sa2
        # Sizes have no velocity state; a small random walk keeps them adaptive.
        p_size = self.p_size + q_pos
        if not all(map(math.isfinite, (p_pos, p_cross, p_vel, p_size))):
            raise OverflowError(f"track covariance overflows over a {dt} s gap")
        (cu, cv), (vu, vv) = self.center, self.velocity
        self.center = (cu + dt * vu, cv + dt * vv)
        self.p_pos, self.p_cross, self.p_vel, self.p_size = p_pos, p_cross, p_vel, p_size

    def update(self, bbox: BoundingBox) -> None:
        r = self._params.sigma_meas**2
        s = self.p_pos + r
        k_pos = self.p_pos / s
        k_vel = self.p_cross / s
        (cu, cv), (vu, vv), (bu, bv) = self.center, self.velocity, bbox.center
        du, dv = bu - cu, bv - cv
        self.center = (cu + k_pos * du, cv + k_pos * dv)
        self.velocity = (vu + k_vel * du, vv + k_vel * dv)
        # Joseph form (I - KH) P (I - KH)^T + K R K^T, written out per entry,
        # keeps the covariance PSD under roundoff.
        keep = 1.0 - k_pos
        p_pos, p_cross, p_vel = self.p_pos, self.p_cross, self.p_vel
        self.p_pos = keep * keep * p_pos + r * k_pos * k_pos
        self.p_cross = keep * (p_cross - k_vel * p_pos) + r * k_pos * k_vel
        self.p_vel = p_vel - 2.0 * k_vel * p_cross + k_vel * k_vel * p_pos + r * k_vel * k_vel
        k_size = self.p_size / (self.p_size + r)
        w, h = self.size
        self.size = (w + k_size * (bbox.width - w), h + k_size * (bbox.height - h))
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
        tracks = self.step([roi.source_bbox for roi in rois], dt)
        rebound = [_rebind(roi, track) for roi, track in zip(rois, tracks)]
        return DetectionFrame(t, rebound[0] if face else None, tuple(rebound[len(face):]))

    def step(self, detections: list[BoundingBox], dt: float) -> list[Track]:
        """Advance one frame; returns, in input order, the track each
        detection updated or started."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        try:
            for track in self.tracks:
                track.predict(dt)
        except OverflowError:
            # nothing is known after such a gap: the detections start new tracks
            self.tracks = []

        def canonical_key(i: int) -> tuple:
            d = detections[i]
            return (d.label, d.u_min, d.v_min, d.u_max, d.v_max, -d.confidence)

        canonical = sorted(range(len(detections)), key=canonical_key)
        gate = association_gate_px(self.params, dt)
        pairs = []
        for rank, det_idx in enumerate(canonical):
            det = detections[det_idx]
            cu, cv = det.center
            for track in self.tracks:
                if track.label != det.label:
                    continue
                # np.hypot: math.hypot rounds some pairs differently, and dist orders the matches
                dist = float(np.hypot(track.center[0] - cu, track.center[1] - cv))
                if dist <= gate:
                    pairs.append((dist, track.id, rank, track, det_idx))
        pairs.sort(key=lambda p: (p[0], p[1], p[2]))

        matched_tracks: set[int] = set()
        assignment: dict[int, Track] = {}  # detection index -> its track
        for _, track_id, _, track, det_idx in pairs:
            if track_id in matched_tracks or det_idx in assignment:
                continue
            matched_tracks.add(track_id)
            assignment[det_idx] = track

        survivors = []
        for track in self.tracks:
            if track.id not in matched_tracks:
                track.misses += 1
                if track.misses > self.params.miss_limit:
                    continue
            survivors.append(track)
        self.tracks = survivors

        for det_idx in canonical:
            det = detections[det_idx]
            track = assignment.get(det_idx)
            if track is not None:
                track.update(det)
            else:
                track = Track(self._next_id, det, self.params)
                self._next_id += 1
                self.tracks.append(track)
                assignment[det_idx] = track
        return [assignment[i] for i in range(len(detections))]


def _rebind(roi: RoiPointSet, track: Track) -> RoiPointSet:
    """``roi`` on its track's bbox, or on its own where the smoothed box rounds
    to an empty one (far from the origin a float's step can exceed its width)."""
    try:
        bbox = track.bbox()
    except FrameFormatError:
        return roi
    return roi.with_bbox(bbox)


@dataclass(frozen=True)
class GateParams:
    """Commit rule: full window within the age limit, covariance below tau."""

    window: int = 30
    tau: float = 0.01  # m^2, trace of the goal (x, y) sample covariance
    max_age_s: float = 1.0
    mode: str = GATE_MODE_GOAL
    tau_angle: float = 4.0  # deg^2, trace over (pitch, yaw) in direction mode

    def __post_init__(self) -> None:
        # a window of at least 2, as a sample covariance needs two goals
        check_fields(self, window="[2, inf)", tau="(0, inf)", tau_angle="(0, inf)",
                     max_age_s="(0, inf)")
        if self.mode not in (GATE_MODE_GOAL, GATE_MODE_DIRECTION):
            raise ValueError(f"mode: must be 'goal' or 'direction', got {self.mode!r}")


@dataclass(frozen=True)
class CommittedGoal:
    """A goal point the gate released for navigation."""

    timestamp: float
    goal: tuple[float, float]  # world (X, Y), the window's mean
    cov_trace: float


@dataclass
class GoalGate:
    """Windowed covariance gate over per-frame goal points."""

    params: GateParams = field(default_factory=GateParams)

    def __post_init__(self) -> None:
        # (t, x, y, pitch_deg, yaw_deg) of each buffered goal
        self._entries: deque[tuple[float, ...]] = deque(maxlen=self.params.window)

    def update(self, result: FrameResult) -> CommittedGoal | None:
        """Push this frame's goal (if any) and report a commitment if due.

        Entries older than the age limit are evicted first. After a commit
        the window clears, so each gesture commits at most once.
        """
        t = result.timestamp
        cutoff = t - self.params.max_age_s
        while self._entries and self._entries[0][0] < cutoff:
            self._entries.popleft()
        if result.goal is not None:  # a goal comes with the estimate it was cast from
            (x, y), est = result.goal, result.estimate
            self._entries.append((t, x, y, est.pitch_deg, est.yaw_deg))
        n = len(self._entries)
        if n < self.params.window:
            return None
        entries = np.fromiter(chain.from_iterable(self._entries), float, 5 * n).reshape(n, 5)
        xs, ys = entries[:, 1], entries[:, 2]
        if self.params.mode == GATE_MODE_GOAL:
            trace = float(np.var(xs, ddof=1) + np.var(ys, ddof=1))
            threshold = self.params.tau
        else:
            pitches, yaws = entries[:, 3], entries[:, 4]
            trace = float(np.var(pitches, ddof=1) + np.var(_yaw_deviations(yaws), ddof=1))
            threshold = self.params.tau_angle
        if trace >= threshold:
            return None
        self._entries.clear()
        return CommittedGoal(t, (float(np.mean(xs)), float(np.mean(ys))), trace)


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
        "committed_goal": commit.goal,
        "cov_trace": commit.cov_trace,
    }
