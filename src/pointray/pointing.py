"""Per-frame pointing estimation: hand choice, eye-to-hand vector, floor goal.

The pointing ray starts at the face keypoint (eye proxy) and passes through
the hand keypoint. Angles follow a fixed convention: yaw is measured from
the world forward axis (+Y), positive clockwise seen from above; pitch is
positive when pointing downward. The goal point is the ray's intersection
with the ground plane Z = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frames import BoundingBox, DetectionFrame, RoiPointSet
from .geometry import CameraIntrinsics, GeometryError
from .roi import (
    DEFAULT_COBB_RATIO,
    DEFAULT_DBSCAN_EPS,
    DEFAULT_DBSCAN_MIN_PTS,
    EmptyRoiError,
    KeypointStrategy,
    NoTargetClusterError,
    cobb_filter,
    estimate_keypoint,
)

# Reason codes attached to frames that yield no estimate or no goal.
REASON_NO_FACE = "no_face"
REASON_NO_HAND = "no_hand"
REASON_EMPTY_ROI = "empty_roi"
REASON_NO_CLUSTER = "no_cluster"
REASON_NO_GROUND_HIT = "no_ground_hit"

# Rays this close to horizontal return no intersection instead of a goal
# kilometers away.
MIN_DESCENT = 1e-6


class NoHandError(Exception):
    """Frame contains no hand detections."""


class NoGroundIntersectionError(Exception):
    """Pointing ray is level or ascending; it never meets the ground plane."""


class DegenerateDirectionError(GeometryError):
    """Face and hand keypoints coincide; the pointing direction is undefined."""


@dataclass(frozen=True)
class EstimatorParams:
    """Tunables of the per-frame pipeline (strategy is passed separately)."""

    cobb_ratio: float = DEFAULT_COBB_RATIO
    dbscan_eps: float = DEFAULT_DBSCAN_EPS
    dbscan_min_pts: int = DEFAULT_DBSCAN_MIN_PTS

    def __post_init__(self) -> None:
        if not 0.0 < self.cobb_ratio <= 0.5:
            raise ValueError(f"cobb_ratio must lie in (0, 0.5], got {self.cobb_ratio}")
        if not self.dbscan_eps > 0:
            raise ValueError(f"dbscan_eps must be positive, got {self.dbscan_eps}")
        if self.dbscan_min_pts < 1:
            raise ValueError(f"dbscan_min_pts must be >= 1, got {self.dbscan_min_pts}")


@dataclass(frozen=True, eq=False)
class PointingEstimate:
    """One frame's pointing vector in world coordinates."""

    face_kp: np.ndarray  # world (X, Y, Z)
    hand_kp: np.ndarray
    direction: tuple[float, float, float]  # face_kp - hand_kp, unnormalized
    pitch_deg: float
    yaw_deg: float


@dataclass(frozen=True)
class GoalPoint:
    """Ground-plane intersection of the pointing ray (world frame, Z = 0)."""

    x: float
    y: float


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one frame: an estimate and/or a machine-readable reason."""

    timestamp: float
    estimate: PointingEstimate | None
    goal: GoalPoint | None
    reason: str | None


def select_pointing_hand(hands: Sequence[BoundingBox]) -> BoundingBox:
    """Pick the topmost hand in the image (smallest v_min).

    Ties fall back to higher confidence, then to the leftmost box.
    """
    if not hands:
        raise NoHandError("no hand detections in frame")
    return min(hands, key=lambda b: (b.v_min, -b.confidence, b.u_min))


def ray_angles(ray) -> tuple[float, float]:
    """Pitch/yaw of a world-frame ray direction.

    Yaw 0 is the world forward axis (+Y), positive clockwise from above;
    pitch is positive downward. A straight-down ray has yaw 0 by convention.
    """
    dx, dy, dz = (float(c) for c in ray)
    horizontal = math.hypot(dx, dy)
    if horizontal == 0.0 and dz == 0.0:
        raise DegenerateDirectionError("zero-length direction vector")
    yaw = 0.0 if horizontal == 0.0 else math.degrees(math.atan2(dx, dy))
    if yaw == -180.0:
        yaw = 180.0
    pitch = math.degrees(math.atan2(-dz, horizontal))
    return pitch, yaw


def pointing_angles(direction) -> tuple[float, float]:
    """Angles of the pointing ray for a face-minus-hand direction vector."""
    dx, dy, dz = (float(c) for c in direction)
    return ray_angles((-dx, -dy, -dz))


def ground_intersection_world(face_kp: np.ndarray, hand_kp: np.ndarray) -> GoalPoint:
    """Intersect the eye-through-hand ray with the ground plane Z = 0.

    Requires the face to sit above the hand in world height so the ray
    descends; level or ascending rays raise
    :class:`NoGroundIntersectionError`.
    """
    p = face_kp - hand_kp
    if p[2] < MIN_DESCENT:
        raise NoGroundIntersectionError(
            f"pointing ray does not descend (face-hand height difference {p[2]:.4g} m)"
        )
    t = face_kp[2] / p[2]
    return GoalPoint(face_kp[0] - t * p[0], face_kp[1] - t * p[1])


def _roi_keypoint(
    roi: RoiPointSet,
    strategy: KeypointStrategy,
    params: EstimatorParams,
    intr: CameraIntrinsics,
) -> np.ndarray:
    if strategy is KeypointStrategy.DBSCAN_CLUSTER:
        return estimate_keypoint(
            roi, strategy, intr, eps=params.dbscan_eps, min_pts=params.dbscan_min_pts
        )
    filtered = cobb_filter(roi, params.cobb_ratio)
    return estimate_keypoint(filtered, strategy, intr)


def estimate_frame(
    frame: DetectionFrame,
    strategy: KeypointStrategy,
    params: EstimatorParams,
    intr: CameraIntrinsics,
) -> FrameResult:
    """Run the full per-frame pipeline; never raises on degenerate frames.

    Every failure mode is reported through ``FrameResult.reason``:
    ``no_face``, ``no_hand``, ``empty_roi``, ``no_cluster`` (estimate absent)
    or ``no_ground_hit`` (estimate present, goal absent).
    """
    t = frame.timestamp
    if frame.face is None:
        return FrameResult(t, None, None, REASON_NO_FACE)
    if not frame.hands:
        return FrameResult(t, None, None, REASON_NO_HAND)
    hand_bbox = select_pointing_hand([h.source_bbox for h in frame.hands])
    hand = next(h for h in frame.hands if h.source_bbox is hand_bbox)
    try:
        face_kp = _roi_keypoint(frame.face, strategy, params, intr)
        hand_kp = _roi_keypoint(hand, strategy, params, intr)
    except EmptyRoiError:
        return FrameResult(t, None, None, REASON_EMPTY_ROI)
    except NoTargetClusterError:
        return FrameResult(t, None, None, REASON_NO_CLUSTER)

    direction = tuple(face_kp - hand_kp)
    try:
        pitch, yaw = pointing_angles(direction)
    except DegenerateDirectionError:
        # Coincident keypoints: no usable ray, hence nothing to intersect.
        return FrameResult(t, None, None, REASON_NO_GROUND_HIT)
    estimate = PointingEstimate(face_kp, hand_kp, direction, pitch, yaw)
    try:
        goal = ground_intersection_world(face_kp, hand_kp)
    except NoGroundIntersectionError:
        return FrameResult(t, estimate, None, REASON_NO_GROUND_HIT)
    return FrameResult(t, estimate, goal, None)


def result_to_dict(result: FrameResult) -> dict:
    """Serialize a frame result into the estimate-record schema."""
    est = result.estimate
    return {
        "t": result.timestamp,
        "face": None if est is None else est.face_kp.tolist(),
        "hand": None if est is None else est.hand_kp.tolist(),
        "pitch_deg": None if est is None else est.pitch_deg,
        "yaw_deg": None if est is None else est.yaw_deg,
        "goal": None if result.goal is None else [result.goal.x, result.goal.y],
        "reason": result.reason,
    }


def result_to_line(result: FrameResult) -> str:
    return json.dumps(result_to_dict(result), separators=(",", ":"))


def angular_error_deg(direction, true_ray) -> float:
    """Angle in degrees between the estimated pointing ray and a reference ray.

    ``direction`` is the face-minus-hand vector of an estimate; ``true_ray``
    points from the eye toward the target.
    """
    est = -np.asarray(direction, dtype=float)
    ref = np.asarray(true_ray, dtype=float)
    if not (np.linalg.norm(est) and np.linalg.norm(ref)):
        raise DegenerateDirectionError("zero-length ray in angular error")
    # atan2 of cross/dot keeps full precision near zero angle, unlike acos
    cross = float(np.linalg.norm(np.cross(est, ref)))
    dot = float(np.dot(est, ref))
    return math.degrees(math.atan2(cross, dot))
