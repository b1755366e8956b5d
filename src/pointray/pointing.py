"""Per-frame pointing estimation: hand choice, eye-to-hand vector, floor goal.

The pointing ray starts at the face keypoint (eye proxy) and passes through
the hand keypoint. Angles follow a fixed convention: yaw is measured from
the world forward axis (+Y), positive clockwise seen from above; pitch is
positive when pointing downward. The goal point is the ray's intersection
with the ground plane Z = 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frames import DetectionFrame, RoiPointSet, dumps_line
from .geometry import CameraIntrinsics, check_fields
from .roi import (
    DEFAULT_COBB_RATIO,
    DEFAULT_DBSCAN_EPS,
    DEFAULT_DBSCAN_MIN_PTS,
    REASON_NO_FACE,
    REASON_NO_GROUND_HIT,
    REASON_NO_HAND,
    KeypointStrategy,
    NoEstimate,
    cobb_filter,
    estimate_keypoint,
)

# Rays this close to horizontal return no intersection instead of a goal
# kilometers away.
MIN_DESCENT = 1e-6


@dataclass(frozen=True)
class EstimatorParams:
    """Tunables of the per-frame pipeline (strategy is passed separately)."""

    cobb_ratio: float = DEFAULT_COBB_RATIO
    dbscan_eps: float = DEFAULT_DBSCAN_EPS
    dbscan_min_pts: int = DEFAULT_DBSCAN_MIN_PTS

    def __post_init__(self) -> None:
        check_fields(self, cobb_ratio="(0, 0.5]", dbscan_eps="(0, inf)", dbscan_min_pts="[1, inf)")


@dataclass(frozen=True, eq=False)
class PointingEstimate:
    """One frame's pointing vector in world coordinates."""

    face_kp: tuple[float, float, float]  # world (X, Y, Z)
    hand_kp: tuple[float, float, float]
    direction: tuple[float, float, float]  # face_kp - hand_kp, unnormalized
    pitch_deg: float
    yaw_deg: float


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one frame: an estimate and/or a machine-readable reason."""

    timestamp: float
    estimate: PointingEstimate | None
    goal: tuple[float, float] | None  # world (X, Y) on the ground plane Z = 0
    reason: str | None


def select_pointing_hand(hands: Sequence[RoiPointSet]) -> RoiPointSet:
    """Pick the hand whose bbox is topmost in the image (smallest v_min).

    Ties fall back to higher confidence, then to the leftmost box.
    """
    if not hands:
        raise NoEstimate(REASON_NO_HAND, "no hand detections in frame")
    return min(hands, key=lambda h: (h.source_bbox.v_min, -h.source_bbox.confidence,
                                     h.source_bbox.u_min))


def ray_angles(ray) -> tuple[float, float]:
    """Pitch/yaw of a world-frame ray direction.

    Yaw 0 is the world forward axis (+Y), positive clockwise from above;
    pitch is positive downward. A straight-down ray has yaw 0 by convention.
    A zero-length ray (coincident keypoints) meets nothing: ``no_ground_hit``.
    """
    dx, dy, dz = ray
    horizontal = math.hypot(dx, dy)
    if horizontal == 0.0 and dz == 0.0:
        raise NoEstimate(REASON_NO_GROUND_HIT, "zero-length direction vector")
    yaw = 0.0 if horizontal == 0.0 else math.degrees(math.atan2(dx, dy))
    if yaw == -180.0:
        yaw = 180.0
    pitch = math.degrees(math.atan2(-dz, horizontal))
    return pitch, yaw


def ground_intersection_world(face_kp, hand_kp) -> tuple[float, float] | None:
    """Intersect the eye-through-hand ray with the ground plane Z = 0.

    Requires the face to sit above the hand in world height so the ray
    descends; a level or ascending ray returns ``None``.
    """
    (fx, fy, fz), (hx, hy, hz) = face_kp, hand_kp
    pz = fz - hz
    if pz < MIN_DESCENT:
        return None
    t = fz / pz
    return fx - t * (fx - hx), fy - t * (fy - hy)


def estimate_strategies(
    frame: DetectionFrame,
    strategies: Sequence[KeypointStrategy],
    params: EstimatorParams,
    intr: CameraIntrinsics,
) -> list[FrameResult]:
    """Score one frame under each strategy, one result each in the order
    given; never raises on degenerate frames.

    The face check, the hand choice and the center-circle mask of the face
    and the chosen hand run once: the mask only when ``mean``, ``median`` or
    ``closest`` is asked for, as ``dbscan`` clusters the raw ROIs. A failed
    step gives its reason to every strategy that depends on it: ``no_face``,
    ``no_hand``, ``empty_roi``, ``no_cluster`` (estimate absent) or
    ``no_ground_hit`` (goal absent; the estimate too if the keypoints coincide).
    """
    t = frame.timestamp
    if frame.face is None:
        return [FrameResult(t, None, None, REASON_NO_FACE)] * len(strategies)
    try:
        hand = select_pointing_hand(frame.hands)
    except NoEstimate as exc:
        return [FrameResult(t, None, None, exc.reason)] * len(strategies)
    raw = (frame.face, hand)
    masked: tuple[RoiPointSet, RoiPointSet] | str = raw  # the reason if the mask empties one
    if any(s is not KeypointStrategy.DBSCAN_CLUSTER for s in strategies):
        try:
            masked = (cobb_filter(frame.face, params.cobb_ratio),
                      cobb_filter(hand, params.cobb_ratio))
        except NoEstimate as exc:
            masked = exc.reason
    eps, min_pts = params.dbscan_eps, params.dbscan_min_pts  # read by dbscan alone
    results = []
    for strategy in strategies:
        rois = raw if strategy is KeypointStrategy.DBSCAN_CLUSTER else masked
        if isinstance(rois, str):
            results.append(FrameResult(t, None, None, rois))
            continue
        try:
            face_kp = estimate_keypoint(rois[0], strategy, intr, eps=eps, min_pts=min_pts)
            hand_kp = estimate_keypoint(rois[1], strategy, intr, eps=eps, min_pts=min_pts)
            direction = tuple(map(operator.sub, face_kp, hand_kp))
            # negated rather than hand_kp - face_kp, so that equal x gives yaw -0.0
            pitch, yaw = ray_angles([-c for c in direction])
        except NoEstimate as exc:
            results.append(FrameResult(t, None, None, exc.reason))
            continue
        estimate = PointingEstimate(face_kp, hand_kp, direction, pitch, yaw)
        goal = ground_intersection_world(face_kp, hand_kp)
        results.append(
            FrameResult(t, estimate, goal, REASON_NO_GROUND_HIT if goal is None else None)
        )
    return results


def estimate_frame(
    frame: DetectionFrame,
    strategy: KeypointStrategy,
    params: EstimatorParams,
    intr: CameraIntrinsics,
) -> FrameResult:
    """Run the full per-frame pipeline under one strategy; never raises on
    degenerate frames. The one-strategy case of :func:`estimate_strategies`."""
    return estimate_strategies(frame, (strategy,), params, intr)[0]


def result_to_dict(result: FrameResult) -> dict:
    """Serialize a frame result into the estimate-record schema."""
    est = result.estimate
    return {
        "t": result.timestamp,
        "face": None if est is None else est.face_kp,
        "hand": None if est is None else est.hand_kp,
        "pitch_deg": None if est is None else est.pitch_deg,
        "yaw_deg": None if est is None else est.yaw_deg,
        "goal": result.goal,
        "reason": result.reason,
    }


def result_to_line(result: FrameResult) -> str:
    return dumps_line(result_to_dict(result))


def angular_error_deg(direction, true_ray) -> float:
    """Angle in degrees between the estimated pointing ray and a reference ray.

    ``direction`` is the face-minus-hand vector of an estimate; ``true_ray``
    points from the eye toward the target.
    """
    est = -np.asarray(direction, dtype=float)
    ref = np.asarray(true_ray, dtype=float)
    # a 1-D np.linalg.norm(x) is sqrt(x.dot(x)): these are its zero test and
    # its bits, without its wrapper
    if not (est.dot(est) and ref.dot(ref)):
        raise ValueError("zero-length ray in angular error")
    # atan2 of cross/dot keeps full precision near zero angle, unlike acos.
    # The cross product's components are np.cross's own products, in
    # scalars: np.cross costs most of this function on a 3-vector.
    (ex, ey, ez), (rx, ry, rz) = est.tolist(), ref.tolist()
    c = np.array((ey * rz - ez * ry, ez * rx - ex * rz, ex * ry - ey * rx))
    return math.degrees(math.atan2(math.sqrt(c.dot(c)), est.dot(ref)))
