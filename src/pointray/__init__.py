"""Pointing-gesture geometry from face/hand detections with sparse depth.

Per-frame face/hand bounding boxes plus sparse depth samples go in; 3D
pointing vectors, pitch/yaw angles, and ground-plane goal points come out.
Includes depth outlier rejection (center-circle mask and 1-D DBSCAN),
Kalman smoothing of detections, a covariance gate for goal commitment, and
a synthetic RGB-D scene simulator with exact ground truth.
"""

from .frames import (
    BoundingBox,
    DetectionFrame,
    FrameFormatError,
    RoiPointSet,
    frame_to_dict,
    frame_to_line,
    parse_frame,
    read_frames,
)
from .geometry import (
    CameraIntrinsics,
    default_intrinsics,
    deproject,
    project,
)
from .pointing import (
    EstimatorParams,
    FrameResult,
    GoalPoint,
    PointingEstimate,
    estimate_frame,
    pointing_angles,
    select_pointing_hand,
)
from .roi import (
    DepthCluster,
    KeypointStrategy,
    cobb_filter,
    dbscan_depth,
    estimate_keypoint,
    select_target_cluster,
)
from .simulate import (
    GroundTruth,
    NoiseModel,
    Scenario,
    SubjectModel,
    default_scenario,
    run_experiment_a,
    run_experiment_b,
    synthesize_frame,
)
from .tracking import DetectionTracker, GateParams, GoalGate, TrackerParams

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "CameraIntrinsics",
    "DepthCluster",
    "DetectionFrame",
    "DetectionTracker",
    "EstimatorParams",
    "FrameFormatError",
    "FrameResult",
    "GateParams",
    "GoalGate",
    "GoalPoint",
    "GroundTruth",
    "KeypointStrategy",
    "NoiseModel",
    "PointingEstimate",
    "RoiPointSet",
    "Scenario",
    "SubjectModel",
    "TrackerParams",
    "cobb_filter",
    "dbscan_depth",
    "default_intrinsics",
    "default_scenario",
    "deproject",
    "estimate_frame",
    "estimate_keypoint",
    "frame_to_dict",
    "frame_to_line",
    "parse_frame",
    "pointing_angles",
    "project",
    "read_frames",
    "run_experiment_a",
    "run_experiment_b",
    "select_pointing_hand",
    "select_target_cluster",
    "synthesize_frame",
    "__version__",
]
