"""Synthetic RGB-D scene generator with exact analytic ground truth.

Emulates the upstream detector + depth sensor: a standing subject is placed
at a (range, bearing) pose, points along a requested direction or at a floor
target, and the frame synthesizer emits face/hand bounding boxes filled with
sparse depth samples. Sensor imperfections follow a stereo-style model:
depth noise growing with z^2, sample counts shrinking with 1/z^2, per-sample
dropout ramping up beyond the sensor's comfortable range, plus a fraction of
background samples from a wall plane behind the subject and pixel jitter on
the boxes.

All randomness flows from one scenario seed; each grid cell derives its own
generator from (seed, stream, cell index) so serial and parallel runs agree
bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .frames import FACE, FRAME_RATE_HZ, HAND, BoundingBox, DetectionFrame, RoiPointSet
from .geometry import CameraIntrinsics, project
from .pointing import EstimatorParams, angular_error_deg, estimate_frame, ray_angles
from .roi import KeypointStrategy

WALL_OFFSET_M = 1.5  # background wall sits this far behind the subject
FACE_SIZE_M = (0.18, 0.24)  # physical width, height
HAND_SIZE_M = (0.16, 0.16)
BBOX_MARGIN = 1.35  # detector boxes run slightly larger than the object
FG_DISC_RATIO = 0.30  # surface samples stay nearer the center than the mask radius

_STREAM_EXPERIMENT_A = 0
_STREAM_EXPERIMENT_B = 1
_STREAM_LOG = 2


class ScenarioError(ValueError):
    """Scenario failed validation; ``errors`` lists the offending fields."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class PoseUnrenderableError(ValueError):
    """Subject geometry does not project inside the image for this pose."""


@dataclass(frozen=True)
class NoiseModel:
    """Sensor imperfection model; all parameters are per-run constants."""

    sigma0: float = 0.004  # depth noise sigma(z) = sigma0 * z^2, in 1/m
    n0: float = 240.0  # samples per ROI: max(n_min, round(n0 / z^2))
    n_min: int = 3
    p_drop_max: float = 0.75
    dropout_start_m: float = 2.8
    dropout_end_m: float = 5.5
    beta: float = 0.15  # background contamination fraction
    bbox_jitter_px: float = 2.0

    def __post_init__(self) -> None:
        if self.sigma0 < 0 or self.n0 <= 0 or self.n_min < 1:
            raise ValueError("sigma0 >= 0, n0 > 0 and n_min >= 1 required")
        if not 0.0 <= self.p_drop_max <= 1.0:
            raise ValueError(f"p_drop_max must lie in [0, 1], got {self.p_drop_max}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.bbox_jitter_px < 0:
            raise ValueError("bbox_jitter_px must be >= 0")
        if self.dropout_end_m <= self.dropout_start_m:
            raise ValueError("dropout_end_m must exceed dropout_start_m")

    def sigma(self, z: float) -> float:
        return self.sigma0 * z * z

    def sample_count(self, z: float) -> int:
        return max(self.n_min, int(round(self.n0 / (z * z))))

    def p_drop(self, z: float) -> float:
        if z <= self.dropout_start_m:
            return 0.0
        frac = (z - self.dropout_start_m) / (self.dropout_end_m - self.dropout_start_m)
        return self.p_drop_max * min(frac, 1.0)

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(sigma0=0.0, p_drop_max=0.0, beta=0.0, bbox_jitter_px=0.0)


@dataclass(frozen=True)
class SubjectModel:
    """Standing-human geometry for pose synthesis.

    The fingertip is placed on the requested eye-origin ray at the reach the
    arm allows: with the shoulder ``shoulder_drop`` below the eye, the
    distance along the ray solves |eye + lambda*dir - shoulder| = arm_length.
    """

    height: float = 1.75
    eye_height: float = 1.62
    shoulder_drop: float = 0.25
    arm_length: float = 0.60

    def __post_init__(self) -> None:
        if not 0 < self.eye_height <= self.height:
            raise ValueError("eye_height must be positive and at most the height")
        if not 0 < self.shoulder_drop < self.arm_length:
            raise ValueError("need 0 < shoulder_drop < arm_length")

    def reach_along(self, ray_unit: np.ndarray) -> float:
        uz = float(ray_unit[2])
        b = uz * self.shoulder_drop
        disc = b * b + self.arm_length**2 - self.shoulder_drop**2
        return -b + math.sqrt(disc)


@dataclass(frozen=True)
class Scenario:
    """Grid of subject poses and pointing tasks driving the experiments."""

    subject: SubjectModel = field(default_factory=SubjectModel)
    positions: tuple[tuple[float, float], ...] = ()  # (range_m, bearing_deg)
    directions: tuple[tuple[float, float], ...] = ()  # (pitch_deg, yaw_deg)
    floor_targets: tuple[tuple[float, float], ...] = ()  # world (x, y)
    frames_per_pose: int = 60
    seed: int = 42
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self) -> None:
        for name in ("positions", "directions", "floor_targets"):
            object.__setattr__(self, name, tuple(tuple(p) for p in getattr(self, name)))

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            subject=SubjectModel(**data.get("subject", {})),
            positions=data.get("positions", ()),
            directions=data.get("directions", ()),
            floor_targets=data.get("floor_targets", ()),
            frames_per_pose=int(data.get("frames_per_pose", 60)),
            seed=int(data.get("seed", 42)),
            noise=NoiseModel(**data.get("noise", {})),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    def noiseless(self) -> "Scenario":
        return replace(self, noise=NoiseModel.noiseless())


def default_scenario() -> Scenario:
    """Bundled 25-position x 4-direction grid with 3 floor targets."""
    text = resources.files("pointray").joinpath("data/scenario_default.json").read_text("utf-8")
    return Scenario.from_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Analytic truth for one synthesized frame."""

    eye: np.ndarray  # world (X, Y, Z)
    fingertip: np.ndarray
    pitch_deg: float
    yaw_deg: float
    goal: tuple[float, float] | None  # ground-plane hit, None when not descending
    ray: tuple[float, float, float]  # unit direction eye -> fingertip


def direction_unit(pitch_deg: float, yaw_deg: float) -> np.ndarray:
    """World-frame unit vector for a pitch (down positive) / yaw pair."""
    pitch = math.radians(pitch_deg)
    yaw = math.radians(yaw_deg)
    ch = math.cos(pitch)
    return np.array([math.sin(yaw) * ch, math.cos(yaw) * ch, -math.sin(pitch)])


def _pose_geometry(
    subject: SubjectModel,
    position: tuple[float, float],
    direction: tuple[float, float] | None = None,
    target: tuple[float, float] | None = None,
) -> GroundTruth:
    if (direction is None) == (target is None):
        raise ValueError("exactly one of direction or target must be given")
    range_m, bearing_deg = position
    if range_m <= 0:
        raise ValueError(f"range must be positive, got {range_m}")
    b = math.radians(bearing_deg)
    eye = np.array([range_m * math.sin(b), range_m * math.cos(b), subject.eye_height])
    if direction is not None:
        unit = direction_unit(*direction)
    else:
        tx, ty = target
        to_target = np.array([tx - eye[0], ty - eye[1], -eye[2]])
        unit = to_target / np.linalg.norm(to_target)
    reach = subject.reach_along(unit)
    fingertip = eye + reach * unit
    pitch, yaw = ray_angles(unit)
    if unit[2] < -1e-12:
        s = eye[2] / -unit[2]
        goal = (float(eye[0] + s * unit[0]), float(eye[1] + s * unit[1]))
    else:
        goal = None
    return GroundTruth(
        eye=eye,
        fingertip=fingertip,
        pitch_deg=pitch,
        yaw_deg=yaw,
        goal=goal,
        ray=tuple(map(float, unit)),
    )


def _roi_layout(
    center_world: np.ndarray,
    phys_size: tuple[float, float],
    label: str,
    noise: NoiseModel,
    intr: CameraIntrinsics,
) -> tuple[float, float, float, float, float]:
    """Project an object center; returns (u, v, z, bbox_w_px, bbox_h_px).
    The bbox must stay inside the image under jitter up to 3 sigma."""
    z = center_world[1]
    if z <= 0.1:
        raise PoseUnrenderableError(f"{label} sits at depth {z:.2f} m, too close")
    u, v, _ = project(center_world, intr)
    w_px = intr.fx * phys_size[0] * BBOX_MARGIN / z
    h_px = intr.fy * phys_size[1] * BBOX_MARGIN / z
    margin = 3.0 * noise.bbox_jitter_px
    if (
        u - 0.5 * w_px - margin < 0
        or v - 0.5 * h_px - margin < 0
        or u + 0.5 * w_px + margin > intr.width - 1
        or v + 0.5 * h_px + margin > intr.height - 1
    ):
        raise PoseUnrenderableError(
            f"{label} bbox leaves the image (center {u:.0f},{v:.0f}, "
            f"size {w_px:.0f}x{h_px:.0f})"
        )
    return u, v, z, w_px, h_px


def _synthesize_roi(
    center_world: np.ndarray,
    phys_size: tuple[float, float],
    label: str,
    wall_z: float,
    noise: NoiseModel,
    intr: CameraIntrinsics,
    rng: np.random.Generator,
) -> RoiPointSet:
    u0, v0, z, w_px, h_px = _roi_layout(center_world, phys_size, label, noise, intr)
    # Clipped at 3 sigma so renderability checked at validation time holds.
    jitter = np.clip(rng.normal(0.0, 1.0, 2), -3.0, 3.0) * noise.bbox_jitter_px
    cu, cv = u0 + jitter[0], v0 + jitter[1]
    bbox = BoundingBox(
        cu - 0.5 * w_px, cv - 0.5 * h_px, cu + 0.5 * w_px, cv + 0.5 * h_px,
        label, confidence=0.99,
    )

    # Foreground surface samples in symmetric +/- pairs about the true center
    # pixel: the pixel centroid is exactly the projected object center, which
    # keeps the noiseless pipeline analytically exact.
    n = noise.sample_count(z)
    half = n // 2
    radius = FG_DISC_RATIO * min(w_px, h_px)
    rad = radius * np.sqrt(rng.random(half))
    ang = rng.random(half) * (2.0 * math.pi)
    du = rad * np.cos(ang)
    dv = rad * np.sin(ang)
    us = np.concatenate([u0 + du, u0 - du])
    vs = np.concatenate([v0 + dv, v0 - dv])
    if n % 2:
        us = np.append(us, u0)
        vs = np.append(vs, v0)
    zs = z + rng.normal(0.0, 1.0, n) * noise.sigma(z)
    keep = rng.random(n) >= noise.p_drop(z)

    # Background wall samples appear only where the subject does not occlude
    # the wall: outside the object's silhouette ellipse (the box is a margin
    # larger than the object), but anywhere inside the box.
    n_bg = int(round(noise.beta * n))
    if n_bg:
        n_cand = max(16, 4 * n_bg)
        uc = rng.uniform(bbox.u_min, bbox.u_max, n_cand)
        vc = rng.uniform(bbox.v_min, bbox.v_max, n_cand)
        a = 0.5 * w_px / BBOX_MARGIN
        b = 0.5 * h_px / BBOX_MARGIN
        outside = ((uc - u0) / a) ** 2 + ((vc - v0) / b) ** 2 > 1.0
        pick = np.concatenate([np.flatnonzero(outside), np.flatnonzero(~outside)])[:n_bg]
        ub, vb = uc[pick], vc[pick]
    else:
        ub = np.empty(0)
        vb = np.empty(0)
    zb = wall_z + rng.normal(0.0, 1.0, n_bg) * noise.sigma(wall_z)
    keep_bg = rng.random(n_bg) >= noise.p_drop(wall_z)

    us = np.concatenate([us[keep], ub[keep_bg]])
    vs = np.concatenate([vs[keep], vb[keep_bg]])
    zs = np.concatenate([zs[keep], zb[keep_bg]])
    return RoiPointSet._valid_part(np.column_stack([us, vs, zs]), bbox)


def synthesize_frame(
    subject: SubjectModel,
    position: tuple[float, float],
    *,
    direction: tuple[float, float] | None = None,
    target: tuple[float, float] | None = None,
    noise: NoiseModel,
    intr: CameraIntrinsics,
    rng: np.random.Generator,
    timestamp: float = 0.0,
) -> tuple[DetectionFrame, GroundTruth]:
    """Render one detection frame for a pose pointing along a direction
    (pitch/yaw) or at a floor target (x, y)."""
    truth = _pose_geometry(subject, position, direction, target)
    wall_z = truth.eye[1] + WALL_OFFSET_M
    face_roi = _synthesize_roi(truth.eye, FACE_SIZE_M, FACE, wall_z, noise, intr, rng)
    hand_roi = _synthesize_roi(truth.fingertip, HAND_SIZE_M, HAND, wall_z, noise, intr, rng)
    frame = DetectionFrame(timestamp, face_roi, (hand_roi,))
    return frame, truth


def _aims(scenario: Scenario, use_targets: bool) -> list[dict]:
    """The scenario's aims as ``synthesize_frame`` keyword arguments."""
    if use_targets:
        return [{"target": t} for t in scenario.floor_targets]
    return [{"direction": d} for d in scenario.directions]


def validate_scenario(scenario: Scenario, intr: CameraIntrinsics) -> list[str]:
    """Check field sanity and renderability; returns offending-field messages."""
    errors: list[str] = []
    if scenario.frames_per_pose < 1:
        errors.append(f"frames_per_pose: must be >= 1, got {scenario.frames_per_pose}")
    if not scenario.positions:
        errors.append("positions: at least one pose is required")
    if not scenario.directions and not scenario.floor_targets:
        errors.append("directions/floor_targets: at least one aim is required")
    for i, (range_m, bearing_deg) in enumerate(scenario.positions):
        if range_m <= 0:
            errors.append(f"positions[{i}]: range must be positive, got {range_m}")
            continue
        half_hfov = 0.5 * intr.hfov_deg if intr.hfov_deg else 90.0
        if abs(bearing_deg) >= half_hfov:
            errors.append(
                f"positions[{i}]: bearing {bearing_deg} deg outside the "
                f"camera's +/-{half_hfov:.0f} deg field of view"
            )
            continue
        for aim in _aims(scenario, use_targets=False) + _aims(scenario, use_targets=True):
            try:
                truth = _pose_geometry(scenario.subject, (range_m, bearing_deg), **aim)
                _roi_layout(truth.eye, FACE_SIZE_M, FACE, scenario.noise, intr)
                _roi_layout(truth.fingertip, HAND_SIZE_M, HAND, scenario.noise, intr)
            except (PoseUnrenderableError, ValueError) as exc:
                [(kind, value)] = aim.items()
                errors.append(f"positions[{i}] x {kind} {value}: {exc}")
    return errors


def validate_scenario_strict(scenario: Scenario, intr: CameraIntrinsics) -> None:
    errors = validate_scenario(scenario, intr)
    if errors:
        raise ScenarioError(errors)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AngleCellResult:
    """Angular accuracy of one (pose, direction, strategy) grid cell."""

    range_m: float
    bearing_deg: float
    pitch_deg: float
    yaw_deg: float
    strategy: str
    frames: int
    estimates: int
    err_deg: np.ndarray  # per frame, nan when the frame yielded nothing
    dpitch_deg: np.ndarray
    dyaw_deg: np.ndarray

    @property
    def yield_rate(self) -> float:
        return self.estimates / self.frames if self.frames else 0.0

    @property
    def mean_err_deg(self) -> float:
        return float(np.nanmean(self.err_deg)) if self.estimates else float("nan")

    @property
    def mean_abs_dpitch_deg(self) -> float:
        return float(np.nanmean(np.abs(self.dpitch_deg))) if self.estimates else float("nan")

    @property
    def mean_abs_dyaw_deg(self) -> float:
        return float(np.nanmean(np.abs(self.dyaw_deg))) if self.estimates else float("nan")


@dataclass(frozen=True, eq=False)
class GoalCellResult:
    """Floor-goal accuracy of one (pose, target, strategy) grid cell."""

    range_m: float
    bearing_deg: float
    target: tuple[float, float]
    strategy: str
    frames: int
    goals: int
    err_cm: np.ndarray  # per frame, nan when no goal was produced

    @property
    def yield_rate(self) -> float:
        return self.goals / self.frames if self.frames else 0.0

    @property
    def mean_err_cm(self) -> float:
        return float(np.nanmean(self.err_cm)) if self.goals else float("nan")

    @property
    def std_err_cm(self) -> float:
        return float(np.nanstd(self.err_cm[~np.isnan(self.err_cm)], ddof=1)) if self.goals > 1 else float("nan")


@dataclass(frozen=True)
class GoalSummaryRow:
    """Per-distance aggregation across targets, for the goal-error table."""

    distance_m: float
    mean_cm: float
    std_cm: float
    frames: int
    goals: int

    @property
    def yield_rate(self) -> float:
        return self.goals / self.frames if self.frames else 0.0


def _cell_frames(scenario: Scenario, intr: CameraIntrinsics, pos_idx: int, aim_idx: int,
                 frames: int, *, use_targets: bool):
    """Yield one grid cell's (DetectionFrame, GroundTruth) pairs at 30 Hz from
    the cell's own generator, so serial and parallel runs agree."""
    aims = _aims(scenario, use_targets)
    stream = _STREAM_EXPERIMENT_B if use_targets else _STREAM_EXPERIMENT_A
    rng = np.random.default_rng([scenario.seed, stream, pos_idx * len(aims) + aim_idx])
    for k in range(frames):
        yield synthesize_frame(
            scenario.subject, scenario.positions[pos_idx], **aims[aim_idx],
            noise=scenario.noise, intr=intr, rng=rng, timestamp=k / FRAME_RATE_HZ,
        )


def _run_cell_a(args) -> list[AngleCellResult]:
    scenario, intr, params, strategies, pos_idx, dir_idx, frames = args
    errs = {s: np.full(frames, np.nan) for s in strategies}
    dps = {s: np.full(frames, np.nan) for s in strategies}
    dys = {s: np.full(frames, np.nan) for s in strategies}
    counts = {s: 0 for s in strategies}
    cell = _cell_frames(scenario, intr, pos_idx, dir_idx, frames, use_targets=False)
    for k, (frame, truth) in enumerate(cell):
        for strategy in strategies:
            result = estimate_frame(frame, strategy, params, intr)
            if result.estimate is None:
                continue
            counts[strategy] += 1
            est = result.estimate
            errs[strategy][k] = angular_error_deg(est.direction, truth.ray)
            dps[strategy][k] = est.pitch_deg - truth.pitch_deg
            dys[strategy][k] = (est.yaw_deg - truth.yaw_deg + 180.0) % 360.0 - 180.0
    position = scenario.positions[pos_idx]
    direction = scenario.directions[dir_idx]
    return [
        AngleCellResult(
            range_m=position[0],
            bearing_deg=position[1],
            pitch_deg=direction[0],
            yaw_deg=direction[1],
            strategy=s.value,
            frames=frames,
            estimates=counts[s],
            err_deg=errs[s],
            dpitch_deg=dps[s],
            dyaw_deg=dys[s],
        )
        for s in strategies
    ]


def _run_cell_b(args) -> GoalCellResult:
    scenario, intr, params, strategy, pos_idx, tgt_idx, frames = args
    err = np.full(frames, np.nan)
    goals = 0
    cell = _cell_frames(scenario, intr, pos_idx, tgt_idx, frames, use_targets=True)
    for k, (frame, truth) in enumerate(cell):
        result = estimate_frame(frame, strategy, params, intr)
        if result.goal is None or truth.goal is None:
            continue
        goals += 1
        err[k] = 100.0 * math.hypot(
            result.goal.x - truth.goal[0], result.goal.y - truth.goal[1]
        )
    position = scenario.positions[pos_idx]
    return GoalCellResult(
        range_m=position[0],
        bearing_deg=position[1],
        target=scenario.floor_targets[tgt_idx],
        strategy=strategy.value,
        frames=frames,
        goals=goals,
        err_cm=err,
    )


def _run_grid(run_cell, scenario: Scenario, intr: CameraIntrinsics, scoring,
              params: EstimatorParams | None, frames_per_cell: int | None, jobs: int,
              *, use_targets: bool) -> list:
    """Run ``run_cell`` on every (position, aim) cell in grid order, serially
    or over ``jobs`` worker processes. ``None`` params and frame counts mean
    the defaults and the scenario's ``frames_per_pose``."""
    params = EstimatorParams() if params is None else params
    frames = scenario.frames_per_pose if frames_per_cell is None else frames_per_cell
    cells = itertools.product(
        range(len(scenario.positions)), range(len(_aims(scenario, use_targets)))
    )
    tasks = [(scenario, intr, params, scoring, i, j, frames) for i, j in cells]
    if jobs <= 1 or len(tasks) <= 1:
        return [run_cell(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_cell, tasks))


def run_experiment_a(
    scenario: Scenario,
    intr: CameraIntrinsics,
    *,
    strategies: tuple[KeypointStrategy, ...] = tuple(KeypointStrategy),
    params: EstimatorParams | None = None,
    frames_per_cell: int | None = None,
    jobs: int = 1,
) -> list[AngleCellResult]:
    """Angular-accuracy sweep over every (position, direction) grid cell.

    The same synthesized frames are scored under every strategy, so
    strategy-to-strategy comparisons are paired.
    """
    results = _run_grid(_run_cell_a, scenario, intr, tuple(strategies), params,
                        frames_per_cell, jobs, use_targets=False)
    return [cell for group in results for cell in group]


def run_experiment_b(
    scenario: Scenario,
    intr: CameraIntrinsics,
    *,
    strategy: KeypointStrategy = KeypointStrategy.MEAN_DEPTH,
    params: EstimatorParams | None = None,
    frames_per_cell: int | None = None,
    jobs: int = 1,
) -> list[GoalCellResult]:
    """Floor-goal accuracy over every (position, floor target) grid cell."""
    return _run_grid(_run_cell_b, scenario, intr, strategy, params,
                     frames_per_cell, jobs, use_targets=True)


def summarize_goal_by_distance(cells: list[GoalCellResult]) -> list[GoalSummaryRow]:
    """Pool per-frame goal errors across targets at each subject distance."""
    by_distance: dict[float, list[GoalCellResult]] = {}
    for cell in cells:
        by_distance.setdefault(cell.range_m, []).append(cell)
    rows = []
    for distance in sorted(by_distance):
        group = by_distance[distance]
        errs = np.concatenate([c.err_cm for c in group])
        errs = errs[~np.isnan(errs)]
        rows.append(
            GoalSummaryRow(
                distance_m=distance,
                mean_cm=float(errs.mean()) if errs.size else float("nan"),
                std_cm=float(errs.std(ddof=1)) if errs.size > 1 else float("nan"),
                frames=sum(c.frames for c in group),
                goals=sum(c.goals for c in group),
            )
        )
    return rows


def simulate_log(
    scenario: Scenario,
    intr: CameraIntrinsics,
    *,
    use_targets: bool = False,
):
    """Yield (DetectionFrame, GroundTruth) over the whole grid at 30 Hz.

    Frames carry globally increasing timestamps so the emitted log is a
    valid detector stream.
    """
    rng = np.random.default_rng([scenario.seed, _STREAM_LOG])
    grid = itertools.product(
        scenario.positions, _aims(scenario, use_targets), range(scenario.frames_per_pose)
    )
    for frame_no, (position, aim, _) in enumerate(grid):
        yield synthesize_frame(
            scenario.subject, position, **aim, noise=scenario.noise, intr=intr,
            rng=rng, timestamp=frame_no / FRAME_RATE_HZ,
        )


def truth_to_dict(truth: GroundTruth, timestamp: float) -> dict:
    return {
        "t": timestamp,
        "eye": truth.eye.tolist(),
        "fingertip": truth.fingertip.tolist(),
        "pitch_deg": truth.pitch_deg,
        "yaw_deg": truth.yaw_deg,
        "goal": None if truth.goal is None else [truth.goal[0], truth.goal[1]],
    }
