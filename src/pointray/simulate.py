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
bit for bit. The order of the draws and the arithmetic that turns them into
a frame are part of the log format: a seed's log is compared byte for byte,
and the benchmark's stream inputs are simulated logs identified by their
sha256, so a change to either changes every input digest.
"""

from __future__ import annotations

import itertools
import json
import math
import reprlib
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .frames import FACE, FRAME_RATE_HZ, HAND, BoundingBox, DetectionFrame, RoiPointSet
from .geometry import CameraIntrinsics, check_fields, finite_number, from_json, project
from .pointing import (
    EstimatorParams, angular_error_deg, estimate_frame, estimate_strategies, ray_angles,
)
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
        check_fields(self, sigma0="[0, inf)", n0="(0, inf)", n_min="[1, inf)",
                     p_drop_max="[0, 1]", dropout_start_m="(-inf, inf)",
                     dropout_end_m="(dropout_start_m, inf)", beta="[0, 1]",
                     bbox_jitter_px="[0, inf)")

    def sigma(self, z: float) -> float:
        return self.sigma0 * z * z

    def sample_count(self, z: float) -> int:
        return max(self.n_min, int(round(self.n0 / (z * z))))

    def p_drop(self, z: float) -> float:
        if z <= self.dropout_start_m:
            return 0.0
        frac = (z - self.dropout_start_m) / (self.dropout_end_m - self.dropout_start_m)
        return self.p_drop_max * min(frac, 1.0)


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
        check_fields(self, height="(0, inf)", eye_height="(0, height]", arm_length="(0, inf)",
                     shoulder_drop="(0, arm_length)")

    def reach_along(self, ray_unit: tuple[float, float, float]) -> float:
        b = ray_unit[2] * self.shoulder_drop
        return -b + math.sqrt(b * b + self.arm_length**2 - self.shoulder_drop**2)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Grid of subject poses and pointing tasks driving the experiments."""

    subject: SubjectModel = field(default_factory=SubjectModel)
    positions: tuple[tuple[float, float], ...]  # (range_m, bearing_deg)
    directions: tuple[tuple[float, float], ...] = ()  # (pitch_deg, yaw_deg)
    floor_targets: tuple[tuple[float, float], ...] = ()  # world (x, y)
    frames_per_pose: int = 60
    seed: int = 42
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self) -> None:
        check_fields(self, frames_per_pose="[1, inf)", seed="[0, inf)")
        for name in ("positions", "directions", "floor_targets"):
            pairs = getattr(self, name)
            if not isinstance(pairs, (list, tuple)):
                raise ValueError(f"{name}: must be a list of pairs, got {reprlib.repr(pairs)}")
            for i, p in enumerate(pairs):
                if not (isinstance(p, (list, tuple)) and len(p) == 2
                        and None not in map(finite_number, p)):
                    raise ValueError(f"{name}[{i}]: must be a pair of finite numbers, "
                                     f"got {reprlib.repr(p)}")
            object.__setattr__(self, name, tuple(map(tuple, pairs)))

    def to_dict(self) -> dict:
        return asdict(self)


def default_scenario() -> Scenario:
    """Bundled 25-position x 4-direction grid with 3 floor targets."""
    text = resources.files(__package__).joinpath("data/scenario_default.json").read_text("utf-8")
    return from_json(Scenario, json.loads(text))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Analytic truth for one synthesized frame."""

    eye: tuple[float, float, float]  # world (X, Y, Z)
    fingertip: tuple[float, float, float]
    pitch_deg: float
    yaw_deg: float
    goal: tuple[float, float] | None  # ground-plane hit, None when not descending
    ray: tuple[float, float, float]  # unit direction eye -> fingertip


def direction_unit(pitch_deg: float, yaw_deg: float) -> tuple[float, float, float]:
    """World-frame unit vector for a pitch (down positive) / yaw pair."""
    pitch = math.radians(pitch_deg)
    yaw = math.radians(yaw_deg)
    ch = math.cos(pitch)
    return math.sin(yaw) * ch, math.cos(yaw) * ch, -math.sin(pitch)


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
    ex, ey, ez = eye = range_m * math.sin(b), range_m * math.cos(b), subject.eye_height
    if direction is not None:
        unit = direction_unit(*direction)
    else:
        tx, ty = target
        to_target = tx - ex, ty - ey, -ez
        # np.linalg.norm is sqrt of numpy's dot, whose bits a 3-term sum does not keep
        norm = float(np.linalg.norm(to_target))
        unit = tuple(c / norm for c in to_target)
    reach = subject.reach_along(unit)
    ux, uy, uz = unit
    fingertip = ex + reach * ux, ey + reach * uy, ez + reach * uz
    pitch, yaw = ray_angles(unit)
    if uz < -1e-12:
        s = ez / -uz
        goal = (ex + s * ux, ey + s * uy)
    else:
        goal = None
    return GroundTruth(
        eye=eye,
        fingertip=fingertip,
        pitch_deg=pitch,
        yaw_deg=yaw,
        goal=goal,
        ray=unit,
    )


def _roi_layout(
    center_world: tuple[float, float, float],
    phys_size: tuple[float, float],
    label: str,
    noise: NoiseModel,
    intr: CameraIntrinsics,
) -> tuple[float, float, float, float, float]:
    """Project an object center; returns (u, v, z, bbox_w_px, bbox_h_px).
    The bbox must stay inside the image under jitter up to 3 sigma."""
    z = center_world[1]
    if z <= 0.1:
        raise ValueError(f"{label} sits at depth {z:.2f} m, too close")
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
        raise ValueError(
            f"{label} bbox leaves the image (center {u:.0f},{v:.0f}, "
            f"size {w_px:.0f}x{h_px:.0f})"
        )
    return u, v, z, w_px, h_px


def _pose_plan(subject, position, noise: NoiseModel, intr: CameraIntrinsics, *,
               direction=None, target=None) -> tuple[GroundTruth, tuple, tuple, float]:
    """What every frame of one pose shares: its truth, the face and hand
    layouts from ``_roi_layout`` and the depth of the wall behind the
    subject. Raises ValueError when the pose cannot be rendered."""
    truth = _pose_geometry(subject, position, direction, target)
    face = _roi_layout(truth.eye, FACE_SIZE_M, FACE, noise, intr)
    hand = _roi_layout(truth.fingertip, HAND_SIZE_M, HAND, noise, intr)
    return truth, face, hand, truth.eye[1] + WALL_OFFSET_M


def _synthesize_roi(
    layout: tuple[float, float, float, float, float],
    label: str,
    wall_z: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> RoiPointSet:
    """Render one ROI of a ``_roi_layout`` (u, v, z, bbox_w_px, bbox_h_px).

    The draws, in order: the bbox jitter (2 normals), the foreground radii
    and angles (``half`` uniforms each), depth noise and dropout (``n``
    each), and, when ``noise.beta`` asks for background samples, the
    candidates' u and v (``n_cand`` each) and the kept ones' depth noise
    and dropout (``n_bg`` each). The plain form, one numpy call per draw,
    is the reference renderer in ``tests/oracles.py``; this one makes fewer
    calls, each with the reference's draws and bytes:

    - the radii and angles come from one ``random(2 * half)``, split in
      two halves: the generator fills an array one double at a time, so
      one call of 2k doubles draws what two calls of k do, in order;
    - the normals come from ``standard_normal`` in place of ``normal(0.0,
      1.0)``: the same draws, which ``normal`` maps to 0.0 + 1.0 * x, equal
      to x but for x = -0.0, and every normal is scaled and added to a
      nonzero center, where the two zeros give the same sum;
    - the jitter is clipped with Python's ``min``/``max``, which agree
      with ``np.clip`` on every finite value;
    - the background candidates are picked with a stable argsort of the
      inside flags: those outside the silhouette first, each group in
      draw order, as concatenating the two groups' indices gives;
    - the rows are written into one array, whose kept rows are taken
      once, in place of concatenating the pieces.
    """
    u0, v0, z, w_px, h_px = layout
    # Clipped at 3 sigma so renderability checked at validation time holds.
    ju, jv = rng.standard_normal(2).tolist()
    cu = u0 + min(max(ju, -3.0), 3.0) * noise.bbox_jitter_px
    cv = v0 + min(max(jv, -3.0), 3.0) * noise.bbox_jitter_px
    bbox = BoundingBox(
        cu - 0.5 * w_px, cv - 0.5 * h_px, cu + 0.5 * w_px, cv + 0.5 * h_px,
        label, confidence=0.99,
    )
    n = noise.sample_count(z)
    n_bg = int(round(noise.beta * n))
    rows = np.empty((n + n_bg, 3))
    kept = np.empty(n + n_bg, dtype=bool)

    # Foreground surface samples in symmetric +/- pairs about the true center
    # pixel: the pixel centroid is exactly the projected object center, which
    # keeps the noiseless pipeline analytically exact.
    half = n // 2
    radius = FG_DISC_RATIO * min(w_px, h_px)
    draws = rng.random(2 * half)
    rad = radius * np.sqrt(draws[:half])
    ang = draws[half:] * (2.0 * math.pi)
    du = rad * np.cos(ang)
    dv = rad * np.sin(ang)
    rows[:half, 0] = u0 + du
    rows[half:2 * half, 0] = u0 - du
    rows[:half, 1] = v0 + dv
    rows[half:2 * half, 1] = v0 - dv
    if n % 2:
        rows[n - 1, :2] = u0, v0
    rows[:n, 2] = z + rng.standard_normal(n) * noise.sigma(z)
    np.greater_equal(rng.random(n), noise.p_drop(z), out=kept[:n])

    # Background wall samples appear only where the subject does not occlude
    # the wall: outside the object's silhouette ellipse (the box is a margin
    # larger than the object), but anywhere inside the box.
    if n_bg:
        n_cand = max(16, 4 * n_bg)
        uc = rng.uniform(bbox.u_min, bbox.u_max, n_cand)
        vc = rng.uniform(bbox.v_min, bbox.v_max, n_cand)
        a = 0.5 * w_px / BBOX_MARGIN
        b = 0.5 * h_px / BBOX_MARGIN
        outside = ((uc - u0) / a) ** 2 + ((vc - v0) / b) ** 2 > 1.0
        pick = np.argsort(~outside, kind="stable")[:n_bg]
        rows[n:, 0] = uc[pick]
        rows[n:, 1] = vc[pick]
        rows[n:, 2] = wall_z + rng.standard_normal(n_bg) * noise.sigma(wall_z)
        np.greater_equal(rng.random(n_bg), noise.p_drop(wall_z), out=kept[n:])
    # foreground samples may fall outside a small jittered box
    return RoiPointSet(rows[kept], bbox)


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
    plan: tuple | None = None,
) -> tuple[DetectionFrame, GroundTruth]:
    """Render one detection frame for a pose pointing along a direction
    (pitch/yaw) or at a floor target (x, y).

    ``plan`` is what ``_pose_plan`` returns for the same arguments.
    ``_cell_frames`` and ``simulate_log`` build it once per pose and pass it
    in, so that pose's frames share one ``GroundTruth``, whose points are
    tuples. It is optional so that one-frame-at-a-time callers (``bench``,
    the benchmark's input builders) keep the plain call; without it the
    frame builds its own. An unrenderable pose raises ValueError before
    anything is drawn from ``rng``."""
    if plan is None:
        plan = _pose_plan(subject, position, noise, intr, direction=direction, target=target)
    truth, face, hand, wall_z = plan
    face_roi = _synthesize_roi(face, FACE, wall_z, noise, rng)
    hand_roi = _synthesize_roi(hand, HAND, wall_z, noise, rng)
    frame = DetectionFrame(timestamp, face_roi, (hand_roi,))
    return frame, truth


def _aims(scenario: Scenario, use_targets: bool) -> list[dict]:
    """The scenario's aims as ``synthesize_frame`` keyword arguments."""
    if use_targets:
        return [{"target": t} for t in scenario.floor_targets]
    return [{"direction": d} for d in scenario.directions]


def validate_scenario(scenario: Scenario, intr: CameraIntrinsics, *, use_targets: bool) -> None:
    """Check what the fields alone cannot show for a run that renders the
    floor targets (``use_targets``) or the directions: that there is a pose
    and an aim of that kind, and that each pose is in front of the camera,
    inside its field of view and renderable with each such aim. Aims of the
    other kind are not checked. Raises ScenarioError listing the offending
    fields."""
    errors = []
    aims = _aims(scenario, use_targets)
    if not scenario.positions:
        errors.append("positions: at least one pose is required")
    if not aims:
        kind = "floor_targets" if use_targets else "directions"
        errors.append(f"{kind}: at least one aim is required")
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
        for aim in aims:
            try:
                _pose_plan(scenario.subject, (range_m, bearing_deg), scenario.noise, intr, **aim)
            except ValueError as exc:
                [(kind, value)] = aim.items()
                errors.append(f"positions[{i}] x {kind} {value}: {exc}")
    if errors:
        raise ScenarioError(errors)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AngleCellResult:
    """Angular accuracy of one (pose, direction, strategy) grid cell; its
    summaries are computed once, when it is built."""

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
    mean_err_deg: float = field(init=False)  # nan when the cell has no estimate
    mean_abs_dpitch_deg: float = field(init=False)
    mean_abs_dyaw_deg: float = field(init=False)

    def __post_init__(self) -> None:
        means = [math.nan] * 3
        if self.estimates:
            # np.nanmean's own steps, a row each: NaN as 0, the row's
            # pairwise sum, over its count of non-NaN values
            rows = np.array((self.err_deg, self.dpitch_deg, self.dyaw_deg))
            np.abs(rows[1:], out=rows[1:])
            kept = rows == rows
            means = (np.where(kept, rows, 0.0).sum(axis=1) / kept.sum(axis=1)).tolist()
        for name, mean in zip(("mean_err_deg", "mean_abs_dpitch_deg", "mean_abs_dyaw_deg"), means):
            object.__setattr__(self, name, mean)

    @property
    def yield_rate(self) -> float:
        return self.estimates / self.frames if self.frames else 0.0


@dataclass(frozen=True, eq=False)
class GoalCellResult:
    """Floor-goal accuracy of one (pose, target, strategy) grid cell; its
    summaries are computed once, when it is built."""

    range_m: float
    bearing_deg: float
    target: tuple[float, float]
    strategy: str
    frames: int
    goals: int
    err_cm: np.ndarray  # per frame, nan when no goal was produced
    mean_err_cm: float = field(init=False)  # nan when the cell has no goal
    std_err_cm: float = field(init=False)  # nan below two goals

    def __post_init__(self) -> None:
        err = self.err_cm
        object.__setattr__(self, "mean_err_cm",
                           float(np.nanmean(err)) if self.goals else math.nan)
        object.__setattr__(self, "std_err_cm", float(np.nanstd(err[~np.isnan(err)], ddof=1))
                           if self.goals > 1 else math.nan)

    @property
    def yield_rate(self) -> float:
        return self.goals / self.frames if self.frames else 0.0


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
    position, aim = scenario.positions[pos_idx], aims[aim_idx]
    plan = _pose_plan(scenario.subject, position, scenario.noise, intr, **aim)
    for k in range(frames):
        yield synthesize_frame(
            scenario.subject, position, **aim, noise=scenario.noise, intr=intr, rng=rng,
            timestamp=k / FRAME_RATE_HZ, plan=plan,
        )


def _run_cell_a(args) -> list[AngleCellResult]:
    scenario, intr, params, strategies, pos_idx, dir_idx, frames = args
    # per strategy and frame: angular error, pitch and yaw offsets; NaN where
    # the frame gave no estimate. Each cell result holds row views.
    errs, dps, dys = np.full((3, len(strategies), frames), np.nan)
    counts = [0] * len(strategies)
    cell = _cell_frames(scenario, intr, pos_idx, dir_idx, frames, use_targets=False)
    for k, (frame, truth) in enumerate(cell):
        results = estimate_strategies(frame, strategies, params, intr)
        for i, result in enumerate(results):
            est = result.estimate
            if est is None:
                continue
            counts[i] += 1
            errs[i, k] = angular_error_deg(est.direction, truth.ray)
            dps[i, k] = est.pitch_deg - truth.pitch_deg
            dys[i, k] = (est.yaw_deg - truth.yaw_deg + 180.0) % 360.0 - 180.0
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
            estimates=counts[i],
            err_deg=errs[i],
            dpitch_deg=dps[i],
            dyaw_deg=dys[i],
        )
        for i, s in enumerate(strategies)
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
        (gx, gy), (tx, ty) = result.goal, truth.goal
        err[k] = 100.0 * math.hypot(gx - tx, gy - ty)
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
    from concurrent.futures import ProcessPoolExecutor  # here: a serial run loads no pool

    # fork starts every worker at once, so no more than there are cells
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
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

    The same synthesized frames are scored under every strategy, in one
    pass per frame, so strategy-to-strategy comparisons are paired. A
    strategy listed twice raises ``ValueError``.
    """
    strategies = tuple(strategies)
    if len(set(strategies)) < len(strategies):
        raise ValueError(f"strategies repeat: {[s.value for s in strategies]}")
    results = _run_grid(_run_cell_a, scenario, intr, strategies, params,
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
    frame_no = 0
    for position, aim in itertools.product(scenario.positions, _aims(scenario, use_targets)):
        plan = _pose_plan(scenario.subject, position, scenario.noise, intr, **aim)
        for _ in range(scenario.frames_per_pose):
            yield synthesize_frame(
                scenario.subject, position, **aim, noise=scenario.noise, intr=intr,
                rng=rng, timestamp=frame_no / FRAME_RATE_HZ, plan=plan,
            )
            frame_no += 1


def truth_to_dict(truth: GroundTruth, timestamp: float) -> dict:
    return {
        "t": timestamp,
        "eye": truth.eye,
        "fingertip": truth.fingertip,
        "pitch_deg": truth.pitch_deg,
        "yaw_deg": truth.yaw_deg,
        "goal": truth.goal,
    }
