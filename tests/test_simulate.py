import ast
import dataclasses
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NOISELESS, angle_cell_means_reference, experiment_a_reference, experiment_b_reference,
    goal_cell_summary_reference, pose_geometry_reference, ray_plane_oracle,
    synthesize_frame_reference,
)
from pointray import simulate
from pointray.frames import RoiPointSet, dumps_line, frame_to_line
from pointray.geometry import default_intrinsics, from_json
from pointray.pointing import EstimatorParams, angular_error_deg, estimate_frame
from pointray.roi import KeypointStrategy
from pointray.simulate import (
    AngleCellResult,
    GoalCellResult,
    NoiseModel,
    Scenario,
    ScenarioError,
    SubjectModel,
    _pose_geometry,
    _pose_plan,
    default_scenario,
    direction_unit,
    run_experiment_a,
    run_experiment_b,
    simulate_log,
    summarize_goal_by_distance,
    synthesize_frame,
    truth_to_dict,
    validate_scenario,
)

PARAMS = EstimatorParams()
SUBJECT = SubjectModel()


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

def test_noise_model_curves():
    nm = NoiseModel()
    assert nm.sigma(1.0) == pytest.approx(0.004)
    assert nm.sigma(5.5) == pytest.approx(0.004 * 5.5**2)
    assert nm.p_drop(2.0) == 0.0
    assert nm.p_drop(2.8) == 0.0
    assert nm.p_drop(5.5) == pytest.approx(nm.p_drop_max)
    assert nm.p_drop(10.0) == pytest.approx(nm.p_drop_max)  # clamped past the end
    mid = 0.5 * (2.8 + 5.5)
    assert nm.p_drop(mid) == pytest.approx(0.5 * nm.p_drop_max)
    assert nm.sample_count(1.0) == round(nm.n0)
    assert nm.sample_count(100.0) == nm.n_min


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(beta=1.5)
    with pytest.raises(ValueError):
        NoiseModel(p_drop_max=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(n_min=0)
    with pytest.raises(ValueError):
        NoiseModel(dropout_end_m=2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(NoiseModel)])
def test_noise_model_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError):
        NoiseModel(**{name: value})


def test_subject_model_validation():
    with pytest.raises(ValueError):
        SubjectModel(eye_height=2.0, height=1.8)
    with pytest.raises(ValueError):
        SubjectModel(shoulder_drop=0.7, arm_length=0.6)
    with pytest.raises(ValueError, match="shoulder_drop"):  # the end of (0, arm_length) is open
        SubjectModel(shoulder_drop=0.6, arm_length=0.6)
    assert SubjectModel(eye_height=1.8, height=1.8).eye_height == 1.8  # (0, height] is closed


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SubjectModel)])
def test_subject_model_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError):
        SubjectModel(**{name: value})


def test_reach_keeps_ray_through_fingertip():
    # fingertip = eye + reach * u must sit exactly arm_length from the shoulder
    for pitch, yaw in [(10, 0), (45, 120), (80, -60), (0, 180)]:
        u = direction_unit(pitch, yaw)
        reach = SUBJECT.reach_along(u)
        eye = (0.0, 0.0, SUBJECT.eye_height)
        shoulder = [e - d for e, d in zip(eye, (0.0, 0.0, SUBJECT.shoulder_drop))]
        fingertip = [e + reach * c for e, c in zip(eye, u)]
        assert math.dist(fingertip, shoulder) == pytest.approx(SUBJECT.arm_length)


# ---------------------------------------------------------------------------
# Frame synthesis
# ---------------------------------------------------------------------------

def test_same_seed_gives_identical_frames(intr):
    nm = NoiseModel()
    f1, _ = synthesize_frame(SUBJECT, (2.5, 10.0), direction=(35.0, 10.0),
                             noise=nm, intr=intr, rng=rng(42))
    f2, _ = synthesize_frame(SUBJECT, (2.5, 10.0), direction=(35.0, 10.0),
                             noise=nm, intr=intr, rng=rng(42))
    assert frame_to_line(f1) == frame_to_line(f2)


_INTR = default_intrinsics()
_AIMS = [{"direction": d} for d in default_scenario().directions] + [
    {"target": t} for t in default_scenario().floor_targets
]


def _renderable(position, aim) -> bool:
    try:
        synthesize_frame_reference(SUBJECT, position, **aim, noise=NoiseModel(), intr=_INTR,
                                   rng=rng())
    except ValueError:
        return False
    return True


# Every renderable (position, aim) pair of a small grid; bearings 0.0 and
# -0.0 are different poses.
_POSES = [
    (position, aim)
    for position in [(r, b) for r in (1.5, 2.5, 4.0, 5.5) for b in (0.0, -0.0, 12.5, -20.0)]
    for aim in _AIMS
    if _renderable(position, aim)
]


def _assert_renders_like_reference(noise, seed, poses, *, pass_plans=False):
    """Render ``poses`` in turn from twin generators, with ``synthesize_frame``
    and with the reference renderer: the frame and truth bytes and the
    generator states must agree after every frame. With ``pass_plans``, each
    distinct pose's plan is built once, before any frame, and passed in to
    every frame of that pose."""
    plans = {repr(pose): _pose_plan(SUBJECT, pose[0], noise, _INTR, **pose[1])
             for pose in poses} if pass_plans else {}
    ours, ref = rng(seed), rng(seed)
    for k, (position, aim) in enumerate(poses):
        t = k / 30.0
        frame, truth = synthesize_frame(SUBJECT, position, **aim, noise=noise, intr=_INTR,
                                        rng=ours, timestamp=t,
                                        plan=plans.get(repr((position, aim))))
        want_frame, want_truth = synthesize_frame_reference(
            SUBJECT, position, **aim, noise=noise, intr=_INTR, rng=ref, timestamp=t,
        )
        assert frame_to_line(frame) == frame_to_line(want_frame)
        assert dumps_line(truth_to_dict(truth, t)) == dumps_line(truth_to_dict(want_truth, t))
        assert repr(truth.ray) == repr(want_truth.ray)
        assert ours.bit_generator.state == ref.bit_generator.state


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    noise=st.builds(
        NoiseModel,
        sigma0=st.sampled_from([0.0, 0.004, 0.03]),
        n0=st.floats(1.0, 400.0),  # odd and even counts, and n_min floors far out
        n_min=st.integers(1, 12),
        p_drop_max=st.sampled_from([0.0, 0.75, 1.0]),  # dropout from 2.8 m on
        beta=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        bbox_jitter_px=st.sampled_from([0.0, 2.0]),
    ),
    seed=st.integers(0, 2**32 - 1),
    pool=st.lists(st.integers(0, len(_POSES) - 1), min_size=1, max_size=3),
    order=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    pass_plans=st.booleans(),
)
def test_synthesize_frame_matches_the_reference_renderer(noise, seed, pool, order, pass_plans):
    # poses drawn from a pool of up to three, so that a pose recurs
    # after others have been rendered
    poses = [_POSES[pool[i % len(pool)]] for i in order]
    _assert_renders_like_reference(noise, seed, poses, pass_plans=pass_plans)


@pytest.mark.parametrize("aim", [{"direction": (30.0, 0.0)}, {"target": (0.5, 1.0)}],
                         ids=["direction", "target"])
def test_signed_zero_bearings_are_different_poses(aim):
    # A, A, B, A where A and B differ only in the sign of a zero bearing,
    # which the truth writes as the sign of the eye's x
    a, b = ((2.0, 0.0), aim), ((2.0, -0.0), aim)
    for pass_plans in (False, True):
        _assert_renders_like_reference(NoiseModel(), 5, [a, a, b, a], pass_plans=pass_plans)
    _, truth = synthesize_frame(SUBJECT, (2.0, -0.0), **aim, noise=NoiseModel(), intr=_INTR,
                                rng=rng())
    assert math.copysign(1.0, truth.eye[0]) == -1.0


def _truth_bits(truth):
    """A truth's floats as IEEE bytes (so -0.0 and NaN count), and whether it has a goal."""
    floats = [*truth.eye, *truth.fingertip, truth.pitch_deg, truth.yaw_deg, *truth.ray,
              *(truth.goal or ())]
    return truth.goal is None, struct.pack(f"<{len(floats)}d", *floats)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    position=st.tuples(st.floats(0.1, 8.0), st.sampled_from([0.0, -0.0]) | st.floats(-60.0, 60.0)),
    direction=st.tuples(st.sampled_from([0.0, -0.0, 90.0, -90.0]) | st.floats(-90.0, 90.0),
                        st.sampled_from([0.0, -0.0, 180.0]) | st.floats(-180.0, 180.0)),
    target=st.tuples(st.sampled_from([0.0, -0.0]) | st.floats(-6.0, 6.0),
                     st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 10.0)),
    use_target=st.booleans(),
)
def test_pose_geometry_matches_the_numpy_reference_bit_for_bit(position, direction, target,
                                                                use_target):
    aim = (None, target) if use_target else (direction, None)
    truth = _pose_geometry(SUBJECT, position, *aim)
    for point in (truth.eye, truth.fingertip, truth.ray):
        assert type(point) is tuple and len(point) == 3
        assert all(type(c) is float for c in point)
    assert truth.goal is None or all(type(c) is float for c in truth.goal)
    assert _truth_bits(truth) == _truth_bits(pose_geometry_reference(SUBJECT, position, *aim))


def test_frames_of_a_pose_share_a_read_only_truth(intr):
    pose, aim, noise, g = (2.5, 10.0), {"direction": (35.0, 10.0)}, NoiseModel(), rng(4)
    plan = _pose_plan(SUBJECT, pose, noise, intr, **aim)
    (_, t1), (_, t2) = (
        synthesize_frame(SUBJECT, pose, **aim, noise=noise, intr=intr, rng=g, plan=plan)
        for _ in range(2)
    )
    assert t1 is t2 is plan[0]
    for point in (t1.eye, t1.fingertip):
        with pytest.raises(TypeError):
            point[0] = 0.0


def test_a_changed_pose_list_is_rendered_anew(intr):
    # lists changed in place between two calls: the second frame is the new pose's
    position, direction, noise = [2.5, 10.0], [35.0, 10.0], NoiseModel()
    _, before = synthesize_frame(SUBJECT, position, direction=direction, noise=noise,
                                 intr=intr, rng=rng())
    position[1], direction[0] = -10.0, 40.0
    _, after = synthesize_frame(SUBJECT, position, direction=direction, noise=noise,
                                intr=intr, rng=rng())
    _, want = synthesize_frame_reference(SUBJECT, (2.5, -10.0), direction=(40.0, 10.0),
                                         noise=noise, intr=intr, rng=rng())
    assert list(after.eye) == want.eye.tolist() != list(before.eye)
    assert after.ray == want.ray


def test_background_sample_count_exact(intr):
    # n(z) = 100 at z = 2: n0 = 400; beta 0.3 adds exactly 30 wall samples
    nm = NoiseModel(n0=400.0, beta=0.3, p_drop_max=0.0, sigma0=0.0,
                    bbox_jitter_px=0.0)
    pos = (2.0, 0.0)
    frame, truth = synthesize_frame(SUBJECT, pos, direction=(30.0, 0.0),
                                    noise=nm, intr=intr, rng=rng(1))
    face = frame.face
    z_face = truth.eye[1]  # camera depth equals world forward distance
    n_fg = nm.sample_count(z_face)
    assert n_fg == 100
    near_wall = np.abs(face.z - (z_face + 1.5)) < 0.05
    assert near_wall.sum() == 30
    assert len(face) == 130


def test_foreground_count_exact_without_dropout(intr):
    nm = NoiseModel(beta=0.0, p_drop_max=0.0)
    frame, truth = synthesize_frame(SUBJECT, (3.0, 0.0), direction=(30.0, 0.0),
                                    noise=nm, intr=intr, rng=rng(2))
    assert len(frame.face) == nm.sample_count(truth.eye[1])


def test_ground_truth_self_consistency(intr):
    sc = default_scenario()
    g = rng(3)
    for pos in sc.positions[::3]:
        for d in sc.directions:
            _, truth = synthesize_frame(sc.subject, pos, direction=d,
                                        noise=sc.noise, intr=intr, rng=g)
            hit = ray_plane_oracle(truth.eye, truth.fingertip)
            assert truth.goal is not None and hit is not None
            assert math.hypot(hit[0] - truth.goal[0], hit[1] - truth.goal[1]) < 1e-12
        for t in sc.floor_targets:
            _, truth = synthesize_frame(sc.subject, pos, target=t,
                                        noise=sc.noise, intr=intr, rng=g)
            # aiming at a floor target: the true goal IS the target
            assert math.hypot(truth.goal[0] - t[0], truth.goal[1] - t[1]) < 1e-9


def test_noiseless_recovery_all_strategies(intr):
    nm = NOISELESS
    for pos in [(1.5, -20.0), (3.5, 0.0), (5.5, 20.0)]:
        frame, truth = synthesize_frame(SUBJECT, pos, direction=(40.0, 30.0),
                                        noise=nm, intr=intr, rng=rng(4))
        for strategy in KeypointStrategy:
            res = estimate_frame(frame, strategy, PARAMS, intr)
            assert res.estimate is not None
            err = angular_error_deg(res.estimate.direction, truth.ray)
            assert err < 1e-6
            assert abs(res.estimate.pitch_deg - truth.pitch_deg) < 1e-6
            assert abs(res.estimate.yaw_deg - truth.yaw_deg) < 1e-6


def test_samples_respect_frame_invariants(intr):
    # rebuilding an ROI drops the rows with z <= 0 or outside the box and
    # must keep every row the simulator wrote; a spread of poses exercises
    # the jittered paths
    sc = default_scenario()
    g = rng(5)
    for pos in sc.positions[::4]:
        frame, _ = synthesize_frame(sc.subject, pos, direction=sc.directions[0],
                                    noise=sc.noise, intr=intr, rng=g)
        for roi_set in (frame.face, *frame.hands):
            assert (roi_set.z > 0).all()
            again = RoiPointSet(roi_set.samples, roi_set.source_bbox)
            assert np.array_equal(again.samples, roi_set.samples)
    bb = frame.face.source_bbox
    outside = [bb.u_max + 1.0, bb.v_min, 1.0]
    behind = [bb.u_min, bb.v_max, -1.0]
    rows = np.vstack([outside, frame.face.samples, behind])
    assert np.array_equal(RoiPointSet(rows, bb).samples, frame.face.samples)


def test_direction_or_target_exclusive(intr):
    with pytest.raises(ValueError):
        synthesize_frame(SUBJECT, (2.0, 0.0), noise=NoiseModel(), intr=intr, rng=rng())
    with pytest.raises(ValueError):
        synthesize_frame(SUBJECT, (2.0, 0.0), direction=(30, 0), target=(0, 1),
                         noise=NoiseModel(), intr=intr, rng=rng())


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------

def test_default_scenario_is_valid(intr):
    sc = default_scenario()
    validate_scenario(sc, intr, use_targets=False)
    validate_scenario(sc, intr, use_targets=True)
    assert len(sc.positions) == 25
    assert len(sc.directions) == 4
    assert len(sc.floor_targets) == 3


def test_scenario_rejects_out_of_view_pose(intr):
    sc = dataclasses.replace(default_scenario(), positions=((1.5, 55.0),))
    for use_targets in (False, True):
        with pytest.raises(ScenarioError) as exc:
            validate_scenario(sc, intr, use_targets=use_targets)
        assert exc.value.errors and "positions[0]" in exc.value.errors[0]


def test_scenario_rejects_bad_fields(intr):
    with pytest.raises(ValueError, match=r"frames_per_pose: must be an integer in \[1, inf\)"):
        dataclasses.replace(default_scenario(), frames_per_pose=0)
    sc = dataclasses.replace(default_scenario(), positions=((-1.0, 0.0),))
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(sc, intr, use_targets=False)
    assert exc.value.errors == ["positions[0]: range must be positive, got -1.0"]


@pytest.mark.parametrize("field, value", [
    ("positions", (("a", 0.0),)),
    ("positions", ((1.5,),)),
    ("positions", ((math.nan, 0.0),)),
    ("positions", ((True, 0.0),)),
    ("directions", (("x", 0.0),)),
    ("floor_targets", ((0.0, 1.0, 2.0),)),
    ("floor_targets", ((0.0, math.inf),)),
], ids=["string", "single", "nan", "bool", "direction", "triple", "inf-target"])
def test_scenario_rejects_aims_that_are_not_number_pairs(field, value):
    message = f"{field}[0]: must be a pair of finite numbers, got {value[0]!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(default_scenario(), **{field: value})


def test_scenario_rejects_negative_seed():
    with pytest.raises(ValueError, match=re.escape("seed: must be an integer in [0, inf), got -1")):
        dataclasses.replace(default_scenario(), seed=-1)


@pytest.mark.parametrize("value", [2.7, 1.9, True, "60"])
@pytest.mark.parametrize("name", ["frames_per_pose", "seed"])
def test_scenario_rejects_counts_that_are_not_integers(name, value):
    low = {"frames_per_pose": 1, "seed": 0}[name]
    message = f"{name}: must be an integer in [{low}, inf), got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(Scenario, dict(default_scenario().to_dict(), **{name: value}))


def test_scenario_json_round_trip(tmp_path):
    sc = default_scenario()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    back = from_json(Scenario, json.loads(path.read_text()))
    assert back == sc


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def small_scenario(noise=None, frames=3):
    return Scenario(
        subject=SUBJECT,
        positions=((1.5, 0.0), (3.5, 10.0)),
        directions=((30.0, 0.0), (45.0, -30.0)),
        floor_targets=((0.0, 1.0), (0.5, 2.0)),
        frames_per_pose=frames,
        seed=7,
        noise=noise or NoiseModel(),
    )


def test_experiment_a_noiseless_grid(intr):
    sc = small_scenario(NOISELESS)
    cells = run_experiment_a(sc, intr)
    assert len(cells) == 2 * 2 * len(KeypointStrategy)
    for c in cells:
        assert c.yield_rate == 1.0
        assert c.mean_err_deg < 1e-6


def test_experiment_a_serial_equals_parallel(intr):
    sc = small_scenario()
    serial = run_experiment_a(sc, intr, jobs=1)
    parallel = run_experiment_a(sc, intr, jobs=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a.range_m, a.bearing_deg, a.strategy) == (b.range_m, b.bearing_deg, b.strategy)
        assert np.array_equal(a.err_deg, b.err_deg, equal_nan=True)


def test_grid_starts_no_more_workers_than_cells(intr, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # _run_grid imports the pool only when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    sc = small_scenario(frames=1)
    serial = run_experiment_a(sc, intr)
    capped = run_experiment_a(sc, intr, jobs=1000)
    run_experiment_b(sc, intr, jobs=3)
    assert sizes == [4, 3]  # 2 x 2 cells each
    for a, b in zip(serial, capped):
        assert np.array_equal(a.err_deg, b.err_deg, equal_nan=True)


def test_a_pose_plan_is_built_once_per_pose(intr, monkeypatch):
    built = []

    def counting_plan(*args, **kwargs):
        built.append(args[1])
        return _pose_plan(*args, **kwargs)

    monkeypatch.setattr(simulate, "_pose_plan", counting_plan)
    sc = small_scenario(frames=5)  # 2 positions x 2 aims of each kind
    assert len(list(simulate_log(sc, intr))) == 20
    assert built == [(1.5, 0.0)] * 2 + [(3.5, 10.0)] * 2
    one_cell = dataclasses.replace(sc, positions=sc.positions[1:], directions=sc.directions[:1],
                                   floor_targets=sc.floor_targets[:1])
    for run in (run_experiment_a, run_experiment_b):
        built.clear()
        run(one_cell, intr)
        assert built == [(3.5, 10.0)]


def test_no_function_in_the_package_rebinds_a_module_global():
    # module state a call could change would make a call's output depend on
    # the calls before it
    for path in sorted(Path(simulate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        names = [n.names for n in ast.walk(tree) if isinstance(n, ast.Global)]
        assert not names, f"{path.name} rebinds module globals {names}"


def test_experiment_b_noiseless(intr):
    sc = small_scenario(NOISELESS)
    cells = run_experiment_b(sc, intr, strategy=KeypointStrategy.MEAN_DEPTH)
    rows = summarize_goal_by_distance(cells)
    assert [r.distance_m for r in rows] == [1.5, 3.5]
    for r in rows:
        assert r.mean_cm < 0.1
        assert r.yield_rate == 1.0


def test_experiment_b_serial_equals_parallel(intr):
    sc = small_scenario()
    serial = run_experiment_b(sc, intr, jobs=1)
    parallel = run_experiment_b(sc, intr, jobs=2)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.err_cm, b.err_cm, equal_nan=True)


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def angle_cell_means(cell: AngleCellResult) -> tuple[float, float, float]:
    return cell.mean_err_deg, cell.mean_abs_dpitch_deg, cell.mean_abs_dyaw_deg


def test_experiment_cells_match_reference_streams(intr):
    # the far pose leaves NaN slots in both experiments; swapping the two
    # experiments' streams, or the cell index order, fails this test
    sc = Scenario(
        positions=((2.0, 0.0), (5.5, -5.0)),
        directions=((30.0, 0.0), (45.0, -30.0)),
        floor_targets=((0.0, 1.0), (0.5, 2.0)),
        frames_per_pose=3,
        seed=5,
        noise=NoiseModel(),
    )
    strategies = tuple(KeypointStrategy)
    cells = run_experiment_a(sc, intr, strategies=strategies)
    want = list(experiment_a_reference(sc, intr, PARAMS, strategies, 3))
    assert len(cells) == len(want) == 2 * 2 * len(strategies)
    assert any(np.isnan(c.err_deg).any() for c in cells)
    for cell, (estimates, err, dpitch, dyaw) in zip(cells, want):
        assert cell.estimates == estimates
        np.testing.assert_array_equal(cell.err_deg, err)
        np.testing.assert_array_equal(cell.dpitch_deg, dpitch)
        np.testing.assert_array_equal(cell.dyaw_deg, dyaw)
        assert bits(angle_cell_means(cell)) == bits(
            angle_cell_means_reference(estimates, err, dpitch, dyaw))
    with pytest.raises(ValueError, match="repeat"):
        run_experiment_a(sc, intr, strategies=strategies + strategies[:1])
    cells = run_experiment_b(sc, intr)
    want = list(experiment_b_reference(sc, intr, PARAMS, KeypointStrategy.MEAN_DEPTH, 3))
    assert len(cells) == len(want) == 2 * 2
    assert any(np.isnan(c.err_cm).any() for c in cells)
    for cell, (goals, err) in zip(cells, want):
        assert cell.goals == goals
        np.testing.assert_array_equal(cell.err_cm, err)
        assert bits((cell.mean_err_cm, cell.std_err_cm)) == bits(
            goal_cell_summary_reference(goals, err))


# One frame of a cell: None when it gave no estimate, else its angular error
# and its signed pitch and yaw offsets, -0.0 among them.
_offsets = st.sampled_from([0.0, -0.0]) | st.floats(-180.0, 180.0) | st.floats(-1e-3, 1e-3)
_estimate = st.tuples(st.floats(0.0, 180.0), _offsets, _offsets)
_cell_frames = (st.lists(st.none() | _estimate, min_size=1, max_size=40)
                | st.lists(_estimate, min_size=1, max_size=40)
                | st.lists(st.none(), min_size=1, max_size=40))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(frames=_cell_frames)
def test_cell_summaries_equal_numpys_nan_reductions_bit_for_bit(frames):
    # up to 40 frames cross numpy's 8-wide pairwise summation blocks
    rows = [(math.nan,) * 3 if f is None else f for f in frames]
    err, dpitch, dyaw = np.array(rows).T.copy()
    estimates = len(frames) - frames.count(None)
    cell = AngleCellResult(range_m=2.0, bearing_deg=0.0, pitch_deg=30.0, yaw_deg=0.0,
                           strategy="mean", frames=len(frames), estimates=estimates,
                           err_deg=err, dpitch_deg=dpitch, dyaw_deg=dyaw)
    assert bits(angle_cell_means(cell)) == bits(
        angle_cell_means_reference(estimates, err, dpitch, dyaw))
    # a goal cell's per-frame errors are distances, as the angle errors are
    goal = GoalCellResult(range_m=2.0, bearing_deg=0.0, target=(0.0, 1.0), strategy="mean",
                          frames=len(frames), goals=estimates, err_cm=err)
    assert bits((goal.mean_err_cm, goal.std_err_cm)) == bits(
        goal_cell_summary_reference(estimates, err))


def test_simulate_log_timestamps_increase(intr):
    sc = small_scenario(frames=2)
    ts = [frame.timestamp for frame, _ in simulate_log(sc, intr)]
    assert len(ts) == 2 * 2 * 2
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_simulate_log_deterministic(intr):
    sc = small_scenario(frames=2)
    log1 = [frame_to_line(f) for f, _ in simulate_log(sc, intr)]
    log2 = [frame_to_line(f) for f, _ in simulate_log(sc, intr)]
    assert log1 == log2
