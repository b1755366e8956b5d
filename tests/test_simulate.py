import dataclasses
import math

import numpy as np
import pytest

from oracles import experiment_a_reference, experiment_b_reference, ray_plane_oracle
from pointray.frames import RoiPointSet, frame_to_line
from pointray.pointing import EstimatorParams, angular_error_deg, estimate_frame
from pointray.roi import KeypointStrategy
from pointray.simulate import (
    NoiseModel,
    Scenario,
    ScenarioError,
    SubjectModel,
    default_scenario,
    direction_unit,
    run_experiment_a,
    run_experiment_b,
    simulate_log,
    summarize_goal_by_distance,
    synthesize_frame,
    validate_scenario,
    validate_scenario_strict,
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


def test_subject_model_validation():
    with pytest.raises(ValueError):
        SubjectModel(eye_height=2.0, height=1.8)
    with pytest.raises(ValueError):
        SubjectModel(shoulder_drop=0.7, arm_length=0.6)


def test_reach_keeps_ray_through_fingertip():
    # fingertip = eye + reach * u must sit exactly arm_length from the shoulder
    for pitch, yaw in [(10, 0), (45, 120), (80, -60), (0, 180)]:
        u = direction_unit(pitch, yaw)
        reach = SUBJECT.reach_along(u)
        eye = np.array([0.0, 0.0, SUBJECT.eye_height])
        shoulder = eye - np.array([0.0, 0.0, SUBJECT.shoulder_drop])
        fingertip = eye + reach * u
        assert np.linalg.norm(fingertip - shoulder) == pytest.approx(SUBJECT.arm_length)


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
    nm = NoiseModel.noiseless()
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
    # the simulator builds its ROIs without the constructor's check, so
    # rebuild them through it; a spread of poses exercises the jittered paths
    sc = default_scenario()
    g = rng(5)
    for pos in sc.positions[::4]:
        frame, _ = synthesize_frame(sc.subject, pos, direction=sc.directions[0],
                                    noise=sc.noise, intr=intr, rng=g)
        for roi_set in (frame.face, *frame.hands):
            assert (roi_set.z > 0).all()
            RoiPointSet(roi_set.samples, roi_set.source_bbox)


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
    assert validate_scenario(sc, intr) == []
    assert len(sc.positions) == 25
    assert len(sc.directions) == 4
    assert len(sc.floor_targets) == 3


def test_scenario_rejects_out_of_view_pose(intr):
    sc = dataclasses.replace(default_scenario(), positions=((1.5, 55.0),))
    errors = validate_scenario(sc, intr)
    assert errors and "positions[0]" in errors[0]
    with pytest.raises(ScenarioError):
        validate_scenario_strict(sc, intr)


def test_scenario_rejects_bad_fields(intr):
    sc = dataclasses.replace(default_scenario(), positions=((-1.0, 0.0),),
                             frames_per_pose=0)
    errors = validate_scenario(sc, intr)
    joined = "\n".join(errors)
    assert "frames_per_pose" in joined and "range" in joined


def test_scenario_json_round_trip(tmp_path):
    sc = default_scenario()
    path = tmp_path / "scenario.json"
    sc.save(path)
    back = Scenario.load(path)
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
    sc = small_scenario(NoiseModel.noiseless())
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


def test_experiment_b_noiseless(intr):
    sc = small_scenario(NoiseModel.noiseless())
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
    cells = run_experiment_b(sc, intr)
    want = list(experiment_b_reference(sc, intr, PARAMS, KeypointStrategy.MEAN_DEPTH, 3))
    assert len(cells) == len(want) == 2 * 2
    assert any(np.isnan(c.err_cm).any() for c in cells)
    for cell, (goals, err) in zip(cells, want):
        assert cell.goals == goals
        np.testing.assert_array_equal(cell.err_cm, err)


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
