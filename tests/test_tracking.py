import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ScalarCvKalman, kalman_steady_state_gain
from pointray.frames import BoundingBox, DetectionFrame, RoiPointSet
from pointray.pointing import GoalPoint
from pointray.tracking import (
    INIT_SPEED_SIGMA,
    CommittedGoal,
    DetectionTracker,
    GateParams,
    GoalGate,
    TrackerParams,
    association_gate_px,
    commit_to_dict,
)

DT = 1.0 / 30.0


def box(cu, cv, w=40.0, h=40.0, label="hand", conf=0.9):
    return BoundingBox(cu - w / 2, cv - h / 2, cu + w / 2, cv + h / 2,
                       label=label, confidence=conf)


# ---------------------------------------------------------------------------
# Kalman tracker
# ---------------------------------------------------------------------------

def test_stationary_detection_converges():
    tracker = DetectionTracker()
    for i in range(50):
        out = tracker.step([box(200.0, 150.0)], DT)
        if i >= 10:
            cu, cv = out[0].bbox.center
            assert abs(cu - 200.0) < 0.5 and abs(cv - 150.0) < 0.5


def test_posterior_matches_scalar_kalman_oracle():
    # same model run through an independent textbook 2-state filter per axis
    params = TrackerParams()
    tracker = DetectionTracker(params)
    rng = np.random.default_rng(101)
    us = 240.0 + np.cumsum(rng.normal(0, 1.5, 60))
    vs = 100.0 + np.cumsum(rng.normal(0, 1.5, 60))
    oracles = None
    for mu, mv in zip(us, vs):
        out = tracker.step([box(float(mu), float(mv))], DT)
        if oracles is None:
            oracles = [ScalarCvKalman(params.sigma_accel, params.sigma_meas,
                                      x0=float(m), p0_pos=params.sigma_meas**2,
                                      p0_vel=INIT_SPEED_SIGMA**2)
                       for m in (mu, mv)]
            continue
        expected = [oracle.step(DT, float(m)) for oracle, m in zip(oracles, (mu, mv))]
        cu, cv = out[0].bbox.center
        assert cu == pytest.approx(expected[0], abs=1e-9)
        assert cv == pytest.approx(expected[1], abs=1e-9)


def test_gain_reaches_steady_state():
    params = TrackerParams()
    tracker = DetectionTracker(params)
    for _ in range(300):
        tracker.step([box(200.0, 150.0)], DT)
    track = tracker.tracks[0]
    # recompute the filter's position gain from its posterior covariance
    p = np.array([[track.p_pos, track.p_cross], [track.p_cross, track.p_vel]])
    f = np.array([[1.0, DT], [0.0, 1.0]])
    q = params.sigma_accel**2 * np.array(
        [[0.25 * DT**4, 0.5 * DT**3], [0.5 * DT**3, DT**2]]
    )
    pp = f @ p @ f.T + q
    gain_pos = pp[0, 0] / (pp[0, 0] + params.sigma_meas**2)
    k_ss = kalman_steady_state_gain(params.sigma_accel, params.sigma_meas, DT)
    assert gain_pos == pytest.approx(k_ss[0], abs=1e-6)


def test_covariance_stays_symmetric_psd():
    tracker = DetectionTracker()
    rng = np.random.default_rng(5)
    pos = np.array([300.0, 200.0])
    for i in range(100):
        pos += rng.normal(0, 3.0, 2)
        detections = [] if i % 7 == 3 else [box(*pos)]
        tracker.step(detections, DT) if detections else _miss_step(tracker)
        for track in tracker.tracks:
            # the center covariance is symmetric by construction
            assert track.p_pos >= 0 and track.p_vel >= 0
            assert track.p_pos * track.p_vel - track.p_cross**2 >= -1e-10
            assert track.p_size > 0


def _miss_step(tracker):
    # stepping with an empty detection list still predicts and ages tracks
    tracker.step([], DT)


def test_track_dies_after_miss_limit():
    params = TrackerParams(miss_limit=5)
    tracker = DetectionTracker(params)
    tracker.step([box(100, 100)], DT)
    assert len(tracker.tracks) == 1
    for _ in range(params.miss_limit):
        tracker.step([], DT)
        assert len(tracker.tracks) == 1
    tracker.step([], DT)  # miss_limit + 1 consecutive misses
    assert len(tracker.tracks) == 0


def test_two_separated_detections_get_stable_ids():
    tracker = DetectionTracker()
    ids = set()
    for _ in range(20):
        out = tracker.step([box(100, 100), box(500, 300)], DT)
        ids.add(tuple(sorted((out[0].track_id, out[1].track_id))))
    assert len(ids) == 1
    assert len(tracker.tracks) == 2


def test_face_and_hand_never_associate():
    tracker = DetectionTracker()
    tracker.step([box(100, 100, label="face")], DT)
    out = tracker.step([box(101, 100, label="hand")], DT)
    assert len(tracker.tracks) == 2  # the hand spawned its own track
    assert out[0].bbox.label == "hand"


def test_detection_order_invariance():
    t1 = DetectionTracker()
    t2 = DetectionTracker()
    rng = np.random.default_rng(9)
    a = np.array([100.0, 100.0])
    b = np.array([400.0, 250.0])
    for _ in range(30):
        a += rng.normal(0, 2, 2)
        b += rng.normal(0, 2, 2)
        d1 = [box(*a), box(*b)]
        out1 = t1.step(d1, DT)
        out2 = t2.step(d1[::-1], DT)
        c1 = sorted((round(r.bbox.center[0], 9), round(r.bbox.center[1], 9)) for r in out1)
        c2 = sorted((round(r.bbox.center[0], 9), round(r.bbox.center[1], 9)) for r in out2)
        assert c1 == c2


def _tracked_key(result):
    bb = result.bbox
    return (result.track_id, bb.label, bb.u_min, bb.v_min, bb.u_max, bb.v_max, bb.confidence)


_detection = st.builds(
    box,
    st.floats(100.0, 200.0),
    st.floats(100.0, 200.0),
    w=st.floats(10.0, 60.0),
    h=st.floats(10.0, 60.0),
    label=st.sampled_from(["face", "hand"]),
    conf=st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frames=st.lists(st.lists(_detection, max_size=4), min_size=1, max_size=12),
       data=st.data())
def test_tracker_output_independent_of_detection_order(frames, data):
    # crowded boxes in a 100 px square keep association contested
    t1 = DetectionTracker()
    t2 = DetectionTracker()
    for dets in frames:
        order = data.draw(st.permutations(range(len(dets))))
        out1 = t1.step(dets, DT)
        out2 = t2.step([dets[i] for i in order], DT)
        assert sorted(map(_tracked_key, out1)) == sorted(map(_tracked_key, out2))


def test_smoothed_output_per_detection():
    tracker = DetectionTracker()
    out = tracker.step([box(100, 100), box(500, 300)], DT)
    assert [r.detection_index for r in out] == [0, 1]
    # a new track's posterior equals its first measurement
    assert out[0].bbox.center == pytest.approx((100.0, 100.0))


def test_smooth_steps_on_frame_gaps_and_rebinds_rois():
    def roi(cu, cv, label="hand"):
        return RoiPointSet(np.array([[cu, cv, 1.0], [cu + 20, cv, 1.0]]), box(cu, cv, label=label))

    frames = [
        DetectionFrame(0.5, None, (roi(100, 100), roi(300, 100))),
        DetectionFrame(0.6, roi(400, 80, "face"), (roi(104, 100),)),
    ]
    tracker, reference = DetectionTracker(), DetectionTracker()
    for frame, dt in zip(frames, (DT, 0.6 - 0.5)):
        smoothed = tracker.smooth(frame)
        assert smoothed.timestamp == frame.timestamp
        assert (smoothed.face is None) == (frame.face is None)
        rois = [r for r in (frame.face, *frame.hands) if r is not None]
        want = reference.step([r.source_bbox for r in rois], dt)
        got = [r for r in (smoothed.face, *smoothed.hands) if r is not None]
        assert [r.source_bbox for r in got] == [w.bbox for w in want]
    # the sample on the hand's right edge falls outside its smoothed bbox
    assert len(smoothed.hands[0]) == 1


def test_association_gate_formula():
    params = TrackerParams(image_width=640)
    assert association_gate_px(params, 1.0 / 30.0) == pytest.approx(640 * 2 / 30)
    assert association_gate_px(params, 1e-4) == 30.0  # clamped low
    assert association_gate_px(params, 1.0) == 150.0  # clamped high


def test_dt_must_be_positive():
    with pytest.raises(ValueError):
        DetectionTracker().step([], 0.0)


# ---------------------------------------------------------------------------
# Goal gate
# ---------------------------------------------------------------------------

def feed(gate, goals, t0=0.0, rate=30.0):
    commits = []
    for i, g in enumerate(goals):
        c = gate.update(t0 + i / rate, g, pitch_deg=30.0, yaw_deg=5.0)
        if c is not None:
            commits.append(c)
    return commits


def test_gate_commits_on_identical_goals():
    gate = GoalGate(GateParams())
    commits = feed(gate, [GoalPoint(1.0, 2.0)] * 30)
    assert len(commits) == 1
    c = commits[0]
    assert (c.x, c.y) == (1.0, 2.0)
    assert c.cov_trace == 0.0
    assert len(gate) == 0  # window cleared after the commit


def test_gate_never_commits_with_29():
    gate = GoalGate(GateParams())
    commits = feed(gate, [GoalPoint(1.0, 2.0)] * 29)
    assert commits == []


def test_gate_rejects_alternating_goals():
    gate = GoalGate(GateParams())
    goals = [GoalPoint(0.5 if i % 2 else -0.5, 2.0) for i in range(120)]
    commits = feed(gate, goals)
    assert commits == []


def test_gate_threshold_boundary():
    rng = np.random.default_rng(71)
    gate = GoalGate(GateParams(tau=0.01))
    # tight scatter: trace well below tau
    goals = [GoalPoint(1.0 + rng.normal(0, 0.005), 2.0 + rng.normal(0, 0.005))
             for _ in range(30)]
    commits = feed(gate, goals)
    assert len(commits) == 1
    assert commits[0].cov_trace < 0.01


def test_gate_evicts_stale_entries():
    gate = GoalGate(GateParams())
    # 15 goals at 30 Hz, a 2-second silence, then 15 more: never 30 within 1 s
    goals = [GoalPoint(1.0, 2.0)] * 15
    commits = feed(gate, goals, t0=0.0)
    assert commits == []
    commits = feed(gate, goals, t0=2.5)
    assert commits == []
    assert len(gate) == 15


def test_gate_none_goal_keeps_window():
    gate = GoalGate(GateParams())
    feed(gate, [GoalPoint(1.0, 2.0)] * 10)
    gate.update(10 / 30.0, None)
    assert len(gate) == 10


def test_gate_one_commit_per_gesture():
    gate = GoalGate(GateParams())
    commits = feed(gate, [GoalPoint(1.0, 2.0)] * 60)
    # refilling takes another full window after the first commit
    assert len(commits) == 2


def test_gate_direction_mode():
    params = GateParams(mode="direction", tau_angle=4.0)
    gate = GoalGate(params)
    rng = np.random.default_rng(3)
    commits = []
    # positions scatter widely but the angles are tight: direction mode commits
    for i in range(30):
        c = gate.update(i / 30.0, GoalPoint(float(rng.normal(0, 2)), float(rng.normal(3, 2))),
                        pitch_deg=30.0 + rng.normal(0, 0.2), yaw_deg=rng.normal(0, 0.2))
        if c:
            commits.append(c)
    assert len(commits) == 1

    gate2 = GoalGate(GateParams(mode="goal", tau=0.01))
    rng = np.random.default_rng(3)
    commits2 = []
    for i in range(30):
        c = gate2.update(i / 30.0, GoalPoint(float(rng.normal(0, 2)), float(rng.normal(3, 2))),
                         pitch_deg=30.0, yaw_deg=0.0)
        if c:
            commits2.append(c)
    assert commits2 == []  # same positions fail the positional gate


def test_gate_direction_mode_wraps_yaw():
    # poses pointing back toward the camera straddle the +/-180 yaw seam
    for turn in (0.0, 360.0):
        gate = GoalGate(GateParams(mode="direction"))
        commits = []
        for i in range(30):
            yaw = (179.9 if i % 2 else -179.9) + turn
            c = gate.update(i / 30.0, GoalPoint(1.0, 2.0), pitch_deg=55.0, yaw_deg=yaw)
            if c is not None:
                commits.append(c)
        assert len(commits) == 1
        assert commits[0].cov_trace == pytest.approx(0.1**2 * 30 / 29, rel=1e-6)


def _direction_commits(yaws, offset):
    gate = GoalGate(GateParams(mode="direction"))
    commits = []
    for i, yaw in enumerate(yaws):
        c = gate.update(i / 30.0, GoalPoint(1.0, 2.0), pitch_deg=40.0, yaw_deg=yaw + offset)
        if c is not None:
            commits.append(c)
    return commits


@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=st.floats(-180.0, 180.0),
       spread=st.sampled_from([0.5, 20.0]),
       jitter=st.lists(st.floats(-1.0, 1.0), min_size=30, max_size=70),
       turns=st.integers(-2, 2).filter(bool))
def test_gate_commits_invariant_to_full_yaw_turns(base, spread, jitter, turns):
    yaws = [base + spread * j for j in jitter]
    ref = _direction_commits(yaws, 0.0)
    shifted = _direction_commits(yaws, 360.0 * turns)
    assert [c.timestamp for c in shifted] == [c.timestamp for c in ref]
    for a, b in zip(ref, shifted):
        assert b.cov_trace == pytest.approx(a.cov_trace, rel=1e-6, abs=1e-9)


def test_gate_direction_mode_requires_angles():
    gate = GoalGate(GateParams(mode="direction"))
    with pytest.raises(ValueError):
        gate.update(0.0, GoalPoint(1.0, 2.0))


def test_gate_params_validation():
    with pytest.raises(ValueError):
        GateParams(window=0)
    with pytest.raises(ValueError):
        GateParams(tau=0.0)
    with pytest.raises(ValueError):
        GateParams(mode="sideways")


def test_commit_record_schema():
    rec = commit_to_dict(CommittedGoal(1.5, 0.25, 3.5, 0.002))
    assert rec == {"t": 1.5, "committed_goal": [0.25, 3.5], "cov_trace": 0.002}
