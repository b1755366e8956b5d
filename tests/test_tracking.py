import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ArrayTrack, GoalGateReference, ScalarCvKalman, kalman_steady_state_gain
from pointray import tracking
from pointray.frames import BoundingBox, DetectionFrame, FrameFormatError, RoiPointSet, dumps_line
from pointray.pointing import FrameResult, PointingEstimate
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
            cu, cv = out[0].bbox().center
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
        cu, cv = out[0].bbox().center
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
        ids.add(tuple(sorted((out[0].id, out[1].id))))
    assert len(ids) == 1
    assert len(tracker.tracks) == 2


def test_face_and_hand_never_associate():
    tracker = DetectionTracker()
    tracker.step([box(100, 100, label="face")], DT)
    out = tracker.step([box(101, 100, label="hand")], DT)
    assert len(tracker.tracks) == 2  # the hand spawned its own track
    assert out[0].label == "hand"


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
        c1 = sorted((round(r.center[0], 9), round(r.center[1], 9)) for r in out1)
        c2 = sorted((round(r.center[0], 9), round(r.center[1], 9)) for r in out2)
        assert c1 == c2


def _tracked_key(track):
    bb = track.bbox()
    return (track.id, bb.label, bb.u_min, bb.v_min, bb.u_max, bb.v_max, bb.confidence)


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


def test_step_returns_held_tracks_in_input_order():
    tracker = DetectionTracker()
    out = tracker.step([box(500, 300), box(100, 100, label="face"), box(100, 100)], DT)
    # a new track's posterior equals its first measurement
    assert [t.bbox().center for t in out] == [(500.0, 300.0), (100.0, 100.0), (100.0, 100.0)]
    assert [t.label for t in out] == ["hand", "face", "hand"]
    assert {t.id for t in out} == {1, 2, 3}
    # the next step updates the same objects, matched back to input order
    out2 = tracker.step([box(102, 100), box(498, 300), box(100, 101, label="face")], DT)
    assert [id(t) for t in out2] == [id(out[2]), id(out[0]), id(out[1])]
    assert sorted(map(id, out2)) == sorted(map(id, tracker.tracks))


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
        assert [r.source_bbox for r in got] == [w.bbox() for w in want]
    # the sample on the hand's right edge falls outside its smoothed bbox
    assert len(smoothed.hands[0]) == 1


def test_smooth_keeps_the_detected_bbox_when_the_smoothed_one_collapses():
    # 1.1e12 px from the origin a float's step is 2**-12 px: the smoothed box
    # of a 2e-4 px wide face rounds both u edges to one value
    u0, shift = 1127489647817.0, 0.000244140625
    tracker = DetectionTracker()
    for t in (0.0, 0.033):
        bbox = BoundingBox(u0 + t / 0.033 * shift, 10.0, 1127489647817.0002 + t / 0.033 * shift,
                           50.0, label="face")
        frame = tracker.smooth(DetectionFrame(t, RoiPointSet(np.empty((0, 3)), bbox)))
    with pytest.raises(FrameFormatError):
        tracker.tracks[0].bbox()
    assert frame.face.source_bbox == bbox
    # the track took the second detection all the same
    assert tracker.tracks[0].misses == 0 and tracker.tracks[0].velocity != (0.0, 0.0)


def _bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def _track_state(track):
    floats = (*track.center, *track.velocity, *track.size,
              track.p_pos, track.p_cross, track.p_vel, track.p_size)
    return track.id, track.label, track.misses, track.confidence, _bits(*floats)


def _bbox_bits(track):
    try:
        bb = track.bbox()
    except FrameFormatError:
        return None
    return _bits(bb.u_min, bb.v_min, bb.u_max, bb.v_max)


# a few objects, each jittered frame to frame, so tracks are matched as well as
# born; one far from the origin, where smoothed boxes can collapse
_object_detection = st.tuples(
    st.sampled_from(["face", "hand"]),
    st.sampled_from([(100.0, 100.0), (160.0, 120.0), (400.0, 300.0), (1127489647817.0, 50.0)]),
    st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
    st.floats(1e-4, 80.0), st.floats(1e-4, 80.0), st.floats(0.0, 1.0),
)
# frame gaps: 30 Hz, uneven, and the two that overflow the covariance
# (dt**4 raises at 1e80 s; at 1e77 s the covariance reaches inf)
_gap = st.sampled_from([DT, 2 * DT, 0.4, 1e77, 1e80]) | st.floats(1e-3, 2.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(frames=st.lists(st.tuples(_gap, st.lists(_object_detection, max_size=4)),
                       min_size=1, max_size=30),
       miss_limit=st.integers(0, 3))
def test_track_state_matches_the_array_oracle_bit_for_bit(frames, miss_limit):
    params = TrackerParams(miss_limit=miss_limit)
    scalar, array = DetectionTracker(params), DetectionTracker(params)
    for dt, objects in frames:
        detections = []
        for label, (u, v), du, dv, w, h, conf in objects:
            try:
                detections.append(BoundingBox(u + du, v + dv, u + du + w, v + dv + h, label, conf))
            except FrameFormatError:  # the width rounds away far from the origin
                pass
        scalar.step(detections, dt)
        with mock.patch.object(tracking, "Track", ArrayTrack):
            array.step(detections, dt)
        assert [_track_state(t) for t in scalar.tracks] == [_track_state(t) for t in array.tracks]
        assert list(map(_bbox_bits, scalar.tracks)) == list(map(_bbox_bits, array.tracks))


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

def result(t, goal, pitch_deg=30.0, yaw_deg=5.0):
    """A frame result carrying ``goal`` (or no estimate at all for None)."""
    if goal is None:
        return FrameResult(t, None, None, "no_hand")
    est = PointingEstimate(np.zeros(3), np.zeros(3), (0.0, 0.0, 0.0), pitch_deg, yaw_deg)
    return FrameResult(t, est, goal, None)


def feed(gate, goals, t0=0.0, rate=30.0):
    commits = []
    for i, g in enumerate(goals):
        c = gate.update(result(t0 + i / rate, g))
        if c is not None:
            commits.append(c)
    return commits


def test_gate_commits_on_identical_goals():
    gate = GoalGate(GateParams())
    commits = feed(gate, [(1.0, 2.0)] * 30)
    assert len(commits) == 1
    c = commits[0]
    assert c.goal == (1.0, 2.0)
    assert c.cov_trace == 0.0
    # the window cleared after the commit: 29 more goals do not refill it
    assert feed(gate, [(1.0, 2.0)] * 29, t0=1.0) == []


def test_gate_never_commits_with_29():
    gate = GoalGate(GateParams())
    commits = feed(gate, [(1.0, 2.0)] * 29)
    assert commits == []


def test_gate_rejects_alternating_goals():
    gate = GoalGate(GateParams())
    goals = [(0.5 if i % 2 else -0.5, 2.0) for i in range(120)]
    commits = feed(gate, goals)
    assert commits == []


def test_gate_threshold_boundary():
    rng = np.random.default_rng(71)
    gate = GoalGate(GateParams(tau=0.01))
    # tight scatter: trace well below tau
    goals = [(1.0 + rng.normal(0, 0.005), 2.0 + rng.normal(0, 0.005))
             for _ in range(30)]
    commits = feed(gate, goals)
    assert len(commits) == 1
    assert commits[0].cov_trace < 0.01


def test_gate_evicts_stale_entries():
    gate = GoalGate(GateParams())
    # 15 goals at 30 Hz, a 2-second silence, then 15 more: never 30 within 1 s
    goals = [(1.0, 2.0)] * 15
    commits = feed(gate, goals, t0=0.0)
    assert commits == []
    commits = feed(gate, goals, t0=2.5)
    assert commits == []
    # only the fresh 15 stay buffered: the window fills on the 15th further goal
    commits = feed(gate, goals, t0=3.0)
    assert [c.timestamp for c in commits] == [3.0 + 14 / 30.0]


def test_gate_none_goal_keeps_window():
    gate = GoalGate(GateParams())
    feed(gate, [(1.0, 2.0)] * 10)
    assert gate.update(result(10 / 30.0, None)) is None
    # the 10 goals stay buffered: the window of 30 commits on the 20th further goal
    commits = feed(gate, [(1.0, 2.0)] * 20, t0=11 / 30.0, rate=60.0)
    assert [c.timestamp for c in commits] == [11 / 30.0 + 19 / 60.0]


def test_gate_one_commit_per_gesture():
    gate = GoalGate(GateParams())
    commits = feed(gate, [(1.0, 2.0)] * 60)
    # refilling takes another full window after the first commit
    assert len(commits) == 2


def test_gate_direction_mode():
    params = GateParams(mode="direction", tau_angle=4.0)
    gate = GoalGate(params)
    rng = np.random.default_rng(3)
    commits = []
    # positions scatter widely but the angles are tight: direction mode commits
    for i in range(30):
        goal = (float(rng.normal(0, 2)), float(rng.normal(3, 2)))
        c = gate.update(result(i / 30.0, goal, pitch_deg=30.0 + rng.normal(0, 0.2),
                               yaw_deg=rng.normal(0, 0.2)))
        if c:
            commits.append(c)
    assert len(commits) == 1

    gate2 = GoalGate(GateParams(mode="goal", tau=0.01))
    rng = np.random.default_rng(3)
    commits2 = []
    for i in range(30):
        goal = (float(rng.normal(0, 2)), float(rng.normal(3, 2)))
        c = gate2.update(result(i / 30.0, goal, pitch_deg=30.0, yaw_deg=0.0))
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
            c = gate.update(result(i / 30.0, (1.0, 2.0), pitch_deg=55.0, yaw_deg=yaw))
            if c is not None:
                commits.append(c)
        assert len(commits) == 1
        assert commits[0].cov_trace == pytest.approx(0.1**2 * 30 / 29, rel=1e-6)


def _direction_commits(yaws, offset):
    gate = GoalGate(GateParams(mode="direction"))
    commits = []
    for i, yaw in enumerate(yaws):
        c = gate.update(result(i / 30.0, (1.0, 2.0), pitch_deg=40.0,
                               yaw_deg=yaw + offset))
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


_gate_tau = st.sampled_from([1e-6, 0.01, 1.0, 100.0, 1e300])
_gate_mode = st.sampled_from(["goal", "direction"])


def _check_gate_against_oracle(seed, window, tau, mode):
    # Mostly 30 Hz frames with a goal, some without one, and gaps of 0.3 s
    # and 1.2 s that age entries out of the window. A stream's goals scatter
    # by 0.1 mm to 10 m around a point, its yaws across the +/-180 seam. The
    # stream runs a few dozen frames past the one where the window fills.
    rng = np.random.default_rng(seed)
    n = max(150, int(window / 0.95) + 40)
    max_age_s = 1.0 if window <= 30 else 2 * window * DT  # time for the window to fill
    gaps = rng.choice([DT, 0.3, 1.2], n, p=[0.98, 0.01, 0.01])
    has_goal = rng.random(n) < 0.97
    spread = 10.0 ** rng.uniform(-4, 1)
    x, y = rng.normal(1.5, spread, n), rng.normal(2.5, spread, n)
    pitch = rng.normal(30.0, 50 * spread, n)
    yaw = (rng.normal(179.0, 50 * spread, n) + 180.0) % 360.0 - 180.0
    params = GateParams(window=window, tau=tau, tau_angle=tau, mode=mode, max_age_s=max_age_s)
    gate, reference = GoalGate(params), GoalGateReference(params)
    for i, t in enumerate(np.cumsum(gaps).tolist()):
        goal = (float(x[i]), float(y[i])) if has_goal[i] else None
        frame = result(t, goal, pitch_deg=float(pitch[i]), yaw_deg=float(yaw[i]))
        got, want = gate.update(frame), reference.update(frame)
        assert (got is None) == (want is None)
        if got is not None:
            assert _bits(got.timestamp, *got.goal, got.cov_trace) == _bits(
                want.timestamp, *want.goal, want.cov_trace)
        # both take the same appends and differ only in what they drop from
        # the front, so equal lengths at every step mean equal windows
        assert len(gate._entries) == len(reference._entries)
    assert list(gate._entries) == list(reference._entries)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([2, 3, 8, 9, 30]),
       tau=_gate_tau, mode=_gate_mode)
def test_gate_matches_the_array_oracle_bit_for_bit(seed, window, tau, mode):
    # windows of 8 and more take numpy's unrolled summation
    _check_gate_against_oracle(seed, window, tau, mode)


@pytest.mark.parametrize("window", [200, 9000])
@pytest.mark.parametrize("mode", ["goal", "direction"])
def test_gate_matches_the_array_oracle_past_numpy_block_sizes(window, mode):
    # 200 spans more than one of numpy's 128-element pairwise blocks and 9000
    # more than its 8192-element buffer: the gate's strided columns must sum
    # as the oracle's contiguous arrays do past both sizes too. A tau of
    # 1e300 commits each stream's first full window, whose bits are compared.
    for seed in range(12):
        _check_gate_against_oracle(seed, window, 1e300, mode)


def test_gate_params_validation():
    with pytest.raises(ValueError, match=r"^window: "):
        GateParams(window=0)
    with pytest.raises(ValueError, match=r"^window: "):
        GateParams(window=1)  # a sample covariance needs two goals
    with pytest.raises(ValueError, match=r"^tau: "):
        GateParams(tau=0.0)
    with pytest.raises(ValueError, match=r"^tau_angle: "):
        GateParams(tau_angle=math.inf)
    with pytest.raises(ValueError, match=r"^max_age_s: "):
        GateParams(max_age_s=math.nan)
    with pytest.raises(ValueError, match=r"^mode: "):
        GateParams(mode="sideways")


def test_tracker_params_validation():
    with pytest.raises(ValueError, match=r"^sigma_accel: "):
        TrackerParams(sigma_accel=-1.0)
    with pytest.raises(ValueError, match=r"^sigma_meas: "):
        TrackerParams(sigma_meas=0.0)
    with pytest.raises(ValueError, match=r"^miss_limit: "):
        TrackerParams(miss_limit=-1)
    with pytest.raises(ValueError, match=r"^image_width: "):
        TrackerParams(image_width=0)
    assert TrackerParams(sigma_accel=0.0).sigma_accel == 0.0


def test_commit_record_schema():
    rec = commit_to_dict(CommittedGoal(1.5, (0.25, 3.5), 0.002))
    assert rec == {"t": 1.5, "committed_goal": (0.25, 3.5), "cov_trace": 0.002}
    assert dumps_line(rec) == '{"t":1.5,"committed_goal":[0.25,3.5],"cov_trace":0.002}'
