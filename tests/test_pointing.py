import dataclasses
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    angular_error_reference, collinearity_residual, estimate_frame_reference,
    keypoint_ray_reference, ray_plane_oracle,
)
from pointray import frames
from pointray.frames import BoundingBox, DetectionFrame, RoiPointSet
from pointray.pointing import (
    EstimatorParams,
    FrameResult,
    PointingEstimate,
    angular_error_deg,
    estimate_frame,
    estimate_strategies,
    ground_intersection_world,
    ray_angles,
    result_to_dict,
    result_to_line,
    select_pointing_hand,
)
from pointray.roi import KeypointStrategy, NoEstimate


def bbox(u0, v0, u1, v1, label="hand", conf=1.0):
    return BoundingBox(u0, v0, u1, v1, label=label, confidence=conf)


def wp(x, y, z):
    return np.array([x, y, z], dtype=float)


# ---------------------------------------------------------------------------
# Hand selection
# ---------------------------------------------------------------------------

def hand_at(u0, v0, u1, v1, conf=1.0):
    return RoiPointSet(np.empty((0, 3)), bbox(u0, v0, u1, v1, conf=conf))


def test_select_topmost_hand():
    low = hand_at(10, 300, 60, 360)
    high = hand_at(400, 120, 450, 180)
    assert select_pointing_hand([low, high]) is high


def test_select_single_hand():
    only = hand_at(0, 0, 10, 10)
    assert select_pointing_hand([only]) is only


def test_select_tie_breaks_on_confidence_then_left():
    a = hand_at(100, 50, 150, 100, conf=0.7)
    b = hand_at(300, 50, 350, 100, conf=0.9)
    assert select_pointing_hand([a, b]) is b
    c = hand_at(50, 50, 90, 100, conf=0.9)
    assert select_pointing_hand([b, c]) is c


def test_select_empty_raises():
    with pytest.raises(NoEstimate) as info:
        select_pointing_hand([])
    assert info.value.reason == "no_hand"


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------

def test_angles_forward_down_diagonal():
    # ray (0, +1, -1): straight ahead and 45 degrees down
    pitch, yaw = ray_angles(-np.array([0.0, -2.0, 2.0]))  # -(face - hand)
    assert yaw == pytest.approx(0.0)
    assert pitch == pytest.approx(45.0)


def test_angles_horizontal_quadrant():
    pitch, yaw = ray_angles(-np.array([-3.0, -3.0, 0.0]))  # ray (3, 3, 0)
    assert yaw == pytest.approx(45.0)
    assert pitch == pytest.approx(0.0)


def test_angles_straight_down_pole():
    pitch, yaw = ray_angles(-np.array([0.0, 0.0, 1.0]))  # ray (0, 0, -1)
    assert pitch == pytest.approx(90.0)
    assert yaw == 0.0


def test_angles_scale_invariant():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p = rng.uniform(-1, 1, 3)
        if np.linalg.norm(p) < 1e-6:
            continue
        k = float(rng.uniform(0.01, 100.0))
        a1 = ray_angles(-p)
        a2 = ray_angles(-(k * p))
        assert a1[0] == pytest.approx(a2[0], abs=1e-9)
        assert a1[1] == pytest.approx(a2[1], abs=1e-9)


def test_angles_ranges():
    rng = np.random.default_rng(19)
    for _ in range(500):
        p = rng.uniform(-1, 1, 3)
        if np.linalg.norm(p) < 1e-6:
            continue
        pitch, yaw = ray_angles(-p)
        assert abs(pitch) <= 90.0
        assert -180.0 < yaw <= 180.0


def test_angles_zero_vector_raises():
    with pytest.raises(NoEstimate) as info:
        ray_angles(-np.array([0.0, 0.0, 0.0]))
    assert info.value.reason == "no_ground_hit"


# ---------------------------------------------------------------------------
# Ground intersection
# ---------------------------------------------------------------------------

def test_ground_intersection_worked_example():
    # face (0, 0, 1.6), hand (0, 0.3, 1.2): P = (0, -0.3, 0.4), t = 4,
    # goal (0, 1.2, 0) -- cross-checked against the parametric oracle.
    face = wp(0.0, 0.0, 1.6)
    hand = wp(0.0, 0.3, 1.2)
    goal = ground_intersection_world(face, hand)
    assert goal[0] == pytest.approx(0.0, abs=1e-12)
    assert goal[1] == pytest.approx(1.2, abs=1e-12)
    oracle = ray_plane_oracle((0, 0, 1.6), (0, 0.3, 1.2))
    assert np.allclose(goal, oracle, atol=1e-12)


def test_ground_intersection_vertical_ray():
    goal = ground_intersection_world(wp(0.5, 2.0, 1.6), wp(0.5, 2.0, 1.2))
    assert goal == (0.5, 2.0)


def test_ground_intersection_ascending_is_none():
    assert ground_intersection_world(wp(0, 0, 1.2), wp(0, 0.3, 1.6)) is None
    assert ground_intersection_world(wp(0, 0, 1.6), wp(0, 0.3, 1.6 - 1e-9)) is None


def test_ground_intersection_matches_oracle_bulk():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 10_000:
        f = np.array([rng.uniform(-3, 3), rng.uniform(0.3, 6), rng.uniform(0.8, 2.2)])
        h = f + np.array([rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                          -rng.uniform(1e-5, 0.8)])
        oracle = ray_plane_oracle(f, h)
        if oracle is None:
            continue
        goal = ground_intersection_world(f, h)
        assert math.hypot(goal[0] - oracle[0], goal[1] - oracle[1]) < 1e-9
        assert collinearity_residual(goal, f, h) < 1e-9
        checked += 1


def test_goal_translates_with_keypoints():
    rng = np.random.default_rng(41)
    for _ in range(200):
        f = np.array([rng.uniform(-2, 2), rng.uniform(0.5, 5), rng.uniform(1.0, 2.0)])
        h = f + np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                          -rng.uniform(0.1, 0.7)])
        off = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
        g1 = ground_intersection_world(f, h)
        g2 = ground_intersection_world(f + off, h + off)
        assert g2[0] - g1[0] == pytest.approx(off[0], abs=1e-9)
        assert g2[1] - g1[1] == pytest.approx(off[1], abs=1e-9)


# A keypoint coordinate: signed zeros, the infinities, NaN and values whose
# differences overflow, often; any double otherwise.
_coord = (st.sampled_from([0.0, -0.0])
          | st.sampled_from([1.5, math.inf, -math.inf, math.nan, 1e308, -1e308]) | st.floats())


@st.composite
def _keypoint_pair(draw):
    """A face and a hand keypoint: the same point, or one whose coordinates
    each equal the face's half the time, else differ from them by about
    MIN_DESCENT, so that rays run level, or by 1, or are drawn afresh."""
    face = tuple(draw(_coord) for _ in range(3))
    if draw(st.booleans()):
        return face, face
    return face, tuple(c if draw(st.booleans()) else
                       draw(st.sampled_from([c - 5e-7, c - 1e-6, c - 1.0]) | _coord)
                       for c in face)


def _float_bits(values) -> bytes:
    """IEEE bytes of each float, so -0.0 counts; NaN is one value whatever its
    sign bit: inf - inf can give a NaN of either sign in numpy and in Python
    floats, and every output writes it as NaN."""
    return b"".join(b"NaN" if x != x else struct.pack("<d", x) for x in values)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(pair=_keypoint_pair())
def test_keypoint_ray_matches_the_numpy_reference_bit_for_bit(pair, intr):
    # the keypoints go through estimate_strategies' own step to the direction
    face_kp, hand_kp = pair
    want_direction, want_goal = keypoint_ray_reference(face_kp, hand_kp)
    frame = DetectionFrame(0.0, roi("face", (0, 0, 10, 10), [[5, 5, 1.0]]),
                           (roi("hand", (0, 20, 10, 30), [[5, 25, 1.0]]),))
    points = {"face": face_kp, "hand": hand_kp}
    with mock.patch("pointray.pointing.estimate_keypoint",
                    lambda r, *args, **kwargs: points[r.label]):
        [res] = estimate_strategies(frame, (KeypointStrategy.DBSCAN_CLUSTER,), PARAMS, intr)
    goal = ground_intersection_world(face_kp, hand_kp)
    assert (goal is None) == (want_goal is None)
    if goal is not None:
        assert _float_bits(goal) == _float_bits(want_goal)
    if res.estimate is None:  # a zero-length direction meets nothing
        assert res.reason == "no_ground_hit" and not any(want_direction)
        return
    assert res.estimate.face_kp is face_kp and res.estimate.hand_kp is hand_kp
    assert _float_bits(res.estimate.direction) == _float_bits(want_direction)
    assert (res.goal is None) == (goal is None)
    if goal is not None:
        assert _float_bits(res.goal) == _float_bits(want_goal)


# ---------------------------------------------------------------------------
# Frame-level estimation
# ---------------------------------------------------------------------------

def roi(label, box, samples):
    return RoiPointSet(np.array(samples, dtype=float).reshape(-1, 3),
                       BoundingBox(*box, label=label))


def face_roi(z=2.0):
    return roi("face", (300, 80, 360, 160), [[330, 120, z], [331, 121, z]])


def hand_roi(z=1.8, box=(300, 250, 350, 300)):
    cu, cv = 0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3])
    return roi("hand", box, [[cu, cv, z], [cu + 1, cv + 1, z]])


PARAMS = EstimatorParams()


def test_estimate_frame_no_face(intr):
    frame = DetectionFrame(0.0, None, (hand_roi(),))
    res = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    assert res.estimate is None and res.goal is None and res.reason == "no_face"


def test_estimate_frame_no_hand(intr):
    frame = DetectionFrame(0.0, face_roi(), ())
    res = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    assert res.reason == "no_hand"


def test_estimate_frame_empty_roi(intr):
    # all hand samples in a corner outside the center circle
    bad_hand = roi("hand", (100, 200, 200, 260), [[101, 201, 1.5], [199, 259, 1.6]])
    frame = DetectionFrame(0.0, face_roi(), (bad_hand,))
    res = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    assert res.estimate is None and res.reason == "empty_roi"


def test_estimate_frame_no_cluster(intr):
    scattered = roi("hand", (100, 200, 200, 260),
                    [[120, 210, 0.8], [150, 230, 1.6], [180, 250, 2.9]])
    frame = DetectionFrame(0.0, face_roi(), (scattered,))
    res = estimate_frame(frame, KeypointStrategy.DBSCAN_CLUSTER, PARAMS, intr)
    assert res.estimate is None and res.reason == "no_cluster"


def test_estimate_frame_no_ground_hit(intr):
    # hand above the face in world height: ray ascends
    frame = DetectionFrame(0.0, face_roi(z=2.0), (hand_roi(z=2.0, box=(300, 10, 350, 60)),))
    res = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    assert res.estimate is not None
    assert res.goal is None and res.reason == "no_ground_hit"


def test_estimate_frame_success_schema(intr):
    frame = DetectionFrame(0.25, face_roi(), (hand_roi(),))
    res = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    assert res.estimate is not None and res.goal is not None and res.reason is None
    est = res.estimate
    # direction must equal face - hand componentwise
    d = [f - h for f, h in zip(est.face_kp, est.hand_kp)]
    assert tuple(d) == est.direction
    rec = result_to_dict(res)
    assert set(rec) == {"t", "face", "hand", "pitch_deg", "yaw_deg", "goal", "reason"}
    parsed = json.loads(result_to_line(res))
    assert parsed["t"] == 0.25
    assert parsed["reason"] is None
    assert len(parsed["goal"]) == 2


def test_estimate_frame_keeps_the_sign_of_a_zero_yaw(intr):
    # face and hand both on the optical axis's vertical plane (world x 0),
    # the hand farther away: the ray points along +Y, and yaw is
    # atan2(-(0.0 - 0.0), dy) = -0.0, which the record keeps
    cu = intr.cx
    face = roi("face", (cu - 30, 80, cu + 30, 160), [[cu, 120, 2.0]])
    hand = roi("hand", (cu - 25, 250, cu + 25, 300), [[cu, 275, 2.4]])
    res = estimate_frame(DetectionFrame(0.0, face, (hand,)), KeypointStrategy.MEAN_DEPTH,
                         PARAMS, intr)
    assert res.estimate.direction[0] == 0.0 and res.estimate.direction[1] < 0
    assert '"yaw_deg":-0.0,' in result_to_line(res)


# the edges of the range orjson writes as the stdlib does, and values past them
_RECORD_FLOATS = [math.inf, -math.inf, math.nan, 1e-5, 1e-4, 1e16, math.nextafter(1e16, 0),
                  -0.0, 0.0, 5e-324, 12.5]


@pytest.mark.parametrize("encoder", ["orjson", "json"])
@pytest.mark.parametrize("value", [math.inf, 1e-5, 1e16, -0.0])
def test_result_line_keeps_the_stdlib_bytes(value, encoder, monkeypatch):
    if encoder == "json":
        monkeypatch.setattr(frames, "orjson", None)
    est = PointingEstimate((value, 1.0, 2.0), (0.5, 1.5, value), (0.0, 0.0, 0.0), value, 3.0)
    record = FrameResult(0.5, est, (1.0, value), None)
    line = result_to_line(record)
    assert line == json.dumps(result_to_dict(record), separators=(",", ":"))
    # a non-finite value is still written as the stdlib writes it
    assert ("Infinity" in line) == (value == math.inf)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.sampled_from(_RECORD_FLOATS) | st.floats(), min_size=11, max_size=11),
       shape=st.sampled_from(["estimate", "no_goal", "no_estimate"]),
       reason=st.sampled_from([None, "no_hand", "\u00e9", "\x7f"]))
def test_result_line_keeps_the_stdlib_bytes_for_any_floats(values, shape, reason):
    t, *rest = values
    est = PointingEstimate(tuple(rest[0:3]), tuple(rest[3:6]), (0.0, 0.0, 0.0), rest[6], rest[7])
    goal = (rest[8], rest[9])
    record = {"estimate": FrameResult(t, est, goal, reason),
              "no_goal": FrameResult(t, est, None, reason),
              "no_estimate": FrameResult(t, None, None, reason)}[shape]
    assert result_to_line(record) == json.dumps(result_to_dict(record), separators=(",", ":"))


def test_estimate_frame_failure_record(intr):
    frame = DetectionFrame(1.0, None, ())
    rec = result_to_dict(estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr))
    assert rec == {"t": 1.0, "face": None, "hand": None, "pitch_deg": None,
                   "yaw_deg": None, "goal": None, "reason": "no_face"}


def test_estimate_frame_selects_topmost_hand(intr):
    top = hand_roi(z=1.5, box=(200, 100, 250, 150))
    low = hand_roi(z=0.9, box=(400, 300, 450, 350))
    frame = DetectionFrame(0.0, face_roi(), (low, top))
    res = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    assert res.estimate.hand_kp[1] == pytest.approx(1.5, abs=1e-9)


def test_estimate_frame_goal_collinearity(intr):
    frame = DetectionFrame(0.0, face_roi(), (hand_roi(),))
    res = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    est = res.estimate
    assert collinearity_residual(res.goal, est.face_kp, est.hand_kp) < 1e-9


def test_estimate_frame_deterministic(intr):
    frame = DetectionFrame(0.0, face_roi(), (hand_roi(),))
    r1 = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    r2 = estimate_frame(frame, KeypointStrategy.MEAN_DEPTH, PARAMS, intr)
    assert result_to_line(r1) == result_to_line(r2)


_hand_box = st.tuples(
    st.integers(150, 420),                   # u_min
    st.sampled_from([200.0, 250.0, 300.0]),  # v_min, often tied
    st.sampled_from([0.5, 0.9]),             # confidence, often tied
    st.floats(0.8, 2.5),                     # depth
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    boxes=st.lists(_hand_box, min_size=1, max_size=4, unique_by=lambda b: (b[1], -b[2], b[0])),
    data=st.data(),
)
def test_estimate_frame_does_not_depend_on_hand_order(boxes, data, intr):
    hands = [
        RoiPointSet(np.array([[u + 25, v + 25, z], [u + 26, v + 26, z]]),
                    bbox(u, v, u + 50, v + 50, conf=c))
        for u, v, c, z in boxes
    ]
    order = data.draw(st.permutations(range(len(hands))))
    results = [
        result_to_line(estimate_frame(DetectionFrame(0.5, face_roi(), tuple(hs)),
                                      KeypointStrategy.MEAN_DEPTH, PARAMS, intr))
        for hs in (hands, [hands[i] for i in order])
    ]
    assert results[0] == results[1]


_REASONS = {None, "no_face", "no_hand", "empty_roi", "no_cluster", "no_ground_hit"}
# bbox corners and center often, so that whole ROIs fall outside the center
# circle and samples coincide
_frac = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _any_roi(draw, label):
    u0, v0 = draw(st.floats(-100.0, 700.0)), draw(st.floats(-100.0, 500.0))
    w, h = draw(st.floats(1.0, 300.0)), draw(st.floats(1.0, 300.0))
    depth = draw(st.sampled_from([0.05, 1.5, 8.0])) if draw(st.booleans()) else None
    rows = draw(st.lists(
        st.tuples(_frac, _frac, st.just(depth) if depth else st.floats(0.05, 10.0)), max_size=8
    ))
    samples = [(u0 + fu * w, v0 + fv * h, z) for fu, fv, z in rows]
    return roi(label, (u0, v0, u0 + w, v0 + h), samples)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    face=st.none() | _any_roi("face"),
    hands=st.lists(_any_roi("hand"), max_size=3),
    copy_face=st.booleans(),
)
def test_estimate_frame_never_raises(face, hands, copy_face, intr):
    if copy_face and face is not None:  # a hand with the face's samples: coincident keypoints
        hands = [RoiPointSet(face.samples, dataclasses.replace(face.source_bbox, label="hand")),
                 *hands]
    frame = DetectionFrame(0.0, face, tuple(hands))
    for strategy in KeypointStrategy:
        res = estimate_frame(frame, strategy, PARAMS, intr)
        assert res.reason in _REASONS
        assert (res.reason is None) == (res.goal is not None)


def _bits(res):
    """Every field of a result, floats as their IEEE bytes (so -0.0 and NaN count)."""
    est, goal = res.estimate, res.goal
    floats = [res.timestamp]
    if est is not None:
        floats += [*est.direction, est.pitch_deg, est.yaw_deg]
    if goal is not None:
        floats += goal
    return (res.reason, est is None, goal is None, struct.pack(f"<{len(floats)}d", *floats),
            None if est is None else struct.pack("<6d", *est.face_kp, *est.hand_kp))


def _assert_matches_one_pass_per_strategy(frame, strategies, intr):
    results = estimate_strategies(frame, strategies, PARAMS, intr)
    assert len(results) == len(strategies)
    for strategy, res in zip(strategies, results):
        assert _bits(res) == _bits(estimate_frame_reference(frame, strategy, PARAMS, intr))
        assert _bits(estimate_frame(frame, strategy, PARAMS, intr)) == _bits(res)
    return [res.reason for res in results]


_ALL = tuple(KeypointStrategy)
_MASK_AND_DBSCAN = (KeypointStrategy.MEDIAN_DEPTH, KeypointStrategy.DBSCAN_CLUSTER)


def roi4(label, box, z):
    """Four samples at the box center: enough for a DBSCAN cluster."""
    cu, cv = 0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3])
    return roi(label, box, [[cu + d, cv + d, z] for d in (-1, 0, 0, 1)])


_FACE = roi4("face", (300, 80, 360, 160), 2.0)
_HAND = roi4("hand", (300, 250, 350, 300), 1.8)


@pytest.mark.parametrize("face, hands, strategies, reasons", [
    (None, (_HAND,), _ALL, ["no_face"] * 4),
    (_FACE, (), _ALL, ["no_hand"] * 4),
    # tied hands: both passes pick the same one
    (_FACE, (_HAND, roi4("hand", (300, 250, 350, 300), 1.7)), _ALL, [None] * 4),
    # the hand's samples all lie outside the center circle; dbscan sees them
    (_FACE, (roi("hand", (100, 200, 200, 260), [[101, 201, 1.5]] * 4),), _MASK_AND_DBSCAN,
     ["empty_roi", None]),
    (_FACE, (roi("hand", (100, 200, 200, 260), [[101, 201, 1.5], [199, 259, 1.6]]),), _ALL,
     ["empty_roi"] * 3 + ["no_cluster"]),
    # so do the face's
    (roi("face", (300, 80, 360, 160), [[301, 81, 2.0]] * 5), (_HAND,), _ALL,
     ["empty_roi"] * 3 + [None]),
    # three hand samples: fewer than min_pts
    (_FACE, (roi("hand", (300, 250, 350, 300), _HAND.samples[1:]),), _ALL,
     [None] * 3 + ["no_cluster"]),
    # coincident keypoints, and a level ray
    (_FACE, (roi("hand", (300, 80, 360, 160), _FACE.samples),), _ALL, ["no_ground_hit"] * 4),
    (_FACE, (roi4("hand", (395, 95, 445, 145), 2.0),), _ALL, ["no_ground_hit"] * 4),
    # repeats and any order
    (_FACE, (_HAND,), _ALL[::-1] + _ALL, [None] * 8),
    (_FACE, (_HAND,), (), []),
])
def test_estimate_strategies_matches_one_pass_per_strategy(face, hands, strategies, reasons,
                                                           intr):
    frame = DetectionFrame(0.25, face, hands)
    assert _assert_matches_one_pass_per_strategy(frame, strategies, intr) == reasons


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    face=st.none() | _any_roi("face"),
    hands=st.lists(_any_roi("hand"), max_size=3),
    copy_face=st.booleans(),
    tie=st.booleans(),
    strategies=st.lists(st.sampled_from(KeypointStrategy), max_size=6),
)
def test_estimate_strategies_matches_one_pass_per_strategy_on_any_frame(
        face, hands, copy_face, tie, strategies, intr):
    if copy_face and face is not None:  # a hand with the face's samples: coincident keypoints
        hands = [RoiPointSet(face.samples, dataclasses.replace(face.source_bbox, label="hand")),
                 *hands]
    if tie and hands:  # a second hand with the first's box and other samples
        hands = [*hands, RoiPointSet(hands[-1].samples[::-1], hands[0].source_bbox)]
    frame = DetectionFrame(0.0, face, tuple(hands))
    _assert_matches_one_pass_per_strategy(frame, tuple(strategies), intr)


def test_estimator_params_validation():
    with pytest.raises(ValueError, match=r"^cobb_ratio: "):
        EstimatorParams(cobb_ratio=0.0)
    with pytest.raises(ValueError, match=r"^dbscan_eps: "):
        EstimatorParams(dbscan_eps=-1.0)
    with pytest.raises(ValueError, match=r"^dbscan_min_pts: "):
        EstimatorParams(dbscan_min_pts=0)
    with pytest.raises(ValueError, match=r"^dbscan_eps: "):
        EstimatorParams(dbscan_eps=math.inf)
    with pytest.raises(ValueError, match=r"^dbscan_min_pts: "):
        EstimatorParams(dbscan_min_pts=2.5)


# the tiny magnitudes give non-zero vectors whose norm underflows to 0
_components = (st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6)
               | st.floats(1e-200, 1e-140) | st.floats(-1e-140, -1e-200))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(direction=st.tuples(_components, _components, _components),
       ray=st.tuples(_components, _components, _components))
def test_angular_error_equals_numpys_cross_product_bit_for_bit(direction, ray):
    # near-parallel pairs, where the cross product nearly cancels
    for d in (direction, [-c for c in ray], [-c * (1 + 1e-9) for c in ray]):
        # zero length is numpy's: a norm of 0, underflow included
        if not (np.linalg.norm(d) and np.linalg.norm(ray)):
            with pytest.raises(ValueError):
                angular_error_deg(np.array(d), ray)
            continue
        got = angular_error_deg(np.array(d), ray)
        assert got == angular_error_reference(d, ray)
        assert 0.0 <= got <= 180.0


def test_angular_error_of_known_pairs():
    assert angular_error_deg((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)) == 0.0
    assert angular_error_deg((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)) == 180.0
    assert angular_error_deg((1.0, 0.0, 0.0), (0.0, 2.0, 0.0)) == 90.0
    assert angular_error_deg((-1.0, -1.0, 0.0), (1.0, 0.0, 0.0)) == pytest.approx(45.0)
    with pytest.raises(ValueError):
        angular_error_deg((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
