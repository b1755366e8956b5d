import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointray.frames import (
    BoundingBox,
    DetectionFrame,
    FrameFormatError,
    RoiPointSet,
    StreamOrderError,
    frame_to_line,
    parse_frame,
    read_frames,
)


def make_roi(label="hand", bbox=(100, 100, 200, 180), samples=((150, 140, 2.0),)):
    bb = BoundingBox(*bbox, label=label)
    return RoiPointSet(label, np.array(samples, dtype=float), bb)


def make_frame(t=0.0):
    face = make_roi("face", (300, 50, 380, 150), ((340, 100, 1.8), (342, 101, 1.81)))
    hand = make_roi("hand", (250, 200, 310, 260), ((280, 230, 1.6),))
    return DetectionFrame(t, face, (hand,))


def test_json_round_trip():
    frame = make_frame(1.25)
    line = frame_to_line(frame)
    back = parse_frame(line)
    assert back.timestamp == frame.timestamp
    assert np.array_equal(back.face.samples, frame.face.samples)
    assert back.face.source_bbox == frame.face.source_bbox
    assert len(back.hands) == 1
    assert np.array_equal(back.hands[0].samples, frame.hands[0].samples)


def test_parse_null_face_and_empty_hands():
    frame = parse_frame('{"t": 0.5, "face": null, "hands": []}')
    assert frame.face is None and frame.hands == ()


def test_parse_rejects_bad_json():
    with pytest.raises(FrameFormatError):
        parse_frame("{not json")
    with pytest.raises(FrameFormatError):
        parse_frame('{"face": null, "hands": []}')  # no timestamp


def test_parse_rejects_invalid_samples():
    rec = {"t": 0.0, "face": None,
           "hands": [{"bbox": [0, 0, 10, 10], "conf": 1.0, "samples": [[5, 5, 0.0]]}]}
    with pytest.raises(FrameFormatError):
        parse_frame(json.dumps(rec))
    rec["hands"][0]["samples"] = [[50, 5, 1.0]]  # outside bbox
    with pytest.raises(FrameFormatError):
        parse_frame(json.dumps(rec))


def test_parse_lenient_drops_bad_samples():
    rec = {"t": 0.0, "face": None,
           "hands": [{"bbox": [0, 0, 10, 10], "conf": 1.0,
                      "samples": [[5, 5, -1.0], [50, 5, 1.0], [5, 5, 1.5]]}]}
    frame = parse_frame(json.dumps(rec), drop_bad_samples=True)
    assert len(frame.hands[0]) == 1
    assert frame.hands[0].z[0] == 1.5


def test_stream_rejects_nonincreasing_timestamps():
    lines = [frame_to_line(make_frame(0.0)), frame_to_line(make_frame(0.0))]
    with pytest.raises(FrameFormatError):
        list(read_frames(lines))
    lines = [frame_to_line(make_frame(1.0)), frame_to_line(make_frame(0.5))]
    with pytest.raises(StreamOrderError):
        list(read_frames(iter(lines), errors="raise"))


def test_stream_skip_mode_counts_warnings():
    skipped = []
    lines = [
        frame_to_line(make_frame(0.0)),
        "garbage",
        frame_to_line(make_frame(0.0)),  # timestamp regression
        frame_to_line(make_frame(1.0)),
    ]
    frames = list(read_frames(lines, errors="skip",
                              on_skip=lambda n, m: skipped.append(n)))
    assert len(frames) == 2
    assert skipped == [2, 3]


def test_bbox_invariants():
    with pytest.raises(FrameFormatError):
        BoundingBox(10, 0, 5, 20, label="face")
    with pytest.raises(FrameFormatError):
        BoundingBox(0, 0, 5, 20, label="arm")
    with pytest.raises(FrameFormatError):
        BoundingBox(0, 0, 5, 20, label="face", confidence=1.5)


def test_roi_sample_validation():
    bb = BoundingBox(0, 0, 10, 10, label="hand")
    with pytest.raises(FrameFormatError):
        RoiPointSet("hand", np.array([[5.0, 5.0, -0.1]]), bb)
    with pytest.raises(FrameFormatError):
        RoiPointSet("hand", np.array([[15.0, 5.0, 1.0]]), bb)
    with pytest.raises(FrameFormatError):
        RoiPointSet("face", np.array([[5.0, 5.0, 1.0]]), bb)
    empty = RoiPointSet("hand", np.empty((0, 3)), bb)
    assert len(empty) == 0


def test_roi_samples_are_read_only():
    roi = make_roi()
    with pytest.raises(ValueError):
        roi.samples[0, 0] = 0.0


def test_roi_with_bbox_drops_outsiders():
    roi = make_roi(samples=((150, 140, 2.0), (105, 105, 2.0)))
    newbb = BoundingBox(140, 130, 200, 180, label="hand")
    rebound = roi.with_bbox(newbb)
    assert len(rebound) == 1
    assert rebound.source_bbox == newbb


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_unit = st.floats(0.0, 1.0)


@st.composite
def _rois(draw, label):
    u0, v0 = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
    w, h = draw(st.floats(1.0, 1e3)), draw(st.floats(1.0, 1e3))
    bbox = BoundingBox(u0, v0, u0 + w, v0 + h, label=label, confidence=draw(_unit))
    rows = draw(st.lists(
        st.tuples(_unit, _unit, st.floats(0.0, 1e3, exclude_min=True)), max_size=8
    ))
    samples = [(u0 + fu * w, v0 + fv * h, z) for fu, fv, z in rows]
    return RoiPointSet(label, np.array(samples, dtype=float).reshape(-1, 3), bbox)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    t=st.floats(allow_nan=False, allow_infinity=False),
    face=st.none() | _rois("face"),
    hands=st.lists(_rois("hand"), max_size=3),
)
def test_parse_frame_round_trips_frame_to_line(t, face, hands):
    back = parse_frame(frame_to_line(DetectionFrame(t, face, tuple(hands))))
    assert back.timestamp == t
    assert (back.face is None) == (face is None)
    assert len(back.hands) == len(hands)
    for got, want in zip((back.face, *back.hands), (face, *hands)):
        if want is not None:
            assert got.source_bbox == want.source_bbox  # coordinates, label and confidence
            assert np.array_equal(got.samples, want.samples)


_scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_roi_like = st.fixed_dictionaries(
    {},
    optional={
        "bbox": st.lists(_scalar | st.floats(0, 50), min_size=3, max_size=5) | _json,
        "conf": _scalar,
        "samples": st.lists(st.lists(_scalar | st.floats(0, 50), max_size=4), max_size=4) | _json,
    },
)
_frame_like = st.fixed_dictionaries(
    {},
    optional={
        "t": _scalar,
        "face": _roi_like | _json,
        "hands": st.lists(_roi_like | _json, max_size=3) | _json,
    },
)
_line = (
    st.builds(json.dumps, _frame_like | _json)
    | st.tuples(st.builds(json.dumps, _frame_like), st.integers(0, 200)).map(lambda p: p[0][: p[1]])
    | st.text(max_size=20)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(_line, max_size=6))
def test_read_frames_skip_mode_never_raises(lines):
    skipped = []
    frames = list(read_frames(lines, errors="skip", on_skip=lambda n, m: skipped.append(n)))
    assert all(isinstance(f, DetectionFrame) for f in frames)
    assert len(frames) + len(skipped) == sum(1 for line in lines if line.strip())
