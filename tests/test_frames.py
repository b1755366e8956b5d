import contextlib
import dataclasses
import gc
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointray import frames
from pointray.frames import (
    BoundingBox,
    DetectionFrame,
    FrameFormatError,
    RoiPointSet,
    frame_to_line,
    parse_frame,
    read_frames,
)
from pointray.geometry import default_intrinsics
from pointray.roi import NoEstimate, cobb_filter
from pointray.simulate import NoiseModel, SubjectModel, default_scenario, synthesize_frame


def make_roi(label="hand", bbox=(100, 100, 200, 180), samples=((150, 140, 2.0),)):
    bb = BoundingBox(*bbox, label=label)
    return RoiPointSet(np.array(samples, dtype=float), bb)


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


def test_parse_drops_bad_samples():
    rec = {"t": 0.0, "face": None,
           "hands": [{"bbox": [0, 0, 10, 10], "conf": 1.0,
                      "samples": [[5, 5, -1.0], [5, 5, 0.0], [50, 5, 1.0], [5, 5, 1.5]]}]}
    frame = parse_frame(json.dumps(rec))
    assert len(frame.hands[0]) == 1
    assert frame.hands[0].z[0] == 1.5


def test_stream_rejects_nonincreasing_timestamps():
    for t0, t1 in ((0.0, 0.0), (1.0, 0.5)):
        skipped = []
        lines = [frame_to_line(make_frame(t0)), frame_to_line(make_frame(t1))]
        frames = list(read_frames(iter(lines), on_skip=lambda n, m: skipped.append((n, m))))
        assert [f.timestamp for f in frames] == [t0]
        assert skipped == [(2, f"timestamp {t1} does not increase past {t0}")]


def test_stream_skip_mode_counts_warnings():
    skipped = []
    lines = [
        frame_to_line(make_frame(0.0)),
        "garbage",
        frame_to_line(make_frame(0.0)),  # timestamp regression
        frame_to_line(make_frame(1.0)),
    ]
    frames = list(read_frames(lines, on_skip=lambda n, m: skipped.append(n)))
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
        RoiPointSet(np.array([[5.0, 5.0, -0.1]]), bb)
    with pytest.raises(FrameFormatError):
        RoiPointSet(np.array([[15.0, 5.0, 1.0]]), bb)
    with pytest.raises(FrameFormatError):
        RoiPointSet(np.array([[5.0, 5.0]]), bb)
    empty = RoiPointSet(np.empty((0, 3)), bb)
    assert len(empty) == 0 and empty.label == "hand"


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
    return RoiPointSet(np.array(samples, dtype=float).reshape(-1, 3), bbox)


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


# ---------------------------------------------------------------------------
# Sets built without the constructor's check
# ---------------------------------------------------------------------------
# Parsing, with_bbox, cobb_filter and the simulator mask samples
# themselves and skip the check; whatever they build must pass it.

def assert_passes_check(roi):
    again = RoiPointSet(roi.samples, roi.source_bbox)
    assert np.array_equal(again.samples, roi.samples)
    assert roi.samples.dtype == float and not roi.samples.flags.writeable


_odd = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


@st.composite
def _raw_roi(draw):
    u0, v0 = draw(st.floats(-100, 100)), draw(st.floats(-100, 100))
    w, h = draw(st.floats(1.0, 100)), draw(st.floats(1.0, 100))
    near_u = st.floats(u0 - w, u0 + 2 * w) | _odd
    near_v = st.floats(v0 - h, v0 + 2 * h) | _odd
    rows = draw(st.lists(st.tuples(near_u, near_v, st.floats(-1.0, 5.0) | _odd), max_size=8))
    return {"bbox": [u0, v0, u0 + w, v0 + h], "samples": [list(r) for r in rows]}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(face=st.none() | _raw_roi(), hands=st.lists(_raw_roi(), max_size=3))
def test_skip_mode_parse_builds_sets_that_pass_the_check(face, hands):
    line = json.dumps({"t": 0, "face": face, "hands": hands})
    frame = parse_frame(line)
    for roi in (frame.face, *frame.hands):
        if roi is not None:
            assert_passes_check(roi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roi=_rois("hand"), box=st.tuples(*[st.floats(-0.5, 1.5)] * 2, *[st.floats(0.01, 1.5)] * 2))
def test_with_bbox_builds_sets_that_pass_the_check(roi, box):
    bb = roi.source_bbox
    u0, v0 = bb.u_min + box[0] * bb.width, bb.v_min + box[1] * bb.height
    rebound = roi.with_bbox(
        BoundingBox(u0, v0, u0 + box[2] * bb.width, v0 + box[3] * bb.height, label="hand")
    )
    assert_passes_check(rebound)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roi=_rois("face"), ratio=st.floats(0.0, 0.5, exclude_min=True))
def test_cobb_filter_builds_sets_that_pass_the_check(roi, ratio):
    try:
        kept = cobb_filter(roi, ratio)
    except NoEstimate:
        return
    assert kept.source_bbox is roi.source_bbox
    assert_passes_check(kept)


_SCENARIO = default_scenario()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    position=st.sampled_from(_SCENARIO.positions),
    direction=st.sampled_from(_SCENARIO.directions),
    beta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthesize_frame_builds_sets_that_pass_the_check(position, direction, beta, seed):
    frame, _ = synthesize_frame(
        _SCENARIO.subject, position, direction=direction,
        noise=dataclasses.replace(_SCENARIO.noise, beta=beta),
        intr=default_intrinsics(), rng=np.random.default_rng(seed),
    )
    for roi in (frame.face, *frame.hands):
        assert_passes_check(roi)


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
    frames = list(read_frames(lines, on_skip=lambda n, m: skipped.append(n)))
    assert all(isinstance(f, DetectionFrame) for f in frames)
    assert len(frames) + len(skipped) == sum(1 for line in lines if line.strip())


# ---------------------------------------------------------------------------
# Number schema and the two decoders
# ---------------------------------------------------------------------------

_FACE = '"face":{"bbox":[0,0,10,10],"conf":0.9,"samples":[[5,5,1]]}'


@pytest.fixture(params=["orjson", "json"])
def decoder(request, monkeypatch):
    """Run the test once with orjson decoding and once with the stdlib alone."""
    if request.param == "orjson":
        pytest.importorskip("orjson")
    else:
        monkeypatch.setattr(frames, "orjson", None)
    return request.param


@pytest.mark.parametrize("line", [
    '{"t":"0.5",%s}' % _FACE,
    '{"t":true,%s}' % _FACE,
    '{"t":0,"face":{"bbox":["0",0,10,10],"samples":[]}}',
    '{"t":0,"face":{"bbox":[0,true,10,10],"samples":[]}}',
    '{"t":0,"face":{"bbox":[0,0,10,10],"conf":true,"samples":[]}}',
    '{"t":0,"face":{"bbox":[0,0,10,10],"conf":"0.9","samples":[]}}',
    '{"t":0,"face":{"bbox":[0,0,10,10],"samples":[["5",5,"1"]]}}',
    '{"t":0,"face":{"bbox":[0,0,10,10],"samples":[[true,true,true]]}}',
    '{"t":0,"face":{"bbox":[0,0,1e21,10],"samples":[[100000000000000000000,"5",1]]}}',
    '{"t":0,"face":{"bbox":[0,0,10,10],"samples":[[5,5,%s]]}}' % ("9" * 400),  # overflows
    '{"t":0,"face":{"bbox":[0,0,10,10],"samples":[[null,5,1],[5,5,1]]}}',
])
def test_parse_rejects_strings_booleans_and_overflowing_numbers(line, decoder):
    with pytest.raises(FrameFormatError):
        parse_frame(line)


@pytest.mark.parametrize("big", ["1e20", "100000000000000000000"])
def test_parse_accepts_integers_beyond_64_bits(big, decoder):
    line = '{"t":0,"face":{"bbox":[0,0,1e21,10],"samples":[[%s,1,2]]}}' % big
    assert parse_frame(line).face.samples.tolist() == [[1e20, 1.0, 2.0]]


def _nested_frame(levels, member):
    """Frame text whose member "x" takes it to ``levels`` levels of nesting."""
    inner = levels - 1  # the frame object is the first level
    opens = "".join("[" if i % 2 == 0 else '{"a":' for i in range(inner))
    closes = "".join("]" if i % 2 == 0 else "}" for i in reversed(range(inner)))
    return '{"t":0,%s"x":%s0%s}' % (member, opens, closes)


# plain, an escaped quote, and a raw lone surrogate, which only the stdlib reads
_MEMBERS = ['"s":"a",', '"s":"\\"",', '"s":"\ud800",']


@pytest.mark.parametrize("member", _MEMBERS)
def test_parse_accepts_nesting_of_64_levels(member, decoder):
    assert parse_frame(_nested_frame(64, member)).timestamp == 0.0


# Under a raised recursion limit the stdlib decodes 600 levels, so only a
# fixed limit makes the outcome independent of the caller's stack; orjson 3.8
# overflows the C stack on the deepest line.
@pytest.mark.parametrize("recursion_limit", [None, 5_000])
@pytest.mark.parametrize("levels", [65, 600, 200_001])
@pytest.mark.parametrize("member", _MEMBERS)
def test_parse_nesting_beyond_64_levels_is_a_format_error(
    levels, member, recursion_limit, decoder
):
    line = _nested_frame(levels, member)
    old_limit = sys.getrecursionlimit()
    try:
        if recursion_limit is not None:
            sys.setrecursionlimit(recursion_limit)
        with pytest.raises(FrameFormatError, match="nested deeper than 64 levels"):
            parse_frame(line)
    finally:
        sys.setrecursionlimit(old_limit)


def _at_stack_depth(depth, fn):
    return fn() if depth == 0 else _at_stack_depth(depth - 1, fn)


@pytest.mark.parametrize("member", _MEMBERS)
def test_deepest_accepted_line_parses_under_a_deep_caller_stack(member, monkeypatch):
    # The stdlib decoder recurses once per level within the interpreter's
    # recursion limit (1,000 by default), which a deep caller has used up.
    monkeypatch.setattr(frames, "orjson", None)
    line = _nested_frame(frames._MAX_DEPTH, member)
    assert _at_stack_depth(500, lambda: parse_frame(line)).timestamp == 0.0


_ODD_NUMBER = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0",
    "true", "false", "null", '"5"', '"\\ud800"', '"\ud800"', "[]", "{}",
]) | st.builds(
    lambda digits, lead, sign: sign + str(lead) * digits,
    st.sampled_from([19, 25, 309, 400, 4300]), st.integers(1, 9), st.sampled_from(["", "-"]),
)


@st.composite
def _number_text(draw, value):
    if draw(st.integers(0, 15)) == 0:
        return draw(_ODD_NUMBER)
    return draw(st.sampled_from(["%r", "%.17g", "%.12g", "%.20e", "%d"])) % value


@st.composite
def _roi_text(draw):
    u0, v0 = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
    w, h = draw(st.floats(1.0, 1e3)), draw(st.floats(1.0, 1e3))
    rows = draw(st.lists(
        st.tuples(_unit, _unit, st.floats(0.0, 1e3, exclude_min=True)), max_size=4
    ))
    bbox = ",".join(draw(_number_text(c)) for c in (u0, v0, u0 + w, v0 + h))
    samples = ",".join(
        "[%s]" % ",".join(draw(_number_text(c)) for c in (u0 + fu * w, v0 + fv * h, z))
        for fu, fv, z in rows
    )
    return '{"bbox":[%s],"conf":%s,"samples":[%s]}' % (bbox, draw(_number_text(draw(_unit))), samples)


_EXTRA_MEMBER = st.sampled_from([
    "", ',"t":0.25', ',"face":null', ',"\\u0074":1.5', ',"s":"\\ud800"', ',"s":"\ud800"',
    ',"x":' + "[" * 600 + "]" * 600, ',"x":' + "[" * 1100 + "]" * 1100,
    ',"x":' + '{"a":' * 1100 + "0" + "}" * 1100,
])


@st.composite
def _frame_text(draw):
    t = draw(_number_text(draw(st.floats(-1e6, 1e6))))
    face = draw(st.just("null") | _roi_text())
    hands = ",".join(draw(st.lists(_roi_text(), max_size=2)))
    line = '{"t":%s,"face":%s,"hands":[%s]%s}' % (t, face, hands, draw(_EXTRA_MEMBER))
    return line[:-1] if draw(st.integers(0, 9)) == 0 else line


def _outcome(line):
    try:
        frame = parse_frame(line)
    except FrameFormatError:
        return None
    rois = [r for r in (frame.face, *frame.hands) if r is not None]
    return (
        repr(frame.timestamp),
        frame.face is None,
        [(repr(r.source_bbox), r.samples.shape, r.samples.tobytes()) for r in rois],
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.tuples(_frame_text(), _line))
def test_orjson_and_stdlib_decoding_give_the_same_outcome(lines):
    pytest.importorskip("orjson")
    fast = [_outcome(line) for line in lines]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames, "orjson", None)
        slow = [_outcome(line) for line in lines]
    assert fast == slow


# ---------------------------------------------------------------------------
# The cyclic GC is paused while a line is decoded
# ---------------------------------------------------------------------------

def _dense_lines(n):
    """``n`` criterion-9 frame lines: two ROIs of ~2,500 samples each."""
    noise = NoiseModel(n0=2500 * 2.0 ** 2, n_min=1, beta=0.0, p_drop_max=0.0,
                       sigma0=0.004, bbox_jitter_px=1.0)
    rng = np.random.default_rng(7)
    return [
        frame_to_line(synthesize_frame(SubjectModel(), (2.0, 0.0), direction=(35.0, 10.0),
                                       noise=noise, intr=default_intrinsics(), rng=rng,
                                       timestamp=i / 30.0)[0])
        for i in range(n)
    ]


def test_parsing_dense_lines_runs_no_collection(decoder):
    lines = _dense_lines(5)
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()  # start from empty generation counts
    gc.callbacks.append(on_gc)
    try:
        for line in lines:
            assert len(parse_frame(line).face) > 2000
    finally:
        gc.callbacks.remove(on_gc)
    assert collections == []


@pytest.mark.parametrize("line, error", [
    ('{"t":0,%s}' % _FACE, None),
    ("{not json", FrameFormatError),
    ('{"t":0,"face":{"bbox":[0,0,10,10],"samples":[["5",5,1]]}}', FrameFormatError),
], ids=["good", "bad-json", "string-sample"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_restores_the_callers_gc_state(line, error, enabled, decoder):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            parse_frame(line)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
