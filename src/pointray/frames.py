"""Detection-frame data model and the line-delimited JSON log format.

One log line per frame::

    {"t": 0.033,
     "face": {"bbox": [u0, v0, u1, v1], "conf": 0.98, "samples": [[u, v, z], ...]} | null,
     "hands": [{"bbox": [...], "conf": 0.91, "samples": [...]}, ...]}

Depth samples carry pixel coordinates and depth in meters; invalid depth is
never encoded (no zero sentinels), it is simply absent from ``samples``.
``t``, the bbox coordinates, ``conf`` and the sample values are JSON numbers.

Lines are decoded and encoded with ``orjson`` when it is installed and with
the stdlib ``json`` otherwise; every line gets the same outcome, and every
written line the same bytes, either way.

A decoded ``samples`` array is read from its flattened rows by
``np.fromiter`` where four checks show that this gives the array numpy's
nested-list inference would (no string value, rows of three, a first value
that is not a boolean, no NaN; see ``_sample_array``); the inference path
decides and words every rejection.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

try:
    import orjson
except ImportError:  # optional: without it every line takes the stdlib path
    orjson = None

FACE = "face"
HAND = "hand"

FRAME_RATE_HZ = 30.0  # nominal sensor rate; the time step before a stream's first frame

# Lines nested deeper than this are rejected before either decoder runs.
# orjson 3.8 recurses without a depth limit and overflows the C stack (tens
# of thousands of levels in an 8 MB stack, fewer in a thread), while the
# stdlib raises RecursionError near the interpreter's recursion limit, so
# its outcome would depend on the caller's stack. A valid frame nests 5 deep,
# and 64 levels still decode under a caller 500 frames deep.
_MAX_DEPTH = 64
_ESCAPE_PAIR = re.compile(r"\\.", re.DOTALL)
# bytes.translate deletes every byte but quotes and brackets, and writes an
# opening bracket as the int8 1 and a closing one as -1
_NOT_STRUCTURE = bytes(range(256)).translate(None, b'"[]{}')
_DEPTH_STEP = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")

# orjson writes a float with json.dumps's bytes when it is 0 or its magnitude
# lies in this range. Outside it, orjson writes 1e16 for 1e+16 and
# 0.00005 for 5e-05.
_ORJSON_FLOAT_RANGE = (1e-4, 1e16)


class FrameFormatError(ValueError):
    """Malformed frame record (bad JSON, missing keys, invalid samples)."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel-space box for one detected face or hand."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float
    label: str
    confidence: float = 1.0

    def __post_init__(self) -> None:
        # The span and twice the center of finite corners can still overflow.
        for axis, lo, hi in (("u", self.u_min, self.u_max), ("v", self.v_min, self.v_max)):
            if not (lo < hi and math.isfinite(hi - lo) and math.isfinite(hi + lo)):
                raise FrameFormatError(f"{axis}_min must be < {axis}_max with a finite "
                                       f"span and center, got [{lo}, {hi}]")
        if self.label not in (FACE, HAND):
            raise FrameFormatError(f"label must be 'face' or 'hand', got {self.label!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise FrameFormatError(f"confidence must lie in [0, 1], got {self.confidence}")

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u_min + self.u_max), 0.5 * (self.v_min + self.v_max))

    def inside(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Mask of the pixels (u, v) that lie in the box, edges included."""
        return (u >= self.u_min) & (u <= self.u_max) & (v >= self.v_min) & (v <= self.v_max)


@dataclass(frozen=True, eq=False)
class RoiPointSet:
    """Depth samples belonging to one detected region of interest.

    ``samples`` is an (n, 3) float array with columns u, v, z. Building an
    ROI keeps the rows with z > 0 that lie inside ``source_bbox`` and drops
    the rest (a NaN in any column drops its row); any other shape raises
    ``FrameFormatError``. A raw detection may legitimately carry zero
    samples (the sensor returned nothing).
    """

    samples: np.ndarray
    source_bbox: BoundingBox

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise FrameFormatError(f"samples must be [[u, v, z], ...], got shape {arr.shape}")
        keep = (arr[:, 2] > 0) & self.source_bbox.inside(arr[:, 0], arr[:, 1])
        object.__setattr__(self, "samples", np.ascontiguousarray(arr[keep]))
        self.samples.setflags(write=False)

    @classmethod
    def _unchecked(cls, samples: np.ndarray, bbox: BoundingBox) -> "RoiPointSet":
        """An ROI over (n, 3) float rows that the constructor would keep whole."""
        roi = object.__new__(cls)  # skips __init__ and so __post_init__
        object.__setattr__(roi, "samples", np.ascontiguousarray(samples))
        object.__setattr__(roi, "source_bbox", bbox)
        roi.samples.setflags(write=False)
        return roi

    @property
    def label(self) -> str:
        return self.source_bbox.label

    @property
    def u(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.samples[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.samples[:, 2]

    def __len__(self) -> int:
        return self.samples.shape[0]

    def with_bbox(self, bbox: BoundingBox) -> "RoiPointSet":
        """Rebind to a new bbox, dropping samples that fall outside it."""
        return RoiPointSet._unchecked(self.samples[bbox.inside(self.u, self.v)], bbox)


@dataclass(frozen=True, eq=False)
class DetectionFrame:
    """One timestamped set of face/hand detections with sparse depth samples."""

    timestamp: float
    face: RoiPointSet | None
    hands: tuple[RoiPointSet, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise FrameFormatError(f"timestamp must be finite, got {self.timestamp}")
        if self.face is not None and self.face.label != FACE:
            raise FrameFormatError("face slot must hold a face-labelled ROI")
        object.__setattr__(self, "hands", tuple(self.hands))
        for h in self.hands:
            if h.label != HAND:
                raise FrameFormatError("hands slot must hold hand-labelled ROIs")


def _number(value, what: str) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if type(value) not in (int, float):
        raise FrameFormatError(f"{what} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise FrameFormatError(f"{what} is out of range: {exc}") from exc


def _sample_array(raw, no_strings: bool) -> np.ndarray:
    """Float array of a decoded ``samples`` value.

    ``np.fromiter`` over the flattened rows costs about a third of numpy's
    nested-list inference on a dense ROI, and is used where it gives the
    inferred array: no value of the line is a string (``fromiter`` reads
    ``"5"`` through ``float()``), every row has three values (it fills n rows
    from any 3n values), the first value is not a boolean (an all-boolean
    array must be rejected) and the result holds no NaN (it reads ``null`` as
    NaN; a ``NaN`` literal falls back too). Any other value, or one it cannot
    read, goes to ``_inferred_sample_array``, which words every rejection.
    """
    if no_strings:
        try:
            if set(map(len, raw)) == {3} and type(raw[0][0]) is not bool:
                arr = np.fromiter(chain.from_iterable(raw), float, 3 * len(raw)).reshape(-1, 3)
                if not np.isnan(arr).any():
                    return arr
        except (TypeError, ValueError, OverflowError):
            pass
    return _inferred_sample_array(raw)


def _inferred_sample_array(raw) -> np.ndarray:
    """Float array of a decoded ``samples`` value, as numpy infers it.

    Strings, nulls and all-boolean arrays are rejected; a boolean among
    numbers is coerced, since checking every element would cost more than
    decoding. Nulls and integers beyond 64 bits (``int`` from the stdlib,
    ``float`` from orjson) make an object array, checked for strings and
    nulls so both decoders agree.
    """
    try:
        arr = np.asarray(raw)
    except ValueError as exc:  # ragged rows
        raise FrameFormatError(f"samples must be [[u, v, z], ...]: {exc}") from exc
    kind = arr.dtype.kind
    if kind in "USb" or (kind == "O" and any(x is None or type(x) is str for x in arr.flat)):
        raise FrameFormatError(f"samples must be numbers, got {arr.dtype.name} values")
    try:
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FrameFormatError(f"samples must be numbers: {exc}") from exc


def _roi_from_dict(obj: dict, label: str, no_strings: bool) -> RoiPointSet:
    try:
        bbox_vals = obj["bbox"]
        conf = obj.get("conf", 1.0)
        raw = obj.get("samples", [])
    except (TypeError, KeyError) as exc:
        raise FrameFormatError(f"malformed ROI object: {exc}") from exc
    if not isinstance(bbox_vals, (list, tuple)) or len(bbox_vals) != 4:
        raise FrameFormatError(f"bbox must be [u0, v0, u1, v1], got {bbox_vals!r}")
    coords = [_number(c, "bbox coordinate") for c in bbox_vals]
    bbox = BoundingBox(*coords, label=label, confidence=_number(conf, "conf"))
    return RoiPointSet(_sample_array(raw, no_strings), bbox)


def _nesting_depth(line: str) -> tuple[int, int | None]:
    """Deepest array/object nesting of a JSON text, and its number of quotes
    when it holds no backslash (None otherwise).

    Once the escape pairs are removed every quote opens or closes a string,
    so the brackets between quote pairs are the structure. Where the text
    stops being JSON the count may be off, but not before that point, so it
    is never below the depth a decoder reaches. Without a backslash every
    string of a JSON text is two quotes and what lies between them.
    """
    escaped = "\\" in line
    if escaped:
        line = _ESCAPE_PAIR.sub("", line)
    marks = line.encode("utf-8", "surrogatepass").translate(_DEPTH_STEP, _NOT_STRUCTURE)
    parts = marks.split(b'"')
    # cumsum sums int8 in the platform integer, so a deep line cannot wrap
    depth = int(np.frombuffer(b"".join(parts[::2]), dtype=np.int8).cumsum().max(initial=0))
    return depth, None if escaped else len(parts) - 1


def _decode(line: str):
    """``json.loads(line)``, computed by orjson where the two agree, and the
    line's quote count from ``_nesting_depth``.

    Lines nested deeper than ``_MAX_DEPTH`` raise ``ValueError``. orjson
    refuses what the stdlib reads leniently (``NaN``, ``Infinity``, numbers
    beyond the float range, lone surrogates); those lines are decoded by the
    stdlib, which also words the error.
    """
    depth, quotes = _nesting_depth(line)
    if depth > _MAX_DEPTH:
        raise ValueError(f"nested deeper than {_MAX_DEPTH} levels")
    if orjson is not None:
        try:
            return orjson.loads(line), quotes
        except orjson.JSONDecodeError:
            pass
    return json.loads(line), quotes


def parse_frame(line: str) -> DetectionFrame:
    """Parse one JSON log line into a DetectionFrame.

    Samples with non-positive depth or outside their bbox are dropped; the
    rest of the frame is kept.

    Decoding pauses the cyclic garbage collector and restores the caller's
    setting on every way out (https://docs.python.org/3/library/gc.html).
    A dense line decodes to thousands of lists; with the collector running,
    collections inside the decoder would promote them to older generations,
    whose full collections then land on a few frames as a latency tail. The
    decoded value holds no cycles and is freed by reference counting before
    the collector resumes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(line)
    finally:
        if enabled:
            gc.enable()


def _parse(line: str) -> DetectionFrame:
    try:
        obj, quotes = _decode(line)
    except (ValueError, RecursionError) as exc:  # includes json.JSONDecodeError
        raise FrameFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "t" not in obj:
        raise FrameFormatError("frame record must be an object with a 't' field")
    t = _number(obj["t"], "timestamp")
    face_obj = obj.get("face")
    hands_obj = obj.get("hands", [])
    objects = (obj, face_obj, *hands_obj) if isinstance(hands_obj, list) else (obj, face_obj)
    # when every quote belongs to a key of these objects, no value is a string
    no_strings = quotes == 2 * sum(len(o) for o in objects if type(o) is dict)
    face = None if face_obj is None else _roi_from_dict(face_obj, FACE, no_strings)
    if not isinstance(hands_obj, list):
        raise FrameFormatError("'hands' must be an array")
    hands = tuple(_roi_from_dict(h, HAND, no_strings) for h in hands_obj)
    return DetectionFrame(t, face, hands)


def _orjson_writes_as_json(obj) -> bool:
    """Whether orjson writes ``obj`` with the bytes ``json.dumps`` gives it.

    Floats must be 0 or in ``_ORJSON_FLOAT_RANGE``, strings printable ASCII
    (the stdlib escapes the rest), and arrays float64, checked in one pass.
    Any other type is left to the stdlib.
    """
    kind = type(obj)
    if kind is float:
        return obj == 0.0 or _ORJSON_FLOAT_RANGE[0] <= abs(obj) < _ORJSON_FLOAT_RANGE[1]
    if kind is list or kind is tuple:
        return all(map(_orjson_writes_as_json, obj))
    if kind is dict:
        return all(map(_orjson_writes_as_json, obj)) and all(
            map(_orjson_writes_as_json, obj.values()))
    if kind is str:
        return obj.isascii() and "\x7f" not in obj
    if kind is np.ndarray:
        if obj.dtype != np.float64:
            return False
        mag = np.abs(obj)
        low, high = _ORJSON_FLOAT_RANGE
        return bool(((obj == 0.0) | ((mag >= low) & (mag < high))).all())
    return obj is None or kind is int or kind is bool


def dumps_line(obj) -> str:
    """``json.dumps(obj, separators=(",", ":"))``, computed by orjson where the two agree.

    A numpy array in ``obj`` is written as its ``tolist()``. Where orjson is
    absent, a value is out of its range (see ``_orjson_writes_as_json``) or
    orjson refuses it (an integer beyond 64 bits), the stdlib writes the line.
    """
    if orjson is not None and _orjson_writes_as_json(obj):
        try:
            return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        except orjson.JSONEncodeError:
            pass
    return json.dumps(obj, separators=(",", ":"), default=np.ndarray.tolist)


def _roi_to_dict(roi: RoiPointSet) -> dict:
    bb = roi.source_bbox
    return {
        "bbox": [bb.u_min, bb.v_min, bb.u_max, bb.v_max],
        "conf": bb.confidence,
        # the array goes in whole, so that dumps_line checks it in one pass
        "samples": roi.samples,
    }


def frame_to_line(frame: DetectionFrame) -> str:
    return dumps_line({
        "t": frame.timestamp,
        "face": None if frame.face is None else _roi_to_dict(frame.face),
        "hands": [_roi_to_dict(h) for h in frame.hands],
    })


def read_frames(
    lines: Iterable[str], on_skip: Callable[[int, str], None] | None = None
) -> Iterator[DetectionFrame]:
    """Iterate frames from JSON log lines, skipping the lines that fail.

    A malformed line, or one whose timestamp does not increase past the last
    frame's, is dropped and reported via ``on_skip(line_number, message)``.
    """
    last_t = None
    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():  # strip() would copy the line
            continue
        try:
            frame = parse_frame(line)
            if last_t is not None and frame.timestamp <= last_t:
                raise FrameFormatError(
                    f"timestamp {frame.timestamp} does not increase past {last_t}"
                )
        except FrameFormatError as exc:
            if on_skip is not None:
                on_skip(line_no, str(exc))
            continue
        last_t = frame.timestamp
        yield frame
