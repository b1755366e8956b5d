"""Detection-frame data model and the line-delimited JSON log format.

One log line per frame::

    {"t": 0.033,
     "face": {"bbox": [u0, v0, u1, v1], "conf": 0.98, "samples": [[u, v, z], ...]} | null,
     "hands": [{"bbox": [...], "conf": 0.91, "samples": [...]}, ...]}

Depth samples carry pixel coordinates and depth in meters; invalid depth is
never encoded (no zero sentinels), it is simply absent from ``samples``.
``t``, the bbox coordinates, ``conf`` and the sample values are JSON numbers.

Lines are decoded with ``orjson`` when it is installed and with the stdlib
``json`` otherwise; every line gets the same outcome either way.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass, field
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
# the bytes bytes.translate deletes so that only quotes and brackets remain
_NOT_STRUCTURE = bytes(range(256)).translate(None, b'"[]{}')
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[[ord("["), ord("{")]] = 1
_DEPTH_STEP[[ord("]"), ord("}")]] = -1


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


def _sample_rows(samples, bbox: BoundingBox) -> tuple[np.ndarray, np.ndarray]:
    """``samples`` as (n, 3) floats, (0, 3) when empty, and the mask of the
    rows an ROI may hold: z > 0 and (u, v) inside ``bbox``."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise FrameFormatError(f"samples must be [[u, v, z], ...], got shape {arr.shape}")
    return arr, (arr[:, 2] > 0) & bbox.inside(arr[:, 0], arr[:, 1])


@dataclass(frozen=True, eq=False)
class RoiPointSet:
    """Depth samples belonging to one detected region of interest.

    ``samples`` is an (n, 3) float array with columns u, v, z. All samples
    lie inside ``source_bbox`` and have positive depth; a raw detection may
    legitimately carry zero samples (the sensor returned nothing). Only the
    constructor checks this; sets of rows known to pass skip the check.
    """

    samples: np.ndarray
    source_bbox: BoundingBox

    def __post_init__(self) -> None:
        arr, valid = _sample_rows(self.samples, self.source_bbox)
        if not valid.all():
            raise FrameFormatError("depth samples must have z > 0 and lie inside their bbox")
        object.__setattr__(self, "samples", np.ascontiguousarray(arr))
        self.samples.setflags(write=False)

    @classmethod
    def _unchecked(cls, samples: np.ndarray, bbox: BoundingBox) -> "RoiPointSet":
        """An ROI over (n, 3) float rows that pass the constructor's check."""
        roi = object.__new__(cls)  # skips __init__ and so __post_init__
        object.__setattr__(roi, "samples", np.ascontiguousarray(samples))
        object.__setattr__(roi, "source_bbox", bbox)
        roi.samples.setflags(write=False)
        return roi

    @classmethod
    def _valid_part(cls, samples, bbox: BoundingBox) -> "RoiPointSet":
        """An ROI over the rows of ``samples`` that pass the constructor's check."""
        arr, valid = _sample_rows(samples, bbox)
        return cls._unchecked(arr[valid], bbox)

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
        return RoiPointSet._valid_part(self.samples, bbox)


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


def _sample_array(raw) -> np.ndarray:
    """Float array of a decoded ``samples`` value.

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


def _roi_from_dict(obj: dict, label: str) -> RoiPointSet:
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
    return RoiPointSet._valid_part(_sample_array(raw), bbox)


def _nesting_depth(line: str) -> int:
    """Deepest array/object nesting of a JSON text.

    Once the escape pairs are removed every quote opens or closes a string,
    so the brackets between quote pairs are the structure. Where the text
    stops being JSON the count may be off, but not before that point, so it
    is never below the depth a decoder reaches.
    """
    if "\\" in line:
        line = _ESCAPE_PAIR.sub("", line)
    marks = line.encode("utf-8", "surrogatepass").translate(None, _NOT_STRUCTURE)
    structure = np.frombuffer(b"".join(marks.split(b'"')[::2]), dtype=np.uint8)
    return int(np.cumsum(_DEPTH_STEP[structure]).max(initial=0))


def _decode(line: str):
    """``json.loads(line)``, computed by orjson where the two agree.

    Lines nested deeper than ``_MAX_DEPTH`` raise ``ValueError``. orjson
    refuses what the stdlib reads leniently (``NaN``, ``Infinity``, numbers
    beyond the float range, lone surrogates); those lines are decoded by the
    stdlib, which also words the error.
    """
    if _nesting_depth(line) > _MAX_DEPTH:
        raise ValueError(f"nested deeper than {_MAX_DEPTH} levels")
    if orjson is not None:
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
    return json.loads(line)


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
        obj = _decode(line)
    except (ValueError, RecursionError) as exc:  # includes json.JSONDecodeError
        raise FrameFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "t" not in obj:
        raise FrameFormatError("frame record must be an object with a 't' field")
    t = _number(obj["t"], "timestamp")
    face_obj = obj.get("face")
    face = None if face_obj is None else _roi_from_dict(face_obj, FACE)
    hands_obj = obj.get("hands", [])
    if not isinstance(hands_obj, list):
        raise FrameFormatError("'hands' must be an array")
    hands = tuple(_roi_from_dict(h, HAND) for h in hands_obj)
    return DetectionFrame(t, face, hands)


def _roi_to_dict(roi: RoiPointSet) -> dict:
    bb = roi.source_bbox
    return {
        "bbox": [bb.u_min, bb.v_min, bb.u_max, bb.v_max],
        "conf": bb.confidence,
        "samples": roi.samples.tolist(),
    }


def frame_to_dict(frame: DetectionFrame) -> dict:
    return {
        "t": frame.timestamp,
        "face": None if frame.face is None else _roi_to_dict(frame.face),
        "hands": [_roi_to_dict(h) for h in frame.hands],
    }


def frame_to_line(frame: DetectionFrame) -> str:
    return json.dumps(frame_to_dict(frame), separators=(",", ":"))


def read_frames(
    lines: Iterable[str], on_skip: Callable[[int, str], None] | None = None
) -> Iterator[DetectionFrame]:
    """Iterate frames from JSON log lines, skipping the lines that fail.

    A malformed line, or one whose timestamp does not increase past the last
    frame's, is dropped and reported via ``on_skip(line_number, message)``.
    """
    last_t = None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
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
