"""Camera model and pixel <-> world projection.

Points live in one frame, the world frame: X right, Y forward along the
camera's optical axis, Z up, ground plane at Z = 0 (meters).

The camera is assumed to be mounted level (no pitch or roll) at
``camera_height``, so the only camera-frame quantity left is a pixel's depth
along the optical axis, which equals world Y. :func:`deproject` takes pixel
plus depth straight to a world point and :func:`project` is its inverse.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib import resources


def finite_number(value) -> float | None:
    """``value`` as a float if it is a number, not a bool, and finite as a
    double (NaN, the infinities and integers past 1.8e308 are not); else None."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def check_fields(obj, **intervals: str) -> None:
    """Check fields of the frozen dataclass ``obj`` and store each as its type.

    Each keyword gives a field's interval, such as ``"(0, inf)"`` or
    ``"[0, width)"``, where a bound may name a field checked before it. The
    field must hold a :func:`finite_number` inside it, and an ``int`` where
    the field is declared ``int``. Errors start with the field's name.
    """
    types = {f.name: f.type for f in fields(obj)}
    for name, interval in intervals.items():
        value = getattr(obj, name)
        kind = int if types[name] in ("int", int) else float
        lo, hi = (getattr(obj, b) if b in types else float(b)
                  for b in map(str.strip, interval[1:-1].split(",")))
        x = finite_number(value)
        if (x is None or (kind is int and not isinstance(value, int))
                or not (lo < x if interval[0] == "(" else lo <= x)
                or not (x < hi if interval[-1] == ")" else x <= hi)):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{name}: must be {what} in {interval}, got {reprlib.repr(value)}")
        object.__setattr__(obj, name, kind(value))


def from_json(cls, data, where: str = ""):
    """``cls(**data)`` for the dataclass ``cls`` and a decoded JSON object.

    Unknown keys and missing keys of fields without a default are errors. A
    field whose default factory is a dataclass is built from its own object
    the same way. Errors are ValueErrors that name the field, qualified by
    ``where`` when nested (``noise.sigma0``).
    """
    prefix = f"{where}." if where else ""
    if not isinstance(data, dict):
        raise ValueError(f"{where or 'top level'}: must be a JSON object, got {reprlib.repr(data)}")
    known = {f.name: f for f in fields(cls)}
    bad = [f"unknown key {prefix}{name}" for name in data if name not in known] + [
        f"missing key {prefix}{name}" for name, f in known.items()
        if name not in data and f.default is MISSING and f.default_factory is MISSING]
    if bad:
        raise ValueError("; ".join(bad))
    nested = {name: from_json(known[name].default_factory, value, prefix + name)
              for name, value in data.items() if is_dataclass(known[name].default_factory)}
    try:
        return cls(**{**data, **nested})
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters plus the mounting height of a level camera.

    Focal lengths and principal point are in pixels, ``camera_height`` is
    meters above the ground plane. ``hfov_deg`` is informational; 0 means
    unknown.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    camera_height: float
    hfov_deg: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self, fx="(0, inf)", fy="(0, inf)", width="[1, inf)", height="[1, inf)",
                     cx="[0, width)", cy="[0, height)", camera_height="(0, inf)",
                     hfov_deg="[0, 180)")


def default_intrinsics() -> CameraIntrinsics:
    """Bundled 640x480, 68-degree-hfov sensor mounted 1.2 m above ground."""
    text = resources.files(__package__).joinpath("data/intrinsics_default.json").read_text("utf-8")
    return from_json(CameraIntrinsics, json.loads(text))


def deproject(u: float, v: float, z: float, intr: CameraIntrinsics) -> tuple[float, float, float]:
    """Back-project pixel (u, v) at depth z into a world-frame point (X, Y, Z)."""
    if not z > 0:
        raise ValueError(f"cannot deproject non-positive depth z={z}")
    x = (u - intr.cx) * z / intr.fx
    y = (v - intr.cy) * z / intr.fy
    return x, z, intr.camera_height - y


def project(p, intr: CameraIntrinsics) -> tuple[float, float, float]:
    """Project a world-frame point onto the image; returns (u, v, depth)."""
    x, depth, height = p
    if not depth > 0:
        raise ValueError(f"point at depth {depth} is behind the camera")
    u = intr.fx * x / depth + intr.cx
    v = intr.fy * (intr.camera_height - height) / depth + intr.cy
    return u, v, depth
