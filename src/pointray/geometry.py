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
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np


class GeometryError(ValueError):
    """Base class for invalid geometric inputs."""


class InvalidDepthError(GeometryError):
    """Depth is zero or negative where a positive depth is required."""


class BehindCameraError(GeometryError):
    """Point lies on or behind the image plane and cannot be projected."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters plus the mounting height of a level camera.

    Focal lengths and principal point are in pixels, ``camera_height`` is
    meters above the ground plane. ``hfov_deg`` is informational.
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
        for name in ("fx", "fy", "camera_height"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise GeometryError(f"{name} must be finite and positive, got {value}")
        if not (0 <= self.cx < self.width):
            raise GeometryError(f"cx={self.cx} outside [0, {self.width})")
        if not (0 <= self.cy < self.height):
            raise GeometryError(f"cy={self.cy} outside [0, {self.height})")

    @classmethod
    def from_dict(cls, data: dict) -> "CameraIntrinsics":
        return cls(
            fx=float(data["fx"]),
            fy=float(data["fy"]),
            cx=float(data["cx"]),
            cy=float(data["cy"]),
            width=int(data["width"]),
            height=int(data["height"]),
            camera_height=float(data["camera_height"]),
            hfov_deg=float(data.get("hfov_deg", 0.0)),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path: str | Path) -> "CameraIntrinsics":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")


def default_intrinsics() -> CameraIntrinsics:
    """Bundled 640x480, 68-degree-hfov sensor mounted 1.2 m above ground."""
    text = resources.files("pointray").joinpath("data/intrinsics_default.json").read_text("utf-8")
    return CameraIntrinsics.from_dict(json.loads(text))


def deproject(u: float, v: float, z: float, intr: CameraIntrinsics) -> np.ndarray:
    """Back-project pixel (u, v) at depth z into a world-frame point (X, Y, Z)."""
    if not z > 0:
        raise InvalidDepthError(f"cannot deproject non-positive depth z={z}")
    x = (u - intr.cx) * z / intr.fx
    y = (v - intr.cy) * z / intr.fy
    return np.array([x, z, intr.camera_height - y])


def project(p: np.ndarray, intr: CameraIntrinsics) -> tuple[float, float, float]:
    """Project a world-frame point onto the image; returns (u, v, depth)."""
    x, depth, height = p
    if not depth > 0:
        raise BehindCameraError(f"point at depth {depth} is behind the camera")
    u = intr.fx * x / depth + intr.cx
    v = intr.fy * (intr.camera_height - height) / depth + intr.cy
    return u, v, depth
