"""Camera model, coordinate frames, and pixel/3D projection.

Conventions used throughout the package:

* camera frame: x right, y down, z forward along the optical axis (meters);
* world frame: X right, Y along the camera's forward axis, Z up, ground
  plane at Z = 0.

The camera is assumed to be mounted level (no pitch or roll), so the two
frames differ only by an axis relabeling plus the mounting height offset.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

CAMERA_FRAME = "camera"
WORLD_FRAME = "world"


class GeometryError(ValueError):
    """Base class for invalid geometric inputs."""


class InvalidDepthError(GeometryError):
    """Depth is zero or negative where a positive depth is required."""


class BehindCameraError(GeometryError):
    """Point lies on or behind the image plane and cannot be projected."""


class FrameMismatchError(GeometryError):
    """Operation combined points tagged with different coordinate frames."""


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
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError(f"focal lengths must be positive (fx={self.fx}, fy={self.fy})")
        if not (0 <= self.cx < self.width):
            raise GeometryError(f"cx={self.cx} outside [0, {self.width})")
        if not (0 <= self.cy < self.height):
            raise GeometryError(f"cy={self.cy} outside [0, {self.height})")
        if self.camera_height <= 0:
            raise GeometryError(f"camera_height must be positive, got {self.camera_height}")

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


@dataclass(frozen=True)
class DepthSample:
    """One sparse depth reading: pixel location plus depth along the optical axis."""

    u: float
    v: float
    z: float

    def __post_init__(self) -> None:
        if not self.z > 0:
            raise InvalidDepthError(f"depth must be positive, got z={self.z}")


@dataclass(frozen=True)
class Point3:
    """3D point tagged with its coordinate frame; mixing frames raises."""

    x: float
    y: float
    z: float
    frame: str = CAMERA_FRAME

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def _check_frame(self, other: "Point3") -> None:
        if self.frame != other.frame:
            raise FrameMismatchError(f"frame mismatch: {self.frame!r} vs {other.frame!r}")

    def __sub__(self, other: "Point3") -> np.ndarray:
        self._check_frame(other)
        return np.array([self.x - other.x, self.y - other.y, self.z - other.z])

    def distance_to(self, other: "Point3") -> float:
        self._check_frame(other)
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


def deproject(sample: DepthSample, intr: CameraIntrinsics) -> Point3:
    """Back-project a pixel + depth into the camera frame."""
    if not sample.z > 0:
        raise InvalidDepthError(f"cannot deproject non-positive depth z={sample.z}")
    x = (sample.u - intr.cx) * sample.z / intr.fx
    y = (sample.v - intr.cy) * sample.z / intr.fy
    return Point3(x, y, sample.z, CAMERA_FRAME)


def project(p: Point3, intr: CameraIntrinsics) -> DepthSample:
    """Project a camera-frame point onto the image, keeping its depth."""
    if p.frame != CAMERA_FRAME:
        raise FrameMismatchError(f"project expects a camera-frame point, got {p.frame!r}")
    if not p.z > 0:
        raise BehindCameraError(f"point at z={p.z} is behind the camera")
    u = intr.fx * p.x / p.z + intr.cx
    v = intr.fy * p.y / p.z + intr.cy
    return DepthSample(u, v, p.z)


def camera_to_world(p: Point3, intr: CameraIntrinsics) -> Point3:
    """Relabel camera axes into the world frame and apply the mounting height."""
    if p.frame != CAMERA_FRAME:
        raise FrameMismatchError(f"camera_to_world expects a camera-frame point, got {p.frame!r}")
    return Point3(p.x, p.z, intr.camera_height - p.y, WORLD_FRAME)


def world_to_camera(p: Point3, intr: CameraIntrinsics) -> Point3:
    """Inverse of :func:`camera_to_world`."""
    if p.frame != WORLD_FRAME:
        raise FrameMismatchError(f"world_to_camera expects a world-frame point, got {p.frame!r}")
    return Point3(p.x, intr.camera_height - p.z, p.y, CAMERA_FRAME)
