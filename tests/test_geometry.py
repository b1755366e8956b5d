import math

import numpy as np
import pytest

from pointray.geometry import (
    CameraIntrinsics,
    default_intrinsics,
    deproject,
    project,
)


def test_deproject_principal_point(intr):
    p = deproject(intr.cx, intr.cy, 2.0, intr)
    assert type(p) is tuple and len(p) == 3 and all(type(c) is float for c in p)
    assert p == (0.0, 2.0, intr.camera_height)


def test_deproject_analytic():
    intr = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480,
                            camera_height=1.0)
    x, y, z = deproject(820.0, 240.0, 2.0, intr)
    assert x == pytest.approx(2.0, abs=1e-12)
    assert (y, z) == (2.0, 1.0)


def test_deproject_world_examples():
    # level camera 1 m above the ground: depth is world Y, image rows map to
    # heights camera_height - (v - cy) * depth / fy
    intr = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480,
                            camera_height=1.0)
    assert deproject(320.0, 240.0, 3.0, intr) == (0.0, 3.0, 1.0)
    assert deproject(320.0, 490.0, 2.0, intr) == (0.0, 2.0, 0.0)
    assert deproject(445.0, 190.0, 2.0, intr) == (0.5, 2.0, 1.2)


def test_project_optical_axis(intr):
    assert project(np.array([0.0, 2.0, intr.camera_height]), intr) == (intr.cx, intr.cy, 2.0)


def test_project_analytic():
    intr = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480,
                            camera_height=1.0)
    u, v, depth = project(np.array([2.0, 2.0, 1.0]), intr)
    assert u == pytest.approx(820.0, abs=1e-12)
    assert (v, depth) == (240.0, 2.0)


def test_round_trips(intr):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        u = rng.uniform(0, intr.width)
        v = rng.uniform(0, intr.height)
        z = rng.uniform(0.1, 10.0)
        u2, v2, z2 = project(deproject(u, v, z, intr), intr)
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9 and abs(z2 - z) < 1e-9
    for _ in range(1000):
        p = np.array([rng.uniform(-3, 3), rng.uniform(0.1, 10.0), rng.uniform(-1, 3)])
        p2 = deproject(*project(p, intr), intr)
        assert np.max(np.abs(p2 - p)) < 1e-9


def test_deproject_rejects_nonpositive_depth(intr):
    for z in (0.0, -1.0):
        with pytest.raises(ValueError, match="cannot deproject non-positive depth"):
            deproject(10.0, 10.0, z, intr)


def test_project_behind_camera(intr):
    for depth in (0.0, -0.5):
        with pytest.raises(ValueError, match="is behind the camera"):
            project(np.array([0.0, depth, 1.0]), intr)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"fx": 0.0}, r"fx: must be a number in \(0, inf\), got 0.0"),
        ({"fy": -5.0}, r"fy: must be a number in \(0, inf\), got -5.0"),
        ({"cx": 640.0}, r"cx: must be a number in \[0, width\), got 640.0"),
        ({"cy": -1.0}, r"cy: must be a number in \[0, height\), got -1.0"),
        ({"camera_height": 0.0}, r"camera_height: must be a number in \(0, inf\), got 0.0"),
    ],
)
def test_intrinsics_invariants(kwargs, message):
    base = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480,
                camera_height=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=message):
        CameraIntrinsics(**base)


def test_default_intrinsics_matches_sensor():
    intr = default_intrinsics()
    assert (intr.width, intr.height) == (640, 480)
    assert intr.hfov_deg == 68.0
    # focal length consistent with the stated horizontal field of view
    assert 2 * math.degrees(math.atan(intr.width / 2 / intr.fx)) == pytest.approx(68.0, abs=1e-9)
