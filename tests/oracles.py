"""Independent reference implementations the production code is checked against.

These deliberately use different algorithms from the package: brute-force
O(n^2) DBSCAN over an explicit adjacency matrix, a parametric ray-plane
solver, and a textbook 2-state Kalman filter with its Riccati fixed point.
The accuracy experiments' grid cells are written out as two separate
per-cell loops, each spelling out its own random stream. The frame renderer
is written in its plainest form: one numpy call per draw and a pose's
geometry recomputed on every frame. The tracker state, the keypoint and the
goal gate are also kept in their plainer numpy forms (2-element state
arrays, ``np.mean`` and ``np.var`` over per-column arrays), which the
package's scalar and single-array forms must match bit for bit. The
per-frame pipeline is kept as one pass per strategy, sharing nothing
between strategies, which the package's shared pass must match bit for bit.
The experiment cells' summaries are numpy's NaN-skipping reductions, which
the package's once-per-cell sums must match bit for bit. A pose's geometry and
the step from two keypoints to the pointing direction and goal are kept in
their numpy forms, one 3-element array per point, which the package's
tuples of floats must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from pointray.frames import FACE, HAND, BoundingBox, DetectionFrame, RoiPointSet
from pointray.geometry import deproject
from pointray.pointing import (
    MIN_DESCENT, FrameResult, PointingEstimate, angular_error_deg, ground_intersection_world,
    ray_angles, select_pointing_hand,
)
from pointray.roi import (
    DEFAULT_DBSCAN_EPS, DEFAULT_DBSCAN_MIN_PTS, KeypointStrategy, NoEstimate, REASON_EMPTY_ROI,
    REASON_NO_FACE, REASON_NO_GROUND_HIT, cobb_filter, dbscan_depth, estimate_keypoint,
    select_target_cluster,
)
from pointray.simulate import (
    BBOX_MARGIN, FACE_SIZE_M, FG_DISC_RATIO, HAND_SIZE_M, WALL_OFFSET_M, GroundTruth, NoiseModel,
    _roi_layout, synthesize_frame,
)
from pointray.tracking import (
    GATE_MODE_GOAL, INIT_SPEED_SIGMA, CommittedGoal, GoalGate, _yaw_deviations,
)

# no noise, no dropout and no bbox jitter: the pipeline is analytically exact
NOISELESS = NoiseModel(sigma0=0.0, p_drop_max=0.0, beta=0.0, bbox_jitter_px=0.0)


def _dbscan_components(depths, eps: float, min_pts: int):
    """Adjacency, core flags and core component ids (-1 off core), by brute force."""
    z = np.asarray(depths, dtype=float).ravel()
    n = z.size
    adj = np.abs(z[:, None] - z[None, :]) <= eps  # includes self
    core = adj.sum(axis=1) >= min_pts

    # Connected components over core-core edges, one breadth-first frontier
    # at a time.
    assigned = np.full(n, -1, dtype=int)
    cid = 0
    for i in range(n):
        if not core[i] or assigned[i] >= 0:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[i] = True
        while frontier.any():
            assigned[frontier] = cid
            frontier = adj[frontier].any(axis=0) & core & (assigned < 0)
        cid += 1
    return z, adj, core, assigned, cid


def dbscan_reference(depths, eps: float, min_pts: int):
    """Naive O(n^2) DBSCAN over 1-D values.

    Returns ``(core_flags, cluster_sets, noise_set)`` where ``cluster_sets``
    is a frozenset of frozensets of *core* indices (one per cluster) and
    ``noise_set`` holds the indices unreachable from any core point.
    """
    z, adj, core, assigned, n_clusters = _dbscan_components(depths, eps, min_pts)
    clusters = frozenset(
        frozenset(np.flatnonzero(core & (assigned == c)).tolist()) for c in range(n_clusters)
    )
    reachable = adj[:, core].any(axis=1) if core.any() else np.zeros(z.size, dtype=bool)
    noise = frozenset(np.flatnonzero(~core & ~reachable).tolist())
    return core, clusters, noise


def dbscan_reference_members(depths, eps: float, min_pts: int):
    """Naive O(n^2) DBSCAN with border points assigned, over 1-D values.

    A non-core point within ``eps`` of some core joins the component of the
    lowest-index core within ``eps`` of it. Returns ``(clusters, noise_set)``
    where ``clusters`` maps each cluster's full member set (cores and border
    points) to the mean of its depths, summed exactly by ``math.fsum``.
    """
    z, adj, core, assigned, n_clusters = _dbscan_components(depths, eps, min_pts)
    labels = assigned.copy()
    for i in np.flatnonzero(~core):
        reaching = np.flatnonzero(adj[i] & core)
        if reaching.size:
            labels[i] = assigned[reaching.min()]
    clusters = {}
    for c in range(n_clusters):
        members = np.flatnonzero(labels == c)
        clusters[frozenset(members.tolist())] = math.fsum(z[members].tolist()) / members.size
    return clusters, frozenset(np.flatnonzero(labels < 0).tolist())


def ray_plane_oracle(face_world, hand_world):
    """Solve face + s*(hand - face) for world z = 0; None when not descending."""
    f = np.asarray(face_world, dtype=float)
    h = np.asarray(hand_world, dtype=float)
    dz = h[2] - f[2]
    if dz >= -1e-12:
        return None
    s = f[2] / -dz
    if s < 0:
        return None
    hit = f + s * (h - f)
    return hit[:2]


def angular_error_reference(direction, true_ray) -> float:
    """Degrees between ``-direction`` and ``true_ray``, from numpy's own
    cross product: atan2(|est x ref|, est . ref)."""
    est = -np.asarray(direction, dtype=float)
    ref = np.asarray(true_ray, dtype=float)
    return math.degrees(math.atan2(float(np.linalg.norm(np.cross(est, ref))),
                                   float(np.dot(est, ref))))


def collinearity_residual(goal_xy, face_world, hand_world) -> float:
    """Distance from the goal point to the infinite face-hand line."""
    f = np.asarray(face_world, dtype=float)
    h = np.asarray(hand_world, dtype=float)
    g = np.array([goal_xy[0], goal_xy[1], 0.0])
    d = h - f
    cross = np.cross(g - f, d)
    return float(np.linalg.norm(cross) / np.linalg.norm(d))


class ScalarCvKalman:
    """Textbook 2-state (position, velocity) Kalman filter on scalars."""

    def __init__(self, sigma_accel: float, sigma_meas: float, x0: float,
                 p0_pos: float, p0_vel: float):
        self.x = np.array([x0, 0.0])
        self.p = np.diag([p0_pos, p0_vel])
        self.q_scale = sigma_accel**2
        self.r = sigma_meas**2
        self.last_gain = np.zeros(2)

    def step(self, dt: float, measurement: float) -> float:
        f = np.array([[1.0, dt], [0.0, 1.0]])
        q = self.q_scale * np.array(
            [[0.25 * dt**4, 0.5 * dt**3], [0.5 * dt**3, dt**2]]
        )
        self.x = f @ self.x
        self.p = f @ self.p @ f.T + q
        s = self.p[0, 0] + self.r
        k = self.p[:, 0] / s
        self.last_gain = k
        self.x = self.x + k * (measurement - self.x[0])
        ikh = np.eye(2) - np.outer(k, [1.0, 0.0])
        self.p = ikh @ self.p @ ikh.T + np.outer(k, k) * self.r
        return float(self.x[0])


class ArrayTrack:
    """``tracking.Track`` with its center, velocity and size held as
    2-element arrays, updated by whole-array arithmetic."""

    def __init__(self, track_id, bbox, params):
        self.id = track_id
        self.label = bbox.label
        self.confidence = bbox.confidence
        self.misses = 0
        self.center = np.array(bbox.center)
        self.velocity = np.zeros(2)
        self.size = np.array([bbox.width, bbox.height])
        self.p_pos = self.p_size = params.sigma_meas**2
        self.p_cross = 0.0
        self.p_vel = INIT_SPEED_SIGMA**2
        self._params = params

    def predict(self, dt):
        sa2 = self._params.sigma_accel**2
        q_pos = 0.25 * dt**4 * sa2
        p_pos = self.p_pos + (2.0 * dt * self.p_cross + dt * dt * self.p_vel + q_pos)
        p_cross = self.p_cross + (dt * self.p_vel + 0.5 * dt**3 * sa2)
        p_vel = self.p_vel + dt**2 * sa2
        p_size = self.p_size + q_pos
        if not all(map(math.isfinite, (p_pos, p_cross, p_vel, p_size))):
            raise OverflowError(f"track covariance overflows over a {dt} s gap")
        self.center = self.center + dt * self.velocity
        self.p_pos, self.p_cross, self.p_vel, self.p_size = p_pos, p_cross, p_vel, p_size

    def update(self, bbox):
        r = self._params.sigma_meas**2
        s = self.p_pos + r
        k_pos = self.p_pos / s
        k_vel = self.p_cross / s
        innovation = np.array(bbox.center) - self.center
        self.center = self.center + k_pos * innovation
        self.velocity = self.velocity + k_vel * innovation
        keep = 1.0 - k_pos
        p_pos, p_cross, p_vel = self.p_pos, self.p_cross, self.p_vel
        self.p_pos = keep * keep * p_pos + r * k_pos * k_pos
        self.p_cross = keep * (p_cross - k_vel * p_pos) + r * k_pos * k_vel
        self.p_vel = p_vel - 2.0 * k_vel * p_cross + k_vel * k_vel * p_pos + r * k_vel * k_vel
        k_size = self.p_size / (self.p_size + r)
        self.size = self.size + k_size * (np.array([bbox.width, bbox.height]) - self.size)
        self.p_size = (1.0 - k_size) ** 2 * self.p_size + r * k_size * k_size
        self.confidence = bbox.confidence
        self.misses = 0

    def bbox(self):
        cu, cv = self.center
        w = max(self.size[0], 1e-6)
        h = max(self.size[1], 1e-6)
        return BoundingBox(cu - 0.5 * w, cv - 0.5 * h, cu + 0.5 * w, cv + 0.5 * h,
                           self.label, self.confidence)


def keypoint_reference(roi, strategy, intr, *, eps=DEFAULT_DBSCAN_EPS,
                       min_pts=DEFAULT_DBSCAN_MIN_PTS):
    """``roi.estimate_keypoint`` with its means taken by ``np.mean``."""
    if len(roi) == 0:
        raise NoEstimate(REASON_EMPTY_ROI, "empty ROI")
    if strategy is KeypointStrategy.DBSCAN_CLUSTER:
        target = select_target_cluster(dbscan_depth(roi.z, eps, min_pts)[0])
        chosen = roi.samples[target.member_indices]
        depth = target.mean_depth
    else:
        chosen = roi.samples
        if strategy is KeypointStrategy.MEAN_DEPTH:
            depth = float(np.mean(roi.z))
        elif strategy is KeypointStrategy.MEDIAN_DEPTH:
            depth = float(np.median(roi.z))
        else:
            depth = float(np.min(roi.z))
    return deproject(float(np.mean(chosen[:, 0])), float(np.mean(chosen[:, 1])), depth, intr)


class GoalGateReference(GoalGate):
    """The goal gate with one contiguous array per buffered quantity, rebuilt
    from the window on every frame."""

    def update(self, result):
        t = result.timestamp
        cutoff = t - self.params.max_age_s
        while self._entries and self._entries[0][0] < cutoff:
            self._entries.popleft()
        if result.goal is not None:
            est = result.estimate
            self._entries.append((t, *result.goal, est.pitch_deg, est.yaw_deg))
        if len(self._entries) < self.params.window:
            return None
        _, xs, ys, pitches, yaws = map(np.array, zip(*self._entries))
        if self.params.mode == GATE_MODE_GOAL:
            trace = float(np.var(xs, ddof=1) + np.var(ys, ddof=1))
            threshold = self.params.tau
        else:
            trace = float(np.var(pitches, ddof=1) + np.var(_yaw_deviations(yaws), ddof=1))
            threshold = self.params.tau_angle
        if trace >= threshold:
            return None
        self._entries.clear()
        return CommittedGoal(t, (float(np.mean(xs)), float(np.mean(ys))), trace)


def kalman_steady_state_gain(sigma_accel: float, sigma_meas: float, dt: float,
                             iters: int = 2000) -> np.ndarray:
    """Fixed point of the predict/update Riccati recursion for the CV model."""
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = sigma_accel**2 * np.array(
        [[0.25 * dt**4, 0.5 * dt**3], [0.5 * dt**3, dt**2]]
    )
    r = sigma_meas**2
    p = np.eye(2)
    k = np.zeros(2)
    for _ in range(iters):
        p = f @ p @ f.T + q
        s = p[0, 0] + r
        k = p[:, 0] / s
        ikh = np.eye(2) - np.outer(k, [1.0, 0.0])
        p = ikh @ p @ ikh.T + np.outer(k, k) * r
    return k


def keypoint_ray_reference(face_kp, hand_kp):
    """The pointing direction and the ground goal of two world keypoints, in
    numpy: ``(direction, goal)``, the goal an ``(x, y)`` pair or ``None``."""
    face_kp, hand_kp = np.array(face_kp, dtype=float), np.array(hand_kp, dtype=float)
    with np.errstate(all="ignore"):  # the keypoints may hold inf and NaN
        p = face_kp - hand_kp
        direction = tuple(p.tolist())
        if p[2] < MIN_DESCENT:
            return direction, None
        t = face_kp[2] / p[2]
        return direction, (float(face_kp[0] - t * p[0]), float(face_kp[1] - t * p[1]))


def pose_geometry_reference(subject, position, direction=None, target=None):
    """A pose's ``GroundTruth`` with eye and fingertip as numpy arrays."""
    if (direction is None) == (target is None):
        raise ValueError("exactly one of direction or target must be given")
    range_m, bearing_deg = position
    if range_m <= 0:
        raise ValueError(f"range must be positive, got {range_m}")
    b = math.radians(bearing_deg)
    eye = np.array([range_m * math.sin(b), range_m * math.cos(b), subject.eye_height])
    if direction is not None:
        pitch, yaw = math.radians(direction[0]), math.radians(direction[1])
        ch = math.cos(pitch)
        unit = np.array([math.sin(yaw) * ch, math.cos(yaw) * ch, -math.sin(pitch)])
    else:
        tx, ty = target
        to_target = np.array([tx - eye[0], ty - eye[1], -eye[2]])
        unit = to_target / np.linalg.norm(to_target)
    # the reach along the ray, as SubjectModel.reach_along gives it
    bz = float(unit[2]) * subject.shoulder_drop
    reach = -bz + math.sqrt(bz * bz + subject.arm_length**2 - subject.shoulder_drop**2)
    fingertip = eye + reach * unit
    pitch, yaw = ray_angles(unit)
    if unit[2] < -1e-12:
        s = eye[2] / -unit[2]
        goal = (float(eye[0] + s * unit[0]), float(eye[1] + s * unit[1]))
    else:
        goal = None
    return GroundTruth(eye=eye, fingertip=fingertip, pitch_deg=pitch, yaw_deg=yaw, goal=goal,
                       ray=tuple(map(float, unit)))


def estimate_frame_reference(frame, strategy, params, intr):
    """One frame under one strategy, in its own pass: the hand choice, then
    each ROI's keypoint, the face's before the hand's. ``dbscan`` clusters
    the raw ROI; the other strategies mask it by the center circle first."""
    def roi_keypoint(roi):
        if strategy is KeypointStrategy.DBSCAN_CLUSTER:
            return estimate_keypoint(roi, strategy, intr, eps=params.dbscan_eps,
                                     min_pts=params.dbscan_min_pts)
        return estimate_keypoint(cobb_filter(roi, params.cobb_ratio), strategy, intr)

    t = frame.timestamp
    if frame.face is None:
        return FrameResult(t, None, None, REASON_NO_FACE)
    try:
        hand = select_pointing_hand(frame.hands)
        face_kp = roi_keypoint(frame.face)
        hand_kp = roi_keypoint(hand)
        direction = tuple(np.subtract(face_kp, hand_kp).tolist())
        pitch, yaw = ray_angles([-c for c in direction])
    except NoEstimate as exc:
        return FrameResult(t, None, None, exc.reason)
    estimate = PointingEstimate(face_kp, hand_kp, direction, pitch, yaw)
    goal = ground_intersection_world(face_kp, hand_kp)
    return FrameResult(t, estimate, goal, REASON_NO_GROUND_HIT if goal is None else None)


def experiment_a_reference(scenario, intr, params, strategies, frames):
    """Experiment A cell by cell: (position, direction) cell ``c`` draws its
    frames from ``default_rng([seed, 0, c])`` at 30 Hz and every strategy
    scores the same frames. Yields ``(estimates, err, dpitch, dyaw)`` per
    (cell, strategy) in grid order, NaN where a frame gave no estimate."""
    for pos_idx, position in enumerate(scenario.positions):
        for dir_idx, direction in enumerate(scenario.directions):
            cell = pos_idx * len(scenario.directions) + dir_idx
            rng = np.random.default_rng([scenario.seed, 0, cell])
            counts = dict.fromkeys(strategies, 0)
            errs = {s: np.full(frames, np.nan) for s in strategies}
            dps = {s: np.full(frames, np.nan) for s in strategies}
            dys = {s: np.full(frames, np.nan) for s in strategies}
            for k in range(frames):
                frame, truth = synthesize_frame(
                    scenario.subject, position, direction=direction,
                    noise=scenario.noise, intr=intr, rng=rng, timestamp=k / 30.0,
                )
                for s in strategies:
                    est = estimate_frame_reference(frame, s, params, intr).estimate
                    if est is None:
                        continue
                    counts[s] += 1
                    errs[s][k] = angular_error_deg(est.direction, truth.ray)
                    dps[s][k] = est.pitch_deg - truth.pitch_deg
                    dys[s][k] = (est.yaw_deg - truth.yaw_deg + 180.0) % 360.0 - 180.0
            for s in strategies:
                yield counts[s], errs[s], dps[s], dys[s]


def angle_cell_means_reference(estimates, err_deg, dpitch_deg, dyaw_deg):
    """An experiment-A cell's mean error and mean absolute pitch and yaw
    offsets by ``np.nanmean``; NaN when the cell has no estimate."""
    if not estimates:
        return (float("nan"),) * 3
    return (float(np.nanmean(err_deg)), float(np.nanmean(np.abs(dpitch_deg))),
            float(np.nanmean(np.abs(dyaw_deg))))


def goal_cell_summary_reference(goals, err_cm):
    """An experiment-B cell's mean goal error by ``np.nanmean`` and its sample
    standard deviation by ``np.nanstd(..., ddof=1)`` over the non-NaN values;
    NaN without a goal, the deviation NaN below two."""
    mean = float(np.nanmean(err_cm)) if goals else float("nan")
    std = float(np.nanstd(err_cm[~np.isnan(err_cm)], ddof=1)) if goals > 1 else float("nan")
    return mean, std


def experiment_b_reference(scenario, intr, params, strategy, frames):
    """Experiment B cell by cell: (position, floor target) cell ``c`` draws its
    frames from ``default_rng([seed, 1, c])`` at 30 Hz. Yields ``(goals,
    err_cm)`` per cell in grid order, NaN where a frame gave no goal."""
    for pos_idx, position in enumerate(scenario.positions):
        for tgt_idx, target in enumerate(scenario.floor_targets):
            cell = pos_idx * len(scenario.floor_targets) + tgt_idx
            rng = np.random.default_rng([scenario.seed, 1, cell])
            goals, err = 0, np.full(frames, np.nan)
            for k in range(frames):
                frame, truth = synthesize_frame(
                    scenario.subject, position, target=target,
                    noise=scenario.noise, intr=intr, rng=rng, timestamp=k / 30.0,
                )
                goal = estimate_frame_reference(frame, strategy, params, intr).goal
                if goal is None or truth.goal is None:
                    continue
                goals += 1
                err[k] = 100.0 * math.hypot(goal[0] - truth.goal[0], goal[1] - truth.goal[1])
            yield goals, err


def _synthesize_roi_reference(center_world, phys_size, label, wall_z, noise, intr, rng):
    u0, v0, z, w_px, h_px = _roi_layout(center_world, phys_size, label, noise, intr)
    # Clipped at 3 sigma so renderability checked at validation time holds.
    jitter = np.clip(rng.normal(0.0, 1.0, 2), -3.0, 3.0) * noise.bbox_jitter_px
    cu, cv = u0 + jitter[0], v0 + jitter[1]
    bbox = BoundingBox(
        cu - 0.5 * w_px, cv - 0.5 * h_px, cu + 0.5 * w_px, cv + 0.5 * h_px,
        label, confidence=0.99,
    )

    # Foreground surface samples in symmetric +/- pairs about the true center
    # pixel: the pixel centroid is exactly the projected object center, which
    # keeps the noiseless pipeline analytically exact.
    n = noise.sample_count(z)
    half = n // 2
    radius = FG_DISC_RATIO * min(w_px, h_px)
    rad = radius * np.sqrt(rng.random(half))
    ang = rng.random(half) * (2.0 * math.pi)
    du = rad * np.cos(ang)
    dv = rad * np.sin(ang)
    us = np.concatenate([u0 + du, u0 - du])
    vs = np.concatenate([v0 + dv, v0 - dv])
    if n % 2:
        us = np.append(us, u0)
        vs = np.append(vs, v0)
    zs = z + rng.normal(0.0, 1.0, n) * noise.sigma(z)
    keep = rng.random(n) >= noise.p_drop(z)

    # Background wall samples appear only where the subject does not occlude
    # the wall: outside the object's silhouette ellipse (the box is a margin
    # larger than the object), but anywhere inside the box.
    n_bg = int(round(noise.beta * n))
    if n_bg:
        n_cand = max(16, 4 * n_bg)
        uc = rng.uniform(bbox.u_min, bbox.u_max, n_cand)
        vc = rng.uniform(bbox.v_min, bbox.v_max, n_cand)
        a = 0.5 * w_px / BBOX_MARGIN
        b = 0.5 * h_px / BBOX_MARGIN
        outside = ((uc - u0) / a) ** 2 + ((vc - v0) / b) ** 2 > 1.0
        pick = np.concatenate([np.flatnonzero(outside), np.flatnonzero(~outside)])[:n_bg]
        ub, vb = uc[pick], vc[pick]
    else:
        ub = np.empty(0)
        vb = np.empty(0)
    zb = wall_z + rng.normal(0.0, 1.0, n_bg) * noise.sigma(wall_z)
    keep_bg = rng.random(n_bg) >= noise.p_drop(wall_z)

    us = np.concatenate([us[keep], ub[keep_bg]])
    vs = np.concatenate([vs[keep], vb[keep_bg]])
    zs = np.concatenate([zs[keep], zb[keep_bg]])
    return RoiPointSet(np.column_stack([us, vs, zs]), bbox)


def synthesize_frame_reference(subject, position, *, direction=None, target=None, noise,
                               intr, rng, timestamp=0.0):
    """The frame renderer in its plainest form: the pose's geometry, layout
    and every draw made afresh for each frame, one numpy call per draw."""
    truth = pose_geometry_reference(subject, position, direction, target)
    wall_z = truth.eye[1] + WALL_OFFSET_M
    face_roi = _synthesize_roi_reference(truth.eye, FACE_SIZE_M, FACE, wall_z, noise, intr, rng)
    hand_roi = _synthesize_roi_reference(truth.fingertip, HAND_SIZE_M, HAND, wall_z, noise,
                                         intr, rng)
    frame = DetectionFrame(timestamp, face_roi, (hand_roi,))
    return frame, truth
