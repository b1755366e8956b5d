"""Independent reference implementations the production code is checked against.

These deliberately use different algorithms from the package: brute-force
O(n^2) DBSCAN over an explicit adjacency matrix, a parametric ray-plane
solver, and a textbook 2-state Kalman filter with its Riccati fixed point.
The accuracy experiments' grid cells are written out as two separate
per-cell loops, each spelling out its own random stream.
"""

from __future__ import annotations

import math

import numpy as np

from pointray.pointing import angular_error_deg, estimate_frame
from pointray.simulate import synthesize_frame


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
                    est = estimate_frame(frame, s, params, intr).estimate
                    if est is None:
                        continue
                    counts[s] += 1
                    errs[s][k] = angular_error_deg(est.direction, truth.ray)
                    dps[s][k] = est.pitch_deg - truth.pitch_deg
                    dys[s][k] = (est.yaw_deg - truth.yaw_deg + 180.0) % 360.0 - 180.0
            for s in strategies:
                yield counts[s], errs[s], dps[s], dys[s]


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
                goal = estimate_frame(frame, strategy, params, intr).goal
                if goal is None or truth.goal is None:
                    continue
                goals += 1
                err[k] = 100.0 * math.hypot(goal.x - truth.goal[0], goal.y - truth.goal[1])
            yield goals, err
