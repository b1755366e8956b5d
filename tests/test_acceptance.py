"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from oracles import NOISELESS, collinearity_residual, dbscan_reference, ray_plane_oracle
from pointray.cli import EXIT_OK, main
from pointray.geometry import default_intrinsics
from pointray.pointing import (
    EstimatorParams,
    FrameResult,
    PointingEstimate,
    angular_error_deg,
    estimate_frame,
    ground_intersection_world,
)
from pointray.reports import format_goal_table
from pointray.roi import KeypointStrategy, dbscan_depth
from pointray.simulate import (
    NoiseModel,
    Scenario,
    SubjectModel,
    default_scenario,
    run_experiment_a,
    run_experiment_b,
    synthesize_frame,
)
from pointray.tracking import GateParams, GoalGate

INTR = default_intrinsics()
PARAMS = EstimatorParams()
STRATEGIES = tuple(KeypointStrategy)
FRAMES_PER_CELL = 200


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def experiment_a_table():
    """Default-noise grid at 200 frames/cell, shared by criteria 4-6."""
    scenario = default_scenario()
    start = time.perf_counter()
    cells = run_experiment_a(
        scenario, INTR, strategies=STRATEGIES, params=PARAMS,
        frames_per_cell=FRAMES_PER_CELL, jobs=1,
    )
    elapsed = time.perf_counter() - start
    return cells, elapsed


def _pooled_mean_err(cells, range_m, strategy):
    errs = np.concatenate(
        [c.err_deg for c in cells if c.range_m == range_m and c.strategy == strategy]
    )
    errs = errs[~np.isnan(errs)]
    return float(errs.mean())


def test_criterion_01_noiseless_geometry_exactness():
    scenario = dataclasses.replace(default_scenario(), noise=NOISELESS)
    start = time.perf_counter()
    worst_angle = 0.0
    worst_goal_cm = 0.0
    for pos_idx, position in enumerate(scenario.positions):
        for dir_idx, direction in enumerate(scenario.directions):
            rng = np.random.default_rng([scenario.seed, pos_idx, dir_idx])
            for k in range(3):
                frame, truth = synthesize_frame(
                    scenario.subject, position, direction=direction,
                    noise=scenario.noise, intr=INTR, rng=rng, timestamp=k / 30.0,
                )
                for strategy in STRATEGIES:
                    result = estimate_frame(frame, strategy, PARAMS, INTR)
                    assert result.estimate is not None
                    err = angular_error_deg(result.estimate.direction, truth.ray)
                    worst_angle = max(worst_angle, err)
                    assert truth.goal is not None and result.goal is not None
                    goal_cm = 100.0 * math.hypot(
                        result.goal[0] - truth.goal[0], result.goal[1] - truth.goal[1]
                    )
                    worst_goal_cm = max(worst_goal_cm, goal_cm)
    elapsed = time.perf_counter() - start
    assert worst_angle < 1e-6, f"worst angular error {worst_angle} deg"
    assert worst_goal_cm < 0.1, f"worst goal error {worst_goal_cm} cm"
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeds 10 s"
    report(1, f"noiseless grid exact: angle {worst_angle:.2e} deg, "
              f"goal {worst_goal_cm:.2e} cm, {elapsed:.1f} s")


def test_criterion_02_ground_plane_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    worst_resid = 0.0
    while checked < 10_000:
        f = np.array([rng.uniform(-4, 4), rng.uniform(0.2, 7), rng.uniform(0.6, 2.4)])
        h = f + np.array([
            rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), -rng.uniform(1e-5, 0.9)
        ])
        expected = ray_plane_oracle(f, h)
        if expected is None:
            continue
        goal = ground_intersection_world(f, h)
        worst = max(worst, math.hypot(goal[0] - expected[0], goal[1] - expected[1]))
        worst_resid = max(worst_resid, collinearity_residual(goal, f, h))
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst oracle deviation {worst} m"
    assert worst_resid < 1e-9, f"worst collinearity residual {worst_resid} m"
    assert elapsed < 5.0, f"runtime {elapsed:.1f} s exceeds 5 s"
    report(2, f"10k ray-plane pairs match the parametric oracle to {worst:.1e} m, "
              f"residual {worst_resid:.1e} m, {elapsed:.1f} s")


def test_criterion_03_dbscan_oracle_equivalence():
    rng = np.random.default_rng(4321)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 51))
        depths = rng.uniform(0.4, 6.5, n)
        if rng.random() < 0.4:
            depths = np.round(depths * 5) / 5 + rng.normal(0, 0.008, n)
        eps = float(rng.uniform(0.02, 0.4))
        min_pts = int(rng.integers(1, 7))
        clusters, noise = dbscan_depth(depths, eps, min_pts)
        core_ref, clusters_ref, noise_ref = dbscan_reference(depths, eps, min_pts)
        assert frozenset(noise.tolist()) == noise_ref
        got_core_partition = frozenset(
            frozenset(i for i in c.member_indices.tolist() if core_ref[i])
            for c in clusters
        )
        assert got_core_partition == clusters_ref
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f} s exceeds 5 s"
    report(3, f"500 random instances match the naive O(n^2) reference, {elapsed:.1f} s")


def test_criterion_04_error_vs_range_trend(experiment_a_table):
    cells, elapsed = experiment_a_table
    assert elapsed < 120.0, f"grid runtime {elapsed:.1f} s exceeds 2 min"
    for strategy in STRATEGIES:
        near = _pooled_mean_err(cells, 1.5, strategy.value)
        far = _pooled_mean_err(cells, 5.5, strategy.value)
        assert far > near, f"{strategy.value}: {far:.2f} deg at 5.5 m vs {near:.2f} at 1.5 m"
    for c in cells:
        if c.estimates:
            assert 0.0 <= c.mean_err_deg <= 15.0, (
                f"cell ({c.range_m}, {c.bearing_deg}, {c.pitch_deg}/{c.yaw_deg}, "
                f"{c.strategy}) mean error {c.mean_err_deg:.2f} deg outside [0, 15]"
            )
    trend = {
        s.value: (_pooled_mean_err(cells, 1.5, s.value), _pooled_mean_err(cells, 5.5, s.value))
        for s in STRATEGIES
    }
    report(4, "error grows with range for every strategy, all cells within "
              f"[0, 15] deg ({FRAMES_PER_CELL} frames/cell, {elapsed:.0f} s): "
              + ", ".join(f"{k} {a:.2f}->{b:.2f}" for k, (a, b) in trend.items()))


def test_criterion_05_mean_vs_closest_at_range(experiment_a_table):
    cells, _ = experiment_a_table
    mean_errs = np.concatenate(
        [c.err_deg for c in cells if c.range_m >= 4.0 and c.strategy == "mean"]
    )
    closest_errs = np.concatenate(
        [c.err_deg for c in cells if c.range_m >= 4.0 and c.strategy == "closest"]
    )
    paired = ~np.isnan(mean_errs) & ~np.isnan(closest_errs)
    diffs = mean_errs[paired] - closest_errs[paired]
    assert diffs.size > 500, "too few paired frames for a meaningful comparison"
    mean_diff = float(diffs.mean())
    ci = 1.96 * float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    assert float(np.mean(mean_errs[paired])) <= float(np.mean(closest_errs[paired])), (
        f"mean-depth error {np.mean(mean_errs[paired]):.3f} exceeds "
        f"closest-point {np.mean(closest_errs[paired]):.3f} at >= 4 m"
    )
    report(5, f"mean-depth beats closest-point at >= 4 m: paired diff "
              f"{mean_diff:+.3f} deg (95% CI +/-{ci:.3f}, n={diffs.size})")


def test_criterion_06_far_range_yield_degradation(experiment_a_table):
    cells, _ = experiment_a_table
    near = [c for c in cells if c.range_m <= 2.0 and c.strategy == "dbscan"]
    far = [c for c in cells if 4.5 <= c.range_m <= 5.5 and c.strategy == "dbscan"]
    near_yield = sum(c.estimates for c in near) / sum(c.frames for c in near)
    far_yield = sum(c.estimates for c in far) / sum(c.frames for c in far)
    assert near_yield >= 1.5 * far_yield, (
        f"dbscan yield near {near_yield:.3f} vs far {far_yield:.3f}: "
        f"factor {near_yield / max(far_yield, 1e-9):.2f} < 1.5"
    )
    report(6, f"dbscan yield drops from {near_yield:.3f} (<= 2 m) to "
              f"{far_yield:.3f} (4.5-5.5 m), factor "
              f"{near_yield / max(far_yield, 1e-9):.1f}")


def test_criterion_07_goal_table_shape():
    scenario = dataclasses.replace(
        default_scenario(),
        positions=tuple((r, 0.0) for r in (1.5, 2.5, 3.5, 4.5, 5.5)),
    )
    cells = run_experiment_b(
        scenario, INTR, strategy=KeypointStrategy.MEAN_DEPTH, params=PARAMS,
        frames_per_cell=100, jobs=1,
    )
    table = format_goal_table(cells, "mean")
    lines = table.split("\n")
    start = lines.index("-" * 72) + 1
    rows = [line.split() for line in lines[start:lines.index("-" * 72, start)]]
    by_distance = {float(row[0]): float(row[1]) for row in rows}
    assert list(by_distance) == [1.5, 2.5, 3.5, 4.5, 5.5]
    assert by_distance[5.5] > by_distance[1.5], (
        f"goal error at 5.5 m ({by_distance[5.5]:.1f} cm) not above "
        f"1.5 m ({by_distance[1.5]:.1f} cm)"
    )
    means = list(by_distance.values())
    assert all(b >= a for a, b in zip(means, means[1:])), (
        f"goal error not monotone over distance: {means}"
    )
    for ref in ("16.1", "18.1", "14.5", "22.4", "48.4"):
        assert ref in table, f"reference value {ref} missing from the report"
    report(7, "goal table reproduces the qualitative pattern "
              + ", ".join(f"{d:.1f}m={by_distance[d]:.1f}cm" for d in sorted(by_distance))
              + " with reference values printed alongside")


def _goal_result(t, goal):
    est = PointingEstimate(np.zeros(3), np.zeros(3), (0.0, 0.0, 0.0), 30.0, 0.0)
    return FrameResult(t, est, goal, None)


def test_criterion_08_gate_contract():
    start = time.perf_counter()
    gate = GoalGate(GateParams())
    commits = []
    for i in range(30):
        c = gate.update(_goal_result(i / 30.0, (0.75, 2.5)))
        if c:
            commits.append(c)
    assert len(commits) == 1 and commits[0].cov_trace == 0.0
    assert commits[0].goal == (0.75, 2.5)

    gate = GoalGate(GateParams())
    for i in range(29):
        assert gate.update(_goal_result(i / 30.0, (0.75, 2.5))) is None

    gate = GoalGate(GateParams())
    for i in range(300):
        g = (0.5 if i % 2 else -0.5, 2.0)
        assert gate.update(_goal_result(i / 30.0, g)) is None

    # full window but above tau: never commits; below tau: commits once
    gate = GoalGate(GateParams(tau=0.01))
    rng = np.random.default_rng(99)
    committed = 0
    for i in range(60):
        g = (float(rng.normal(0, 0.002)), float(2 + rng.normal(0, 0.002)))
        if gate.update(_goal_result(i / 30.0, g)):
            committed += 1
    assert committed >= 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(8, f"gate commits only with 30 buffered goals under tau "
              f"(30 identical commit, 29 never, alternating never), {elapsed:.2f} s")


def test_criterion_09_throughput():
    subject = SubjectModel()
    pose = (2.0, 0.0)
    per_roi = 2500  # two ROIs -> 5000 samples/frame
    noise = NoiseModel(n0=per_roi * pose[0] ** 2, n_min=1, beta=0.0,
                       p_drop_max=0.0, sigma0=0.004, bbox_jitter_px=1.0)
    rng = np.random.default_rng(7)
    frames = [
        synthesize_frame(subject, pose, direction=(35.0, 10.0), noise=noise,
                         intr=INTR, rng=rng, timestamp=i / 30.0)[0]
        for i in range(1000)
    ]
    total = len(frames[0].face) + sum(len(h) for h in frames[0].hands)
    assert total <= 5000
    # dbscan is the heaviest strategy; warm up, then time every frame
    for frame in frames[:50]:
        estimate_frame(frame, KeypointStrategy.DBSCAN_CLUSTER, PARAMS, INTR)
    timings = np.empty(len(frames))
    for i, frame in enumerate(frames):
        t0 = time.perf_counter()
        estimate_frame(frame, KeypointStrategy.DBSCAN_CLUSTER, PARAMS, INTR)
        timings[i] = time.perf_counter() - t0
    p99_ms = float(np.percentile(timings * 1000.0, 99))
    fps = 1.0 / float(np.mean(timings))
    assert p99_ms < 10.0, f"p99 latency {p99_ms:.2f} ms exceeds 10 ms"
    assert fps >= 100.0, f"throughput {fps:.0f} frames/sec below 100"
    report(9, f"{total}-sample frames: p99 {p99_ms:.2f} ms, {fps:.0f} frames/sec")


def test_criterion_10_determinism(tmp_path):
    scenario = Scenario(
        subject=SubjectModel(),
        positions=((1.5, 0.0), (3.5, 10.0)),
        directions=((30.0, 0.0), (45.0, -30.0)),
        floor_targets=((0.0, 1.0),),
        frames_per_pose=4,
        seed=11,
        noise=NoiseModel(),
    )
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps(scenario.to_dict()))
    outs = [tmp_path / name for name in ("r1", "r2", "r3")]
    strategies = [s.value for s in STRATEGIES]
    base = ["experiment-a", "--scenario", str(sc_path), "--strategies", ",".join(strategies)]
    assert main(base + ["--outdir", str(outs[0])]) == EXIT_OK
    assert main(base + ["--outdir", str(outs[1])]) == EXIT_OK
    assert main(base + ["--outdir", str(outs[2]), "--jobs", "2"]) == EXIT_OK
    names = ["angle_cells.csv", "summary.txt", *(f"heatmap_{s}.svg" for s in strategies)]
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(names)
    for name in names:
        blobs = [(d / name).read_bytes() for d in outs]
        assert blobs[0] == blobs[1], f"{name} differs across repeat runs"
        assert blobs[0] == blobs[2], f"{name} differs between serial and parallel"
    outs = [tmp_path / name for name in ("b1", "b2", "b3")]
    baseb = ["experiment-b", "--scenario", str(sc_path), "--frames", "4"]
    assert main(baseb + ["--outdir", str(outs[0])]) == EXIT_OK
    assert main(baseb + ["--outdir", str(outs[1])]) == EXIT_OK
    assert main(baseb + ["--outdir", str(outs[2]), "--jobs", "2"]) == EXIT_OK
    names = ["goal_cells.csv", "goal_table.txt"]
    assert sorted(p.name for p in outs[0].iterdir()) == names
    for name in names:
        blobs = [(d / name).read_bytes() for d in outs]
        assert blobs[0] == blobs[1], f"{name} differs across repeat runs"
        assert blobs[0] == blobs[2], f"{name} differs between serial and parallel"
    report(10, "every experiment artifact byte-identical across repeat runs and "
               "serial vs parallel execution")
