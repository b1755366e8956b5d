"""Seeded inputs for each workload, generated before timing starts.

Every input is written under the run's work directory and its sha256 is
recorded, because stream inputs come from ``pointray.simulate``, the code
under test: two commits are comparable only when their inputs agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Criterion-9 sensor setup (``pointray bench --samples 5000``): subject at
# 2.0 m, about 2,500 samples per ROI.
DENSE_FRAMES = 200
DENSE_POSE = (2.0, 0.0)
DENSE_DIRECTION = (35.0, 10.0)
DENSE_SAMPLES = 5000

# One round of injected faults per this many log frames.
FAULT_ROUND = 1500
SWEEP_FRAMES_PER_CELL = 3
STRATEGIES = "mean,median,closest,dbscan"


@dataclass
class Plan:
    """What the worker runs and how its outputs are read back."""

    name: str
    argv: list[str]  # one pass of the workload, as pointray's CLI arguments
    setup_argv: list[str]  # the same command on a one-frame / one-cell input
    latency: str  # "stream", "producer" or "pass"
    frames_per_pass: int
    stdin: str | None = None
    truth: str | None = None
    artifacts: list[str] = field(default_factory=list)
    expected_skips: int = 0
    inputs: dict[str, str] = field(default_factory=dict)  # name -> sha256


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digest_inputs(plan: Plan, paths: list[Path]) -> Plan:
    plan.inputs = {p.name: sha256_file(p) for p in paths}
    return plan


def _write_scenario(path: Path, seed: int, **overrides) -> Path:
    from pointray.simulate import default_scenario

    data = default_scenario().to_dict()
    data.update(seed=seed, **overrides)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def _one_cell(path: Path, seed: int) -> Path:
    from pointray.simulate import default_scenario

    base = default_scenario()
    return _write_scenario(
        path, seed,
        positions=[list(base.positions[0])],
        directions=[list(base.directions[0])],
        floor_targets=[],
        frames_per_pose=1,
    )


def _simulate(work: Path, seed: int) -> tuple[Path, Path]:
    from pointray.cli import main

    log, truth = work / "log_raw.jsonl", work / "truth.jsonl"
    scenario = _write_scenario(work / "scenario.json", seed)
    code = main(["simulate", "--scenario", str(scenario), "-o", str(log), "--truth", str(truth)])
    if code != 0:
        raise RuntimeError(f"simulate exited with {code}")
    return log, truth


def dense_dbscan(work: Path, seed: int) -> Plan:
    from pointray.frames import frame_to_line
    from pointray.geometry import default_intrinsics
    from pointray.simulate import (
        FRAME_RATE_HZ, NoiseModel, SubjectModel, synthesize_frame, truth_to_dict,
    )

    intr = default_intrinsics()
    per_roi = DENSE_SAMPLES // 2
    noise = NoiseModel(
        n0=per_roi * DENSE_POSE[0] ** 2, n_min=1, beta=0.0, p_drop_max=0.0,
        sigma0=0.004, bbox_jitter_px=1.0,
    )
    rng = np.random.default_rng(seed)
    log, truth, one = work / "dense.jsonl", work / "truth.jsonl", work / "dense_one.jsonl"
    with open(log, "w", encoding="utf-8") as f, open(truth, "w", encoding="utf-8") as g:
        for i in range(DENSE_FRAMES):
            t = i / FRAME_RATE_HZ
            frame, gt = synthesize_frame(
                SubjectModel(), DENSE_POSE, direction=DENSE_DIRECTION, noise=noise,
                intr=intr, rng=rng, timestamp=t,
            )
            line = frame_to_line(frame) + "\n"
            f.write(line)
            g.write(json.dumps(truth_to_dict(gt, t), separators=(",", ":")) + "\n")
            if i == 0:
                one.write_text(line, encoding="utf-8")
    argv = ["estimate", "--strategy", "dbscan"]
    plan = Plan(
        name="dense-dbscan",
        argv=argv,
        setup_argv=argv + ["-i", str(one), "-o", str(work / "setup_out.jsonl")],
        latency="stream",
        frames_per_pass=DENSE_FRAMES,
        stdin=str(log),
        truth=str(truth),
    )
    return _digest_inputs(plan, [log, truth])


def inject_faults(lines: list[str], rng: np.random.Generator) -> tuple[list[str], int]:
    """Inject one round of four faults per ``FAULT_ROUND`` lines.

    Each round holds a truncated line and a repeated timestamp (both are
    skipped by the reader), a hand sample outside its bbox (dropped on
    read) and a hand sample with ``z = Infinity`` at its bbox center (kept:
    the reader accepts it). Returns the new lines and the number of lines
    the reader must skip.
    """
    out = list(lines)
    skips = 0
    for start in range(0, len(lines) - FAULT_ROUND + 1, FAULT_ROUND):
        base = start + int(rng.integers(100, FAULT_ROUND - 400))
        trunc, repeat, outside, inf = base, base + 60, base + 120, base + 180
        out[trunc] = lines[trunc][: len(lines[trunc]) // 2] + "\n"
        obj = json.loads(lines[repeat])
        obj["t"] = json.loads(lines[repeat - 1])["t"]
        out[repeat] = json.dumps(obj, separators=(",", ":")) + "\n"
        skips += 2
        for idx, fault in ((outside, "outside"), (inf, "inf")):
            while True:
                obj = json.loads(lines[idx])
                if obj["face"] is not None and obj["hands"]:
                    break
                idx += 1
            hand = obj["hands"][0]
            u0, v0, u1, v1 = hand["bbox"]
            z = hand["samples"][0][2] if hand["samples"] else 2.0
            if fault == "outside":
                hand["samples"].append([u1 + 3.0, 0.5 * (v0 + v1), z])
            else:
                hand["samples"].append([0.5 * (u0 + u1), 0.5 * (v0 + v1), math.inf])
            out[idx] = json.dumps(obj, separators=(",", ":")) + "\n"
    return out, skips


def log_tracked(work: Path, seed: int) -> Plan:
    raw, truth = _simulate(work, seed)
    lines = raw.read_text(encoding="utf-8").splitlines(keepends=True)
    raw.unlink()
    faulted, skips = inject_faults(lines, np.random.default_rng([seed, 1]))
    del lines
    log, one = work / "log.jsonl", work / "log_one.jsonl"
    with open(log, "w", encoding="utf-8") as f:
        f.writelines(faulted)
    one.write_text(faulted[0], encoding="utf-8")
    argv = ["estimate", "--strategy", "mean", "--track", "--gate"]
    plan = Plan(
        name="log-tracked",
        argv=argv,
        setup_argv=argv + ["-i", str(one), "-o", str(work / "setup_out.jsonl")],
        latency="stream",
        frames_per_pass=len(faulted),
        stdin=str(log),
        truth=str(truth),
        expected_skips=skips,
    )
    return _digest_inputs(plan, [log, truth])


def sweep_a(work: Path, seed: int) -> Plan:
    from pointray.simulate import default_scenario

    scenario = _write_scenario(work / "scenario.json", seed)
    one = _one_cell(work / "scenario_one.json", seed)
    outdir = work / "sweep"
    common = ["experiment-a", "--strategies", STRATEGIES, "--jobs", "1"]
    base = default_scenario()
    cells = len(base.positions) * len(base.directions)
    plan = Plan(
        name="sweep-a",
        argv=common + ["--scenario", str(scenario), "--frames", str(SWEEP_FRAMES_PER_CELL),
                       "--outdir", str(outdir)],
        setup_argv=common + ["--scenario", str(one), "--frames", "1",
                             "--outdir", str(work / "setup_out")],
        latency="pass",
        frames_per_pass=cells * SWEEP_FRAMES_PER_CELL,
        artifacts=[str(outdir / "angle_cells.csv"), str(outdir / "summary.txt")]
        + [str(outdir / f"heatmap_{s}.svg") for s in STRATEGIES.split(",")],
    )
    return _digest_inputs(plan, [scenario])


def simulate_log(work: Path, seed: int) -> Plan:
    from pointray.simulate import default_scenario

    scenario = _write_scenario(work / "scenario.json", seed)
    one = _one_cell(work / "scenario_one.json", seed)
    base = default_scenario()
    truth = work / "truth.jsonl"
    plan = Plan(
        name="simulate-log",
        argv=["simulate", "--scenario", str(scenario), "-o", "-", "--truth", str(truth)],
        setup_argv=["simulate", "--scenario", str(one), "-o", str(work / "setup_out.jsonl"),
                    "--truth", str(work / "setup_truth.jsonl")],
        latency="producer",
        frames_per_pass=len(base.positions) * len(base.directions) * base.frames_per_pose,
        truth=str(truth),
        artifacts=[str(truth)],
    )
    return _digest_inputs(plan, [scenario])


WORKLOADS = {
    "dense-dbscan": dense_dbscan,
    "log-tracked": log_tracked,
    "sweep-a": sweep_a,
    "simulate-log": simulate_log,
}
