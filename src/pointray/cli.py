"""Command-line interface.

Subcommands:

* ``estimate``     -- run the pipeline over a detection-frame log (JSONL)
* ``simulate``     -- emit a synthetic detection log plus ground truth
* ``experiment-a`` -- angular-accuracy grid sweep (CSV + SVG heatmaps)
* ``experiment-b`` -- floor-goal accuracy sweep (CSV + text table)
* ``bench``        -- per-frame latency of the geometry pipeline

Exit codes: 0 success, 1 usage/config error, 2 input-data error, 141 the
reader of stdout closed it before the output ended.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import __version__
from .frames import FRAME_RATE_HZ, frame_to_line, read_frames
from .geometry import CameraIntrinsics, default_intrinsics
from .pointing import EstimatorParams, estimate_frame, result_to_line
from .roi import (
    DEFAULT_COBB_RATIO,
    DEFAULT_DBSCAN_EPS,
    DEFAULT_DBSCAN_MIN_PTS,
    KeypointStrategy,
)
from .reports import (
    angle_cells_heatmap,
    angle_cells_to_csv,
    format_angle_summary,
    format_goal_table,
    goal_cells_to_csv,
    polar_heatmap_svg,
    write_text,
)
from .simulate import (
    NoiseModel,
    Scenario,
    ScenarioError,
    SubjectModel,
    default_scenario,
    run_experiment_a,
    run_experiment_b,
    simulate_log,
    summarize_goal_by_distance,
    synthesize_frame,
    truth_to_dict,
    validate_scenario_strict,
)
from .tracking import (
    DetectionTracker,
    GateParams,
    GoalGate,
    TrackerParams,
    commit_to_dict,
)
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer the signal ended

# estimate prints a warning for the first this many skipped lines, then
# one line with the count of the rest
SKIP_WARNINGS_SHOWN = 10


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy",
        default="mean",
        choices=[s.value for s in KeypointStrategy],
        help="keypoint depth statistic (default: mean)",
    )
    p.add_argument("--cobb-ratio", type=float, default=DEFAULT_COBB_RATIO,
                   help="center-circle radius as a fraction of min(w, h) (default: %(default)s)")
    p.add_argument("--eps", type=float, default=DEFAULT_DBSCAN_EPS,
                   help="DBSCAN depth radius in meters (default: %(default)s)")
    p.add_argument("--min-pts", type=int, default=DEFAULT_DBSCAN_MIN_PTS,
                   help="DBSCAN minimum neighbors incl. self (default: %(default)s)")
    p.add_argument("--intrinsics", default=None,
                   help="intrinsics JSON file (default: bundled 640x480 68-deg sensor)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pointray", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"pointray {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run the pipeline over a frame log")
    _add_pipeline_flags(p_est)
    p_est.add_argument("--input", "-i", default="-", help="frame log path or - for stdin")
    p_est.add_argument("--output", "-o", default="-", help="estimate log path or - for stdout")
    p_est.add_argument("--track", action="store_true",
                       help="smooth detections with the Kalman tracker")
    p_est.add_argument("--track-sigma-accel", type=float, default=TrackerParams.sigma_accel)
    p_est.add_argument("--track-sigma-meas", type=float, default=TrackerParams.sigma_meas)
    p_est.add_argument("--track-miss-limit", type=int, default=TrackerParams.miss_limit)
    p_est.add_argument("--gate", action="store_true",
                       help="emit committed goals from the covariance gate")
    p_est.add_argument("--gate-window", type=int, default=GateParams.window)
    p_est.add_argument("--gate-tau", type=float, default=GateParams.tau)
    p_est.add_argument("--gate-tau-angle", type=float, default=GateParams.tau_angle)
    p_est.add_argument("--gate-mode", choices=["goal", "direction"], default=GateParams.mode)
    p_est.add_argument("--gate-max-age", type=float, default=GateParams.max_age_s)

    p_sim = sub.add_parser("simulate", help="emit a synthetic detection log")
    p_sim.add_argument("--scenario", default=None, help="scenario JSON (default: bundled)")
    p_sim.add_argument("--aim", choices=["directions", "targets"], default="directions",
                       help="point along scenario directions or at floor targets")
    p_sim.add_argument("--output", "-o", default="-", help="frame log path or - for stdout")
    p_sim.add_argument("--truth", default=None, help="optional ground-truth JSONL path")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument("--intrinsics", default=None)

    p_expa = sub.add_parser("experiment-a", help="angular-accuracy grid sweep")
    _add_pipeline_flags(p_expa)
    p_expa.add_argument("--scenario", default=None)
    p_expa.add_argument("--strategies", default="mean,median,closest,dbscan",
                        help="comma-separated strategies to evaluate")
    p_expa.add_argument("--frames", type=int, default=None,
                        help="frames per grid cell (default: scenario value)")
    p_expa.add_argument("--jobs", type=int, default=1, help="parallel workers over cells")
    p_expa.add_argument("--seed", type=int, default=None)
    p_expa.add_argument("--outdir", required=True, help="output directory for artifacts")

    p_expb = sub.add_parser("experiment-b", help="floor-goal accuracy sweep")
    _add_pipeline_flags(p_expb)
    p_expb.add_argument("--scenario", default=None)
    p_expb.add_argument("--frames", type=int, default=None)
    p_expb.add_argument("--jobs", type=int, default=1)
    p_expb.add_argument("--seed", type=int, default=None)
    p_expb.add_argument("--outdir", required=True)

    p_bench = sub.add_parser("bench", help="per-frame latency of the geometry pipeline")
    _add_pipeline_flags(p_bench)
    p_bench.add_argument("--frames", type=int, default=1000)
    p_bench.add_argument("--samples", type=int, default=5000,
                         help="total ROI samples per synthetic frame")
    p_bench.add_argument("--seed", type=int, default=42)
    return parser


def _load_config(load, path: str, what: str):
    """``load(path)``; an unreadable file is a data error, bad content a usage error."""
    try:
        return load(path)
    except OSError as exc:
        raise DataError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise UsageError(f"bad {what} file {path}: {exc}") from exc


def _load_intrinsics(path: str | None) -> CameraIntrinsics:
    if path is None:
        return default_intrinsics()
    return _load_config(CameraIntrinsics.load, path, "intrinsics")


def _load_scenario(path: str | None, seed: int | None) -> Scenario:
    if path is None:
        scenario = default_scenario()
    else:
        scenario = _load_config(Scenario.load, path, "scenario")
    if seed is not None:
        scenario = Scenario.from_dict({**scenario.to_dict(), "seed": seed})
    return scenario


def _params_from_args(args) -> EstimatorParams:
    try:
        return EstimatorParams(
            cobb_ratio=args.cobb_ratio,
            dbscan_eps=args.eps,
            dbscan_min_pts=args.min_pts,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _open_file(path: str, stack: ExitStack, mode: str = "w"):
    """``path`` opened for writing (``mode`` "w" or "a") and closed with ``stack``."""
    try:
        return stack.enter_context(open(path, mode, encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _open_out(path: str, stack: ExitStack):
    return sys.stdout if path == "-" else _open_file(path, stack)


def _make_outdir(path: str) -> Path:
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from exc
    return outdir


def cmd_estimate(args) -> int:
    intr = _load_intrinsics(args.intrinsics)
    params = _params_from_args(args)
    strategy = KeypointStrategy.from_name(args.strategy)
    tracker = gate = None
    try:
        if args.track:
            tracker = DetectionTracker(TrackerParams(
                sigma_accel=args.track_sigma_accel,
                sigma_meas=args.track_sigma_meas,
                miss_limit=args.track_miss_limit,
                image_width=intr.width,
            ))
        if args.gate:
            gate = GoalGate(GateParams(
                window=args.gate_window,
                tau=args.gate_tau,
                tau_angle=args.gate_tau_angle,
                mode=args.gate_mode,
                max_age_s=args.gate_max_age,
            ))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    skipped = 0

    def on_skip(line_no: int, message: str) -> None:
        nonlocal skipped
        skipped += 1
        if skipped <= SKIP_WARNINGS_SHOWN:
            print(f"warning: line {line_no} skipped: {message}", file=sys.stderr)

    frames = 0
    estimates = 0
    commits = 0
    # Undecodable bytes are read as lone surrogates instead of ending the run;
    # the line then meets the parser like any other.
    with ExitStack() as stack:
        if args.input == "-":
            lines = sys.stdin
            if hasattr(lines, "reconfigure"):  # a plain iterable of str is used as it is
                lines.reconfigure(errors="surrogateescape")
        else:
            try:
                lines = stack.enter_context(
                    open(args.input, "r", encoding="utf-8", errors="surrogateescape")
                )
            except OSError as exc:
                raise DataError(f"cannot read input: {exc}") from exc
        out = _open_out(args.output, stack)
        start = time.perf_counter()
        for frame in read_frames(lines, on_skip=on_skip):
            if tracker is not None:
                frame = tracker.smooth(frame)
            result = estimate_frame(frame, strategy, params, intr)
            frames += 1
            if result.estimate is not None:
                estimates += 1
            out.write(result_to_line(result) + "\n")
            if gate is not None:
                est = result.estimate
                commit = gate.update(
                    result.timestamp,
                    result.goal,
                    None if est is None else est.pitch_deg,
                    None if est is None else est.yaw_deg,
                )
                if commit is not None:
                    commits += 1
                    out.write(json.dumps(commit_to_dict(commit), separators=(",", ":")) + "\n")
    elapsed = time.perf_counter() - start
    fps = frames / elapsed if elapsed > 0 else float("inf")
    if skipped > SKIP_WARNINGS_SHOWN:
        print(
            f"warning: {skipped - SKIP_WARNINGS_SHOWN} more lines skipped (not shown)",
            file=sys.stderr,
        )
    print(
        f"frames: {frames}  estimates: {estimates}  yield: {estimates}/{frames}"
        f"  skipped: {skipped}  commits: {commits}  fps: {fps:.0f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    intr = _load_intrinsics(args.intrinsics)
    scenario = _load_scenario(args.scenario, args.seed)
    validate_scenario_strict(scenario, intr)
    use_targets = args.aim == "targets"
    if use_targets and not scenario.floor_targets:
        raise UsageError("scenario has no floor_targets to aim at")
    if not use_targets and not scenario.directions:
        raise UsageError("scenario has no directions to point along")
    n = 0
    with ExitStack() as stack:
        # --truth opens without truncation and is emptied once -o has opened,
        # so a bad path on either side leaves the other file's bytes as they were
        truth_out = _open_file(args.truth, stack, "a") if args.truth else None
        out = _open_out(args.output, stack)
        if truth_out is not None and stat.S_ISREG(os.fstat(truth_out.fileno()).st_mode):
            truth_out.truncate(0)  # pipes and devices have nothing to truncate
        for frame, truth in simulate_log(scenario, intr, use_targets=use_targets):
            out.write(frame_to_line(frame) + "\n")
            if truth_out is not None:
                truth_out.write(
                    json.dumps(truth_to_dict(truth, frame.timestamp), separators=(",", ":"))
                    + "\n"
                )
            n += 1
    print(f"frames written: {n}", file=sys.stderr)
    return EXIT_OK


def cmd_experiment_a(args) -> int:
    intr = _load_intrinsics(args.intrinsics)
    scenario = _load_scenario(args.scenario, args.seed)
    validate_scenario_strict(scenario, intr)
    params = _params_from_args(args)
    try:
        strategies = tuple(
            KeypointStrategy.from_name(s.strip()) for s in args.strategies.split(",") if s.strip()
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not strategies:
        raise UsageError("no strategies selected")
    outdir = _make_outdir(args.outdir)
    cells = run_experiment_a(
        scenario, intr, strategies=strategies, params=params,
        frames_per_cell=args.frames, jobs=args.jobs,
    )
    write_text(outdir / "angle_cells.csv", angle_cells_to_csv(cells))
    for strategy in strategies:
        values, ranges, bearings = angle_cells_heatmap(cells, strategy.value)
        svg = polar_heatmap_svg(
            values, ranges, bearings,
            title=f"Mean pointing error ({strategy.value} depth)", unit="deg",
        )
        write_text(outdir / f"heatmap_{strategy.value}.svg", svg)
    summary = format_angle_summary(cells, strategies)
    write_text(outdir / "summary.txt", summary)
    print(summary, end="", file=sys.stderr)
    return EXIT_OK


def cmd_experiment_b(args) -> int:
    intr = _load_intrinsics(args.intrinsics)
    scenario = _load_scenario(args.scenario, args.seed)
    validate_scenario_strict(scenario, intr)
    params = _params_from_args(args)
    strategy = KeypointStrategy.from_name(args.strategy)
    if not scenario.floor_targets:
        raise UsageError("scenario has no floor_targets")
    outdir = _make_outdir(args.outdir)
    cells = run_experiment_b(
        scenario, intr, strategy=strategy, params=params,
        frames_per_cell=args.frames, jobs=args.jobs,
    )
    write_text(outdir / "goal_cells.csv", goal_cells_to_csv(cells))
    table = format_goal_table(summarize_goal_by_distance(cells), strategy.value)
    write_text(outdir / "goal_table.txt", table)
    print(table, end="", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    intr = _load_intrinsics(args.intrinsics)
    params = _params_from_args(args)
    strategy = KeypointStrategy.from_name(args.strategy)
    subject = SubjectModel()
    pose = (2.0, 0.0)
    per_roi = max(args.samples // 2, 1)
    noise = NoiseModel(
        n0=per_roi * pose[0] ** 2, n_min=1, beta=0.0, p_drop_max=0.0,
        sigma0=0.004, bbox_jitter_px=1.0,
    )
    rng = np.random.default_rng(args.seed)
    frames = [
        synthesize_frame(
            subject, pose, direction=(35.0, 10.0), noise=noise, intr=intr,
            rng=rng, timestamp=i / FRAME_RATE_HZ,
        )[0]
        for i in range(args.frames)
    ]
    # warmup
    for frame in frames[: min(50, len(frames))]:
        estimate_frame(frame, strategy, params, intr)
    timings = np.empty(len(frames))
    for i, frame in enumerate(frames):
        t0 = time.perf_counter()
        estimate_frame(frame, strategy, params, intr)
        timings[i] = time.perf_counter() - t0
    ms = np.sort(timings) * 1000.0
    p50 = float(np.percentile(ms, 50))
    p99 = float(np.percentile(ms, 99))
    fps = 1000.0 / float(np.mean(ms))
    n_samples = len(frames[0].face) + sum(len(h) for h in frames[0].hands)
    print(f"frames: {len(frames)}  roi samples/frame: ~{n_samples}  strategy: {strategy.value}")
    print(f"latency p50: {p50:.3f} ms  p99: {p99:.3f} ms  mean: {float(np.mean(ms)):.3f} ms")
    print(f"throughput: {fps:.0f} frames/sec")
    return EXIT_OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "experiment-a": cmd_experiment_a,
    "experiment-b": cmd_experiment_b,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "frames", None) is not None and args.frames < 1:
            raise UsageError(f"--frames must be at least 1, got {args.frames}")
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed reader shows here at the latest
        return code
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE advises: point stdout at devnull
        # so that the interpreter's own flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print("error: invalid scenario:", file=sys.stderr)
        for e in exc.errors:
            print(f"  - {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
