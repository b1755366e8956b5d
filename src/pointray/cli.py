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
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .frames import FRAME_RATE_HZ, dumps_line, frame_to_line, read_frames
from .geometry import CameraIntrinsics, default_intrinsics, from_json
from .pointing import EstimatorParams, estimate_frame, result_to_line
from .roi import KeypointStrategy
from .reports import (
    angle_cells_heatmap,
    angle_cells_to_csv,
    format_angle_summary,
    format_goal_table,
    goal_cells_to_csv,
    polar_heatmap_svg,
    write_text,
)
from .tracking import (
    DetectionTracker,
    GateParams,
    GoalGate,
    TrackerParams,
    commit_to_dict,
)

# The simulator, and the process pool behind --jobs, load only in the commands
# that run them, so that estimate starts without either.
if TYPE_CHECKING:
    from .simulate import Scenario

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


def _add_pipeline_flags(p: argparse.ArgumentParser, *, strategy: bool = True) -> None:
    if strategy:  # experiment-a takes --strategies instead
        p.add_argument(
            "--strategy",
            default="mean",
            choices=[s.value for s in KeypointStrategy],
            help="keypoint depth statistic (default: mean)",
        )
    p.add_argument("--cobb-ratio", type=float, default=EstimatorParams.cobb_ratio,
                   help="center-circle radius as a fraction of min(w, h) (default: %(default)s)")
    p.add_argument("--eps", type=float, default=EstimatorParams.dbscan_eps,
                   help="DBSCAN depth radius in meters (default: %(default)s)")
    p.add_argument("--min-pts", type=int, default=EstimatorParams.dbscan_min_pts,
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
    p_sim.add_argument("--truth", default=None,
                       help="optional ground-truth JSONL path, or - for stdout when -o is a path")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument("--intrinsics", default=None)

    p_expa = sub.add_parser("experiment-a", help="angular-accuracy grid sweep")
    _add_pipeline_flags(p_expa, strategy=False)
    p_expa.add_argument("--scenario", default=None)
    p_expa.add_argument("--strategies", default="mean,median,closest,dbscan",
                        help="comma-separated strategies to evaluate, each listed once")
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


def _load_config(cls, path: str, what: str, read: list):
    """A ``cls`` from the JSON file at ``path``; an unreadable file is a data error,
    bad content a usage error. The file's ``_file_id`` joins ``read``, the files no
    output of the run may be."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            config = from_json(cls, json.load(f))
    except OSError as exc:
        raise DataError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"bad {what} file {path}: {exc}") from exc
    read.append(_file_id(path))
    return config


def _load_intrinsics(path: str | None, read: list) -> CameraIntrinsics:
    if path is None:
        return default_intrinsics()
    return _load_config(CameraIntrinsics, path, "intrinsics", read)


def _load_scenario(args, *, use_targets: bool) -> tuple[CameraIntrinsics, Scenario, list]:
    """The intrinsics and the scenario of a ``simulate``, ``experiment-a`` or
    ``experiment-b`` run, with ``--seed`` applied and the scenario checked for
    the aims the run renders: its floor targets when ``use_targets``, else its
    directions. Also the ``read`` list of ``_load_config``."""
    from .simulate import Scenario, ScenarioError, default_scenario, validate_scenario

    read: list = []
    intr = _load_intrinsics(args.intrinsics, read)
    if args.scenario is None:
        scenario = default_scenario()
    else:
        scenario = _load_config(Scenario, args.scenario, "scenario", read)
    if args.seed is not None:
        try:
            scenario = replace(scenario, seed=args.seed)
        except ValueError as exc:  # its message starts with "seed:"
            raise UsageError(f"--{exc}") from exc
    try:
        validate_scenario(scenario, intr, use_targets=use_targets)
    except ScenarioError as exc:
        lines = ["invalid scenario:", *(f"  - {e}" for e in exc.errors)]
        raise UsageError("\n".join(lines)) from exc
    return intr, scenario, read


def _params_from_args(args) -> EstimatorParams:
    try:
        return EstimatorParams(
            cobb_ratio=args.cobb_ratio,
            dbscan_eps=args.eps,
            dbscan_min_pts=args.min_pts,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _open_out(path: str, stack: ExitStack, mode: str = "w"):
    """stdout for "-", else ``path`` opened for writing (``mode`` "w" or "a")
    and closed with ``stack``."""
    if path == "-":
        return sys.stdout
    try:
        return stack.enter_context(open(path, mode, encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _file_id(f) -> tuple[int, int] | None:
    """``(st_dev, st_ino)`` of the regular file at path ``f`` or open as stream
    ``f``; None for anything else (no such path, no descriptor, a pipe)."""
    try:
        s = os.stat(f) if isinstance(f, (str, Path)) else os.fstat(f.fileno())
    except (AttributeError, OSError, ValueError):
        return None
    return (s.st_dev, s.st_ino) if stat.S_ISREG(s.st_mode) else None


def _refuse_same_file(path, held: list) -> None:
    """Refuse to write ``path`` when its ``_file_id`` is in ``held``, the files
    the run reads or writes: opening it for writing would empty that file."""
    ident = None if path == "-" else _file_id(path)
    if ident is not None and ident in held:
        raise UsageError(f"{path} is also an input or output of this run")


def _make_outdir(path: str) -> Path:
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from exc
    return outdir


def cmd_estimate(args) -> int:
    read: list = []
    intr = _load_intrinsics(args.intrinsics, read)
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
        _refuse_same_file(args.output, [*read, _file_id(lines)])
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
                commit = gate.update(result)
                if commit is not None:
                    commits += 1
                    out.write(dumps_line(commit_to_dict(commit)) + "\n")
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
    from .simulate import simulate_log, truth_to_dict

    use_targets = args.aim == "targets"
    intr, scenario, read = _load_scenario(args, use_targets=use_targets)
    if args.truth == "-" and args.output == "-":
        raise UsageError("--truth - needs -o to name a file: both would write to stdout")
    for path in filter(None, (args.output, args.truth)):
        _refuse_same_file(path, read)
    n = 0
    with ExitStack() as stack:
        # --truth opens without truncation and is emptied once -o has opened,
        # so a bad path on either side leaves the other file's bytes as they were
        truth_out = _open_out(args.truth, stack, "a") if args.truth else None
        _refuse_same_file(args.output, [_file_id(truth_out)])
        out = _open_out(args.output, stack)
        if args.truth not in (None, "-") and stat.S_ISREG(os.fstat(truth_out.fileno()).st_mode):
            truth_out.truncate(0)  # pipes and devices have nothing to truncate
        for frame, truth in simulate_log(scenario, intr, use_targets=use_targets):
            out.write(frame_to_line(frame) + "\n")
            if truth_out is not None:
                truth_out.write(dumps_line(truth_to_dict(truth, frame.timestamp)) + "\n")
            n += 1
    print(f"frames written: {n}", file=sys.stderr)
    return EXIT_OK


def cmd_experiment_a(args) -> int:
    from .simulate import run_experiment_a

    intr, scenario, read = _load_scenario(args, use_targets=False)
    params = _params_from_args(args)
    try:
        strategies = tuple(
            KeypointStrategy.from_name(s.strip()) for s in args.strategies.split(",") if s.strip()
        )
    except ValueError as exc:
        raise UsageError(f"--strategies: {exc}") from exc
    if not strategies:
        raise UsageError("--strategies: no strategies selected")
    repeated = sorted({s.value for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise UsageError(f"--strategies: {', '.join(repeated)} listed more than once")
    outdir = _make_outdir(args.outdir)
    for name in ["angle_cells.csv", "summary.txt", *(f"heatmap_{s.value}.svg" for s in strategies)]:
        _refuse_same_file(outdir / name, read)
    cells = run_experiment_a(
        scenario, intr, strategies=strategies, params=params,
        frames_per_cell=args.frames, jobs=args.jobs,
    )
    write_text(outdir / "angle_cells.csv", angle_cells_to_csv(cells))
    for strategy in strategies:
        values, ranges, bearings = angle_cells_heatmap(cells, strategy.value)
        svg = polar_heatmap_svg(values, ranges, bearings,
                                title=f"Mean pointing error ({strategy.value} depth)")
        write_text(outdir / f"heatmap_{strategy.value}.svg", svg)
    summary = format_angle_summary(cells, strategies)
    write_text(outdir / "summary.txt", summary)
    print(summary, end="", file=sys.stderr)
    return EXIT_OK


def cmd_experiment_b(args) -> int:
    from .simulate import run_experiment_b, summarize_goal_by_distance

    intr, scenario, read = _load_scenario(args, use_targets=True)
    params = _params_from_args(args)
    strategy = KeypointStrategy.from_name(args.strategy)
    outdir = _make_outdir(args.outdir)
    for name in ("goal_cells.csv", "goal_table.txt"):
        _refuse_same_file(outdir / name, read)
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
    from .simulate import NoiseModel, SubjectModel, synthesize_frame

    intr = _load_intrinsics(args.intrinsics, [])  # bench writes only to stdout
    params = _params_from_args(args)
    strategy = KeypointStrategy.from_name(args.strategy)
    subject = SubjectModel()
    pose = (2.0, 0.0)
    per_roi = args.samples // 2
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
        for flag, least in (("frames", 1), ("jobs", 1), ("seed", 0), ("samples", 2)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise UsageError(f"--{flag} must be at least {least}, got {value}")
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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
