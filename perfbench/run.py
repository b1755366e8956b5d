"""pointray benchmark: one workload, end-to-end metrics or a per-layer trace.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. The run generates the workload's
inputs from the seed, then starts a worker process that drives
``pointray.cli.main`` in a closed loop (one caller, one thread) for S
seconds, and checks the outputs. With ``--trace 0`` it also times fresh
interpreters running the workload's command on a one-frame input
(``setup_s``). With ``--trace 1`` it runs the workload untraced and then
traced, and reports per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with the sha256 of every generated input and the machine facts, is written
to ``.perfbench/results/``. Exit code 2 means the run could not be made.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
from workloads import SWEEP_FRAMES_PER_CELL, WORKLOADS, Plan  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# Fresh interpreters timed before the worker and after it, so that one slow
# stretch of a shared machine does not set the median.
SETUP_REPEATS = (4, 3)
WORKER_GRACE_S = 60.0
# Sanity limits on accuracy against ground truth; far above the seed's values.
MIN_YIELD = 0.5
MAX_ANGLE_ERR_DEG = 10.0
# Same as the CLI's own entry point, with the source tree put first.
BOOT = "import sys; sys.path.insert(0, sys.argv.pop(1)); from pointray.cli import main; sys.exit(main(sys.argv[1:]))"


class RunError(Exception):
    """The run could not be made; no result is printed."""


def _spawn(cmd: list[str], err_path: Path, deadline_s: float) -> tuple[int, float]:
    """Run a child, returning ``(exit code, peak RSS in MB)`` read from outside."""
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        end = time.monotonic() + deadline_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > end:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_worker(plan: Plan, work: Path, seconds: int, trace: bool) -> dict:
    tag = "traced" if trace else "plain"
    wplan = {
        "src": str(SRC),
        "argv": plan.argv,
        "setup_argv": plan.setup_argv,
        "stdin": plan.stdin,
        "stdout": str(work / "stdout.txt"),
        "artifacts": plan.artifacts,
        "latency": plan.latency,
        "frames_per_pass": plan.frames_per_pass,
        "seconds": seconds,
        "trace": trace,
        "result": str(work / f"worker_{tag}.json"),
        "spans": str(STATE / "results" / f"{work.name}.spans.npz"),
    }
    plan_path = work / f"plan_{tag}.json"
    plan_path.write_text(json.dumps(wplan), encoding="utf-8")
    err = work / f"worker_{tag}.err"
    code, rss = _spawn(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(plan_path)],
        err, seconds + WORKER_GRACE_S,
    )
    if code != 0:
        tail = err.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RunError(f"worker exited with {code}:\n{tail}")
    result = json.loads(Path(wplan["result"]).read_text(encoding="utf-8"))
    result["peak_rss_mb"] = rss
    return result


def measure_setup(plan: Plan, work: Path, repeats: int) -> list[float]:
    """Start-to-exit times of fresh interpreters on the one-frame input."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        code, _ = _spawn([sys.executable, "-c", BOOT, str(SRC), *plan.setup_argv],
                         work / "setup.err", WORKER_GRACE_S)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RunError(f"setup command exited with {code}")
    return times


def check_outputs(plan: Plan, work: Path, res: dict) -> tuple[check.Tally, list[str]]:
    """Check the last pass's outputs; every pass must have produced the same.

    Returns the tally of one pass and a list of problems that make the run
    incorrect (contract breaches are counted in the tally instead).
    """
    problems = []
    if len(set(res["digests"])) != 1:
        problems.append("passes produced different outputs")
    if any(code != 0 for code in res["codes"]):
        problems.append(f"exit codes {sorted(set(map(str, res['codes'])))}")
    text = (work / "stdout.txt").read_text(encoding="utf-8")
    lines = text.splitlines()
    n_done = res["done"][-1]
    if plan.latency == "stream":
        truth = check.load_truth(plan.truth)
        per_line, orphans = check.group_by_owner(lines, res["owners"], n_done)
        tally = check.check_stream(per_line, truth)
        tally.failed += orphans
        if tally.skips != plan.expected_skips:
            problems.append(f"{tally.skips} lines skipped, {plan.expected_skips} faults injected")
    elif plan.latency == "producer":
        tally = _score_log(plan, work, lines)
        if sum(1 for _ in open(plan.truth, encoding="utf-8")) != len(lines):
            problems.append("truth and frame logs differ in length")
    else:
        artifacts = [Path(p) for p in plan.artifacts]
        problems += [f"{p.name} missing" for p in artifacts if not p.is_file()]
        for svg in (p for p in artifacts if p.suffix == ".svg" and p.is_file()):
            body = svg.read_text(encoding="utf-8")
            if not (body.startswith("<svg") and body.rstrip().endswith("</svg>")):
                problems.append(f"{svg.name} is not an SVG document")
        csv_path = artifacts[0]
        text = csv_path.read_text(encoding="utf-8") if csv_path.is_file() else ""
        tally = check.check_angle_csv(text, SWEEP_FRAMES_PER_CELL)
        if tally.attempted == 0:
            problems.append("angle_cells.csv has no rows or a wrong header")
    if plan.latency != "pass":
        # A crash or early exit leaves lines unprocessed: each counts as failed.
        missing = plan.frames_per_pass - n_done
        tally.attempted += missing
        tally.failed += missing
    if tally.yield_ < MIN_YIELD:
        problems.append(f"yield {tally.yield_:.3f} below {MIN_YIELD}")
    if tally.angle_err_deg_mean > MAX_ANGLE_ERR_DEG:
        problems.append(f"mean angular error {tally.angle_err_deg_mean:.2f} deg too large")
    return tally, problems


def _score_log(plan: Plan, work: Path, lines: list[str]) -> check.Tally:
    """Validate a produced frame log, then score the default estimator on it."""
    from pointray.cli import main

    attempted, failed = check.check_frame_log(lines)
    estimates = work / "check_estimates.jsonl"
    main(["estimate", "-i", str(work / "stdout.txt"), "-o", str(estimates)])
    records = estimates.read_text(encoding="utf-8").splitlines()
    tally = check.check_stream([[r] for r in records], check.load_truth(plan.truth))
    tally.attempted, tally.failed, tally.frames = attempted, failed, attempted
    return tally


def machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pointray" / "cli.py").is_file():
        print(f"error: no pointray sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (STATE / "results").mkdir(exist_ok=True)
    try:
        record = measure(args, work)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = STATE / "results" / f"{work.name}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in record["report"]:
        print(line)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(args, work: Path) -> dict:
    plan = WORKLOADS[args.workload](work, args.seed)
    if args.trace:
        plain = run_worker(plan, work, args.seconds, trace=False)
        traced = run_worker(plan, work, args.seconds, trace=True)
    else:
        setup = measure_setup(plan, work, SETUP_REPEATS[0])
        plain = run_worker(plan, work, args.seconds, trace=False)
        setup += measure_setup(plan, work, SETUP_REPEATS[1])
        setup_s = statistics.median(setup)
        traced = None
    tally, problems = check_outputs(plan, work, plain)
    if traced is not None and traced["digests"][-1] != plain["digests"][-1]:
        problems.append("traced run produced different outputs")

    passes = len(plain["walls_s"])
    fps = sum(plain["done"]) / sum(plain["walls_s"])
    # Counts cover the distinct inputs of one pass: every pass repeats the same
    # input and must write the same bytes, so they depend on the seed alone,
    # not on how many passes fit in the run.
    attempted, failed = tally.attempted, tally.failed
    quality = {
        "yield": tally.yield_,
        "angle_err_deg_mean": tally.angle_err_deg_mean,
        "goal_err_cm_mean": tally.goal_err_cm_mean,
        "fail_frac": failed / attempted if attempted else 1.0,
    }
    if traced is None:
        metrics = {
            "throughput_fps": (fps, "frames/s"),
            "latency_p50_ms": (plain["latency_ms"]["p50"], "ms"),
            "latency_p99_ms": (plain["latency_ms"]["p99"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            "yield": (quality["yield"], "ratio"),
            "angle_err_deg_mean": (quality["angle_err_deg_mean"], "deg"),
            "ok_frac": (1.0 - quality["fail_frac"], "ratio"),
        }
    else:
        layer = traced["layer"]
        layer["trace.overhead_frac"] = _s_per_frame(traced) / _s_per_frame(plain) - 1.0
        metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}

    report = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}  passes {passes}  frames {sum(plain['done'])}  "
        f"latency samples {plain['latency_ms']['samples']}",
        f"pass walls (s): {' '.join(f'{w:.3f}' for w in plain['walls_s'])}",
        f"inputs sha256: {json.dumps(plan.inputs, sort_keys=True)}",
        f"quality: yield {quality['yield']:.6f}  angle_err_deg_mean "
        f"{quality['angle_err_deg_mean']:.6f}  goal_err_cm_mean {quality['goal_err_cm_mean']:.6f}"
        f"  fail_frac {quality['fail_frac']:.6f} ({failed}/{attempted})"
        f"  skips/pass {tally.skips} (expected {plan.expected_skips})",
    ]
    if traced is not None and traced["layer"]["pointing.estimate_frame.calls"]:
        report.append(
            f"criterion 9: pointing.estimate_frame.ms_p99 "
            f"{traced['layer']['pointing.estimate_frame.ms_p99']:.3f} ms (traced) vs "
            f"end-to-end latency_p99_ms {plain['latency_ms']['p99']:.3f} ms (untraced)"
        )
    if traced is not None and traced["absent"]:
        report.append(f"absent wrapped names: {', '.join(traced['absent'])}")
    report += [f"problem: {p}" for p in problems]
    report += [f"  {name:<44} {value:>16.6f} {unit}" for name, (value, unit) in metrics.items()]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "inputs": plan.inputs,
        "quality": quality,
        "problems": problems,
        "report": report,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _s_per_frame(res: dict) -> float:
    return sum(res["walls_s"]) / sum(res["done"])


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms_p50", "_ms_p99", ".ms_p99", "_ms_total")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.startswith("frames.bytes"):
        return "chars"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
