"""Benchmark worker: runs one workload in a loop through ``pointray.cli.main``.

Usage: ``python3 perfbench/worker.py PLAN.json``. The plan names the source
tree, the CLI arguments of one pass, the input file that stands in for
stdin, the file that receives stdout, the run length and whether to trace. The worker runs whole passes
until the run length is used up and writes its observations to the plan's
``result`` path. The parent reads this process's peak memory from outside.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, install, layer_metrics
from streams import LineSource, Recorder, attribute, intervals


def _run(cli, argv, stdin, stdout) -> tuple[int | None, float, float]:
    """One call of ``cli.main`` with stand-in streams.

    Returns ``(exit code or None on a crash, start time, wall time)``.
    ``cli.main`` is looked up at call time so a traced run sees its wrapper.
    """
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, stdout
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        code = None
        traceback.print_exc()
    wall = perf_counter() - t0
    sys.stdin, sys.stdout = saved
    return code, t0, wall


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    import pointray.cli as cli

    cli.main(plan["setup_argv"])  # warm-up: imports and first calls off the clock

    tracer = absent = uninstall = None
    if plan["trace"]:
        tracer = Tracer()
        absent, uninstall = install(tracer)

    # Latency of every unit of work in the run: an input line for
    # ``estimate``, an output frame for ``simulate``, the whole pass for
    # ``experiment-a``. Skipped lines have none (NaN).
    latencies: list[float] = []
    walls, codes, done, digests = [], [], [], []
    owners: list[int] = []
    start = perf_counter()
    while not walls or perf_counter() - start < plan["seconds"]:
        source = LineSource(plan["stdin"]) if plan["stdin"] else None
        with open(plan["stdout"], "w", encoding="utf-8") as sink:
            out = Recorder(source, sink)
            code, t0, wall = _run(cli, plan["argv"], source, out)
        if source is not None:
            source.close()
        walls.append(wall)
        codes.append(code)
        digests.append(_hash_files([plan["stdout"]] + plan["artifacts"]))
        if plan["latency"] == "stream":
            _, lat = attribute(source.pulls, out.times, out.owners)
            owners = list(out.owners)
            done.append(len(lat))
        elif plan["latency"] == "producer":
            lat = intervals(t0, out.times)
            done.append(len(lat))
        else:
            lat = [wall]
            done.append(plan["frames_per_pass"] if code == 0 else 0)
        latencies.extend(lat)

    result = {
        "walls_s": walls,
        "codes": codes,
        "done": done,
        "digests": digests,
        "owners": owners,
        "latency_ms": _latency_percentiles(latencies),
    }
    if tracer is not None:
        uninstall()
        result["layer"] = layer_metrics(tracer, absent)
        result["absent"] = absent
        tracer.save(plan["spans"])
    return result


def _hash_files(paths: list[str]) -> str:
    """One sha256 over the named files, in order; a missing file hashes as absent."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode() + b"\0")
        h.update(Path(p).read_bytes() if Path(p).exists() else b"<absent>")
    return h.hexdigest()


def _latency_percentiles(latencies: list[float]) -> dict[str, float]:
    """Median and 99th percentile over every latency of the run, in ms.

    Whole-run figures: on a shared host whose speed drifts from second to
    second, they are steadier from run to run than figures built per unit
    from the faster passes.
    """
    ms = np.asarray(latencies) * 1000.0
    ms = ms[~np.isnan(ms)]
    return {
        "p50": float(np.percentile(ms, 50)) if ms.size else 0.0,
        "p99": float(np.percentile(ms, 99)) if ms.size else 0.0,
        "samples": int(ms.size),
    }


if __name__ == "__main__":
    with open(sys.argv[1], "r", encoding="utf-8") as f:
        plan = json.load(f)
    result = run(plan)
    with open(plan["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
