"""Tests of the benchmark's own measuring and checking code.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import time

import numpy as np
import pytest

import check
import spans
from streams import LineSource, Recorder, attribute
from worker import _run


def _frame(t, hand_extra=()):
    face = [[118.0 + du, 125.0 + dv, 2.0] for du in (-2, 0, 2) for dv in (-2, 0, 2)]
    hand = [[215.0 + du, 215.0 + dv, 1.6] for du in (-2, 0, 2) for dv in (-2, 0, 2)]
    obj = {
        "t": t,
        "face": {"bbox": [100.0, 100.0, 136.0, 150.0], "conf": 0.99, "samples": face},
        "hands": [{"bbox": [200.0, 200.0, 230.0, 230.0], "conf": 0.99,
                   "samples": hand + list(hand_extra)}],
    }
    return json.dumps(obj) + "\n"


def _drive(tmp_path, lines, argv):
    """Run the CLI over ``lines`` through the stand-ins; return per-line outputs."""
    import pointray.cli as cli

    log = tmp_path / "in.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    source = LineSource(str(log))
    with open(tmp_path / "out.jsonl", "w", encoding="utf-8") as sink:
        out = Recorder(source, sink)
        code, _, _ = _run(cli, argv, source, out)
    source.close()
    assert code == 0
    texts = (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
    counts, latencies = attribute(source.pulls, out.times, out.owners)
    per_line, orphans = check.group_by_owner(texts, out.owners, len(source.pulls))
    assert orphans == 0
    return counts, latencies, per_line


def test_attribution_skips_have_no_record_and_commits_stay_on_their_frame(tmp_path):
    lines = [_frame(0.0), _frame(0.1)[:40] + "\n", _frame(0.2)]
    argv = ["estimate", "--track", "--gate", "--gate-window", "2", "--gate-tau", "1.0"]
    counts, latencies, per_line = _drive(tmp_path, lines, argv)

    assert counts == [1, 0, 2]
    assert math.isnan(latencies[1])
    assert latencies[0] > 0 and latencies[2] > 0
    assert "committed_goal" in per_line[2][1]
    tally = check.check_stream(per_line, {0.0: _truth(), 0.2: _truth()})
    assert (tally.skips, tally.estimates, tally.commits, tally.failed) == (1, 2, 1, 0)


def test_attribute_latency_runs_to_the_last_record_of_a_line():
    counts, latencies = attribute([0.0, 1.0, 2.0], [0.5, 2.25, 2.5], [0, 2, 2])
    assert counts == [1, 0, 2]
    assert latencies[0] == 0.5 and math.isnan(latencies[1]) and latencies[2] == 0.5


def _truth():
    return check.Truth(ray=(0.0, 1.0, 0.0), goal=(0.0, 1.0))


def test_infinity_record_counts_toward_fail_frac(tmp_path):
    inf_sample = [(215.0, 215.0, math.inf)]
    lines = [_frame(0.0), _frame(0.1, hand_extra=inf_sample)]
    counts, _, per_line = _drive(tmp_path, lines, ["estimate", "--strategy", "mean"])

    assert counts == [1, 1]
    assert "Infinity" in per_line[1][0]
    tally = check.check_stream(per_line, {0.0: _truth(), 0.1: _truth()})
    assert tally.failed == 1 and tally.estimates == 1 and tally.skips == 0


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": -Infinity}', '{"a": 1e400}'])
def test_strict_loads_rejects_non_finite_numbers(text):
    with pytest.raises(ValueError):
        check.strict_loads(text)


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.002)

    inner = tracer.wrap(inner, "roi.inner")

    def outer():
        inner()
        time.sleep(0.002)
        inner()

    tracer.wrap(outer, "cli.outer")()

    starts = np.frombuffer(tracer.starts, dtype=np.float64)
    ends = np.frombuffer(tracer.ends, dtype=np.float64)
    parents = np.frombuffer(tracer.parents, dtype=np.int64)
    durations = ends - starts
    selfs = spans.self_times(parents, durations)
    assert list(parents) == [-1, 0, 0]
    assert selfs[0] == pytest.approx(durations[0] - durations[1] - durations[2], abs=1e-12)
    assert list(selfs[1:]) == list(durations[1:])
    metrics = spans.layer_metrics(tracer, absent=[])
    assert metrics["roi.self_s"] + metrics["cli.self_s"] == pytest.approx(metrics["trace.wall_s"])


def test_missing_wrapped_name_is_reported_not_raised():
    tracer = spans.Tracer()
    wraps = (
        ("pointray.frames", "no_such_function", "frames.no_such_function", None),
        ("pointray.tracking", "DetectionTracker.no_such_method", "tracking.x", None),
        ("pointray.no_such_module", "f", "cli.f", None),
        ("pointray.roi", "dbscan_depth", "roi.dbscan_depth", None),
    )
    import pointray.roi as roi

    original = roi.dbscan_depth
    absent, uninstall = spans.install(tracer, wraps)
    try:
        assert absent == [
            "pointray.frames:no_such_function",
            "pointray.tracking:DetectionTracker.no_such_method",
            "pointray.no_such_module:f",
        ]
        roi.dbscan_depth([1.0, 1.01, 1.02, 1.03], 0.15, 4)
    finally:
        uninstall()
    assert roi.dbscan_depth is original
    metrics = spans.layer_metrics(tracer, absent)
    assert metrics["trace.absent"] == 3
    assert metrics["roi.dbscan_depth.calls"] == 1
    assert metrics["frames.parse_frame.calls"] == 0


def _record(directory, digest, value):
    import json as _json

    directory.mkdir(exist_ok=True)
    rec = {
        "workload": "log-tracked", "seed": 1, "trace": 0,
        "inputs": {"log.jsonl": digest},
        "metrics": {"throughput_fps": {"value": value, "unit": "frames/s"}},
    }
    (directory / "log-tracked-seed1-trace0.json").write_text(_json.dumps(rec))


def test_compare_refuses_when_input_digests_differ(tmp_path, capsys):
    import compare

    _record(tmp_path / "base", "aaa", 100.0)
    _record(tmp_path / "same", "aaa", 110.0)
    _record(tmp_path / "other", "bbb", 110.0)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    assert "+10.0%" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "other")]) == 1
    assert "log.jsonl" in capsys.readouterr().err
