import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointray
from oracles import NOISELESS
from pointray import cli, frames
from pointray.cli import EXIT_BROKEN_PIPE, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from pointray.frames import frame_to_line
from pointray.simulate import NoiseModel, Scenario, SubjectModel, default_scenario, simulate_log
from pointray.geometry import default_intrinsics


def small_scenario(noise=None, frames=2, **kw):
    return Scenario(
        subject=SubjectModel(),
        positions=((1.5, 0.0), (3.5, 10.0)),
        directions=((30.0, 0.0), (45.0, -30.0)),
        floor_targets=((0.0, 1.0), (0.5, 2.0)),
        frames_per_pose=frames,
        seed=7,
        noise=noise or NoiseModel(),
        **kw,
    )


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_scenario().to_dict()))
    return str(path)


@pytest.fixture()
def noiseless_log(tmp_path):
    intr = default_intrinsics()
    sc = small_scenario(NOISELESS)
    path = tmp_path / "frames.jsonl"
    with open(path, "w") as f:
        for frame, _ in simulate_log(sc, intr):
            f.write(frame_to_line(frame) + "\n")
    return str(path)


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.jsonl"
    src.write_text("")
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", str(src), "-o", str(out)]) == EXIT_OK
    assert out.read_text() == ""
    assert "yield: 0/0" in capsys.readouterr().err


def test_estimate_noiseless_log_full_yield(noiseless_log, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", noiseless_log, "-o", str(out)]) == EXIT_OK
    records = read_jsonl(out)
    assert records and all(r["reason"] is None for r in records)
    assert all(len(r["goal"]) == 2 for r in records)
    err = capsys.readouterr().err
    assert f"yield: {len(records)}/{len(records)}" in err


def test_estimate_skips_corrupted_line(noiseless_log, tmp_path, capsys):
    lines = Path(noiseless_log).read_text().splitlines()
    lines.insert(1, "{corrupted")
    src = tmp_path / "bad.jsonl"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", str(src), "-o", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "skipped: 1" in err
    assert len(read_jsonl(out)) == len(lines) - 1


def test_estimate_skips_non_numeric_and_ragged_lines(noiseless_log, tmp_path, capsys):
    lines = Path(noiseless_log).read_text().splitlines()
    face = {"bbox": [0, 0, 10, 10], "conf": 0.9, "samples": [[5, 5, 1]]}
    bad = [
        dict(face, conf="high"),
        dict(face, bbox=[0, "x", 10, 10]),
        dict(face, samples=[["a", 5, 1]]),
        dict(face, samples=[[5, 5], [5, 5, 1]]),
    ]
    # timestamps fall between the first two frames, so only the content is at fault
    lines[1:1] = [json.dumps({"t": 1e-6 * (i + 1), "face": roi}) for i, roi in enumerate(bad)]
    src = tmp_path / "bad.jsonl"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", str(src), "-o", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "skipped: 4" in err
    assert len(read_jsonl(out)) == len(lines) - 4


def test_estimate_skips_strings_and_booleans_as_numbers(noiseless_log, tmp_path, capsys):
    lines = Path(noiseless_log).read_text().splitlines()
    # a float() coercion reads this as t 0.5, bbox (0, 1, 10, 10), confidence 1.0
    found = '{"t":"0.5","face":{"bbox":["0",true,"10",10],"conf":true,"samples":[["5",5,"1"]]}}'
    # numpy reads null as NaN, which a lenient read would drop uncounted
    null = '{"t":-1,"face":{"bbox":[0,0,10,10],"samples":[[null,5,1],[5,5,1]]}}'
    src = tmp_path / "bad.jsonl"
    src.write_text("\n".join([found, null] + lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", str(src), "-o", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: line 1 skipped: timestamp must be a number" in err
    assert "warning: line 2 skipped: samples must be numbers" in err
    assert "skipped: 2" in err
    assert len(read_jsonl(out)) == len(lines)


@pytest.mark.parametrize("track", [[], ["--track"]])
def test_estimate_skips_bboxes_without_finite_extent(track, noiseless_log, tmp_path, capsys):
    lines = Path(noiseless_log).read_text().splitlines()
    boxes = ["[0,0,Infinity,10]", "[-1e308,0,1e308,10]", "[1e308,0,1.5e308,10]"]
    bad = ['{"t":%d,"face":{"bbox":%s,"samples":[]}}' % (t - 3, b) for t, b in enumerate(boxes)]
    src = tmp_path / "bad.jsonl"
    src.write_text("\n".join(bad + lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["estimate", *track, "-i", str(src), "-o", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("with a finite span and center") == 3
    assert "skipped: 3" in err
    assert len(read_jsonl(out)) == len(lines)


def test_estimate_bounds_skip_warnings(noiseless_log, tmp_path, capsys):
    lines = Path(noiseless_log).read_text().splitlines()
    src = tmp_path / "bad.jsonl"
    src.write_text("\n".join(["{corrupted"] * 25 + lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", str(src), "-o", str(out)]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    shown = [line for line in err if line.startswith("warning: line ")]
    assert [line.split()[2] for line in shown] == [str(n) for n in range(1, 11)]
    assert "warning: 15 more lines skipped (not shown)" in err
    assert "skipped: 25" in err[-1]
    assert len(read_jsonl(out)) == len(lines)


def test_estimate_stdin_stdout(noiseless_log, capsys, monkeypatch):
    text = Path(noiseless_log).read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["estimate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.splitlines()) == len(text.splitlines())


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_estimate_skips_an_undecodable_line(source, noiseless_log, tmp_path, capsys, monkeypatch):
    lines = Path(noiseless_log).read_bytes().splitlines(keepends=True)[:5]
    lines[2] = b"\xff\xfe" + lines[2]
    data = b"".join(lines)
    out = tmp_path / "out.jsonl"
    argv = ["estimate", "-o", str(out)]
    if source == "file":
        src = tmp_path / "bad.jsonl"
        src.write_bytes(data)
        argv += ["-i", str(src)]
    else:  # a stdin that raises on bad bytes, as under a UTF-8 locale
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
    assert main(argv) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: line 3 skipped: invalid JSON" in err
    assert "skipped: 1" in err
    assert len(read_jsonl(out)) == 4


@pytest.mark.parametrize("source", ["path", "stdin"])
def test_estimate_refuses_to_write_over_its_input(source, noiseless_log, tmp_path, capsys,
                                                  monkeypatch):
    log = tmp_path / "a.jsonl"
    log.write_bytes(Path(noiseless_log).read_bytes())
    before = log.read_bytes()
    with open(log, encoding="utf-8") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        argv = ["estimate", "-i", str(log) if source == "path" else "-", "-o", str(log)]
        assert main(argv) == EXIT_USAGE
    assert log.read_bytes() == before
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def intrinsics_file(tmp_path, name="intrinsics.json"):
    path = tmp_path / name
    path.write_text(json.dumps(dataclasses.asdict(default_intrinsics())))
    return str(path)


def test_estimate_refuses_to_write_over_its_intrinsics(noiseless_log, tmp_path, capsys):
    intr = intrinsics_file(tmp_path)
    before = Path(intr).read_bytes()
    assert main(["estimate", "-i", noiseless_log, "-o", intr, "--intrinsics", intr]) == EXIT_USAGE
    assert Path(intr).read_bytes() == before
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_estimate_missing_input_is_data_error(tmp_path, capsys):
    assert main(["estimate", "-i", str(tmp_path / "nope.jsonl")]) == EXIT_DATA


def test_estimate_bad_flag_is_usage_error(capsys):
    assert main(["estimate", "--strategy", "bogus"]) == EXIT_USAGE


def test_estimate_bad_config_value(noiseless_log, capsys):
    assert main(["estimate", "-i", noiseless_log, "--cobb-ratio", "0.9"]) == EXIT_USAGE


@pytest.mark.parametrize("flags, field", [
    (["--strategy", "dbscan", "--eps", "nan"], "dbscan_eps"),
    (["--strategy", "dbscan", "--eps", "inf"], "dbscan_eps"),
    (["--cobb-ratio", "nan"], "cobb_ratio"),
    (["--strategy", "dbscan", "--min-pts", "0"], "dbscan_min_pts"),
    (["--gate", "--gate-tau", "nan"], "tau"),
    (["--gate", "--gate-tau", "inf"], "tau"),
    (["--gate", "--gate-mode", "direction", "--gate-tau-angle", "nan"], "tau_angle"),
    (["--gate", "--gate-mode", "direction", "--gate-tau-angle", "inf"], "tau_angle"),
    (["--gate", "--gate-max-age", "nan"], "max_age_s"),
    (["--gate", "--gate-max-age", "inf"], "max_age_s"),
    (["--gate", "--gate-window", "0"], "window"),
    (["--gate", "--gate-window", "1"], "window"),
    (["--gate", "--gate-mode", "direction", "--gate-window", "1"], "window"),
    (["--track", "--track-sigma-meas", "nan"], "sigma_meas"),
    (["--track", "--track-sigma-meas", "inf"], "sigma_meas"),
    (["--track", "--track-sigma-accel", "nan"], "sigma_accel"),
    (["--track", "--track-sigma-accel", "inf"], "sigma_accel"),
    (["--track", "--track-sigma-meas", "0", "--track-sigma-accel", "0"], "sigma_meas"),
    (["--track", "--track-miss-limit", "-1"], "miss_limit"),
])
def test_estimate_rejects_nan_and_out_of_range_settings(flags, field, noiseless_log, tmp_path,
                                                        capsys):
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", noiseless_log, "-o", str(out), *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("error:") == 1
    assert not out.exists()


@pytest.mark.parametrize("t", ["1e100", "1e77"])
def test_estimate_track_restarts_after_an_overflowing_gap(t, noiseless_log, tmp_path, capsys):
    # dt**4 overflows at 1e100 s; at 1e77 s the covariance silently reaches inf
    first = Path(noiseless_log).read_text().splitlines()[0]
    src = tmp_path / "gap.jsonl"
    src.write_text(first + "\n" + json.dumps(dict(json.loads(first), t=float(t))) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "--track", "-i", str(src), "-o", str(out)]) == EXIT_OK
    records = read_jsonl(out)
    # the frame after the gap starts a fresh track, exactly as the first did
    assert records[1] == dict(records[0], t=float(t))
    assert records[0]["reason"] is None


def test_estimate_track_keeps_the_detected_bbox_of_a_collapsed_smoothed_box(tmp_path, capsys):
    # 1.1e12 px from the origin a float's step is 2**-12 px, so the smoothed
    # box of this 2e-4 px wide face rounds both u edges to one value
    shift = 0.000244140625
    lines = [{"t": t, "face": {"bbox": [1127489647817.0 + s, 10, 1127489647817.0002 + s, 50],
                               "samples": []}, "hands": []}
             for t, s in ((0.0, 0.0), (0.033, shift))]
    src = tmp_path / "far.jsonl"
    src.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "--track", "-i", str(src), "-o", str(out)]) == EXIT_OK
    assert [r["reason"] for r in read_jsonl(out)] == ["no_hand", "no_hand"]
    assert "Traceback" not in capsys.readouterr().err


def test_estimate_with_tracking_and_gate(tmp_path, capsys):
    # a single steady pose: goals agree frame to frame, so the gate commits
    intr = default_intrinsics()
    sc = Scenario(subject=SubjectModel(), positions=((2.0, 0.0),),
                  directions=((35.0, 0.0),), frames_per_pose=10, seed=3,
                  noise=NOISELESS)
    src = tmp_path / "steady.jsonl"
    with open(src, "w") as f:
        for frame, _ in simulate_log(sc, intr):
            f.write(frame_to_line(frame) + "\n")
    out = tmp_path / "out.jsonl"
    code = main([
        "estimate", "-i", str(src), "-o", str(out),
        "--track", "--gate", "--gate-window", "4", "--gate-tau", "0.05",
    ])
    assert code == EXIT_OK
    records = read_jsonl(out)
    commits = [r for r in records if "committed_goal" in r]
    assert commits, "expected at least one committed goal"
    assert all("cov_trace" in c for c in commits)


# A face and a hand sampled 0.02 px right of the principal point: the goal's x
# is 2.6e-05, which orjson writes as 0.000026, so the record takes the stdlib branch
_TINY_GOAL_FRAME = {
    "face": {"bbox": [300.02, 130.0, 340.02, 170.0], "conf": 0.9,
             "samples": [[320.02, 150.0, 2.0]] * 4},
    "hands": [{"bbox": [305.02, 215.0, 335.02, 245.0], "conf": 0.9,
               "samples": [[320.02, 230.0, 1.7]] * 4}],
}


@pytest.mark.parametrize("mode", ["goal", "direction"])
def test_gated_estimate_writes_the_same_bytes_without_orjson(mode, tmp_path, monkeypatch):
    pytest.importorskip("orjson")
    sc = Scenario(subject=SubjectModel(), positions=((2.0, 0.0),), floor_targets=((0.5, 2.0),),
                  frames_per_pose=40, seed=3)
    log = tmp_path / "targets.jsonl"
    with open(log, "w") as f:
        for frame, _ in simulate_log(sc, default_intrinsics(), use_targets=True):
            f.write(frame_to_line(frame) + "\n")
        f.write(json.dumps({"t": 40 / 30, **_TINY_GOAL_FRAME}) + "\n")
    argv = ["estimate", "-i", str(log), "--track", "--gate", "--gate-mode", mode]
    outs = []
    for name in ("orjson", "json"):
        if name == "json":
            monkeypatch.setattr(frames, "orjson", None)
        out = tmp_path / f"{name}.jsonl"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    records = read_jsonl(tmp_path / "json.jsonl")
    assert any("committed_goal" in r for r in records)
    [tiny] = [r for r in records if r["t"] == 40 / 30 and "goal" in r]
    assert 0.0 < abs(tiny["goal"][0]) < 1e-4


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_frames_and_truth(scenario_file, tmp_path, capsys):
    frames_path = tmp_path / "frames.jsonl"
    truth_path = tmp_path / "truth.jsonl"
    truth_path.write_text("stale\n" * 100)  # replaced, not appended to
    code = main(["simulate", "--scenario", scenario_file,
                 "-o", str(frames_path), "--truth", str(truth_path)])
    assert code == EXIT_OK
    frames = read_jsonl(frames_path)
    truth = read_jsonl(truth_path)
    assert len(frames) == len(truth) == 2 * 2 * 2
    assert all("bbox" in f["face"] for f in frames)
    assert all("goal" in t for t in truth)


def test_simulate_truth_dash_is_stdout(scenario_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    frames_path = tmp_path / "frames.jsonl"
    code = main(["simulate", "--scenario", scenario_file, "-o", str(frames_path), "--truth", "-"])
    assert code == EXIT_OK
    truth = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [t["t"] for t in truth] == [f["t"] for f in read_jsonl(frames_path)]
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("argv", [
    ["-o", "-", "--truth", "-"],
    ["--truth", "-"],
    ["-o", "{kept}", "--truth", "{kept}"],
], ids=["both-dash", "default-output", "same-file"])
def test_simulate_refuses_two_outputs_to_one_place(argv, scenario_file, tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    kept = tmp_path / "kept.jsonl"
    kept.write_text("old line\n")
    argv = [arg.format(kept=kept) for arg in argv]
    assert main(["simulate", "--scenario", scenario_file, *argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert kept.read_text() == "old line\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl", "scenario.json"]


@pytest.mark.parametrize("output", ["-o", "--truth"])
@pytest.mark.parametrize("config", ["--scenario", "--intrinsics"])
def test_simulate_refuses_to_write_over_a_config_file(config, output, scenario_file, tmp_path,
                                                      capsys):
    intr = intrinsics_file(tmp_path)
    target = scenario_file if config == "--scenario" else intr
    before = Path(target).read_bytes()
    other = tmp_path / "other.jsonl"
    argv = ["simulate", "--scenario", scenario_file, "--intrinsics", intr, output, target,
            "--truth" if output == "-o" else "-o", str(other)]
    assert main(argv) == EXIT_USAGE
    assert Path(target).read_bytes() == before
    assert not other.exists()
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_simulate_targets_mode(scenario_file, tmp_path):
    out = tmp_path / "frames.jsonl"
    code = main(["simulate", "--scenario", scenario_file, "--aim", "targets",
                 "-o", str(out)])
    assert code == EXIT_OK
    assert len(read_jsonl(out)) == 2 * 2 * 2


def test_simulate_invalid_scenario_lists_fields(tmp_path, capsys):
    sc = small_scenario()
    bad = dict(sc.to_dict(), positions=[[1.5, 80.0], [0.5, 0.0]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["simulate", "--scenario", str(path), "-o", str(tmp_path / "x")]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: invalid scenario:\n"
        "  - positions[0]: bearing 80.0 deg outside the camera's +/-34 deg field of view\n"
        "  - positions[1] x direction (30.0, 0.0): face bbox leaves the image "
        "(center 320,-159, size 231x307)\n"
        "  - positions[1] x direction (45.0, -30.0): face bbox leaves the image "
        "(center 320,-159, size 231x307)\n"
    )


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "{scenario}", "-o", "{out}", "--seed", "-1"],
    # an int beyond float range passes main's check but not the scenario's
    ["simulate", "--scenario", "{scenario}", "-o", "{out}", "--seed", "1" + "0" * 400],
    ["experiment-a", "--scenario", "{scenario}", "--outdir", "{out}", "--seed", "-1"],
    ["experiment-b", "--scenario", "{scenario}", "--outdir", "{out}", "--seed", "-1"],
    ["bench", "--frames", "1", "--seed", "-1"],
    ["bench", "--frames", "1", "--samples", "1"],
    ["experiment-a", "--scenario", "{scenario}", "--outdir", "{out}", "--jobs", "0"],
    ["experiment-b", "--scenario", "{scenario}", "--outdir", "{out}", "--jobs", "-2"],
    ["simulate", "--scenario", "{tmp}/seed.json", "-o", "{out}"],
    ["simulate", "--scenario", "{tmp}/word.json", "-o", "{out}"],
    ["simulate", "--scenario", "{tmp}/single.json", "-o", "{out}"],
    ["simulate", "--scenario", "{tmp}/direction.json", "-o", "{out}"],
    ["simulate", "--scenario", "{tmp}/target.json", "-o", "{out}", "--aim", "targets"],
    ["experiment-a", "--scenario", "{tmp}/word.json", "--outdir", "{out}"],
], ids=["simulate-seed", "simulate-huge-seed", "experiment-a-seed", "experiment-b-seed", "bench-seed",
        "bench-samples", "experiment-a-jobs", "experiment-b-jobs", "scenario-seed",
        "position-word", "position-single", "direction-word", "target-word",
        "experiment-a-position"])
def test_bad_seeds_jobs_and_aims_are_usage_errors(argv, scenario_file, tmp_path, capsys):
    base = small_scenario().to_dict()
    for name, change in [("seed", {"seed": -1}), ("word", {"positions": [["a", 0]]}),
                         ("single", {"positions": [[1.5]]}),
                         ("direction", {"directions": [["x", 0]]}),
                         ("target", {"floor_targets": [[0.0, "y"]]})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(base, **change)))
    out = tmp_path / "out"
    paths = {"tmp": tmp_path, "scenario": scenario_file, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


_NOISE = vars(NoiseModel())


@pytest.mark.parametrize("change", [
    {"frames_per_pose": 2.7}, {"frames_per_pose": True}, {"frames_per_pose": "60"},
    {"seed": 1.9}, {"seed": True}, {"seed": "60"},
    *({"noise": dict(_NOISE, **{name: math.nan})} for name in _NOISE),
], ids=["frames-float", "frames-bool", "frames-string", "seed-float", "seed-bool",
        "seed-string", *(f"noise-{name}-nan" for name in _NOISE)])
def test_bad_scenario_settings_exit_1_and_leave_the_output(change, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    # json writes NaN, which it reads back
    path.write_text(json.dumps(dict(small_scenario().to_dict(), **change)))
    out = tmp_path / "frames.jsonl"
    out.write_text("old line\n")
    assert main(["simulate", "--scenario", str(path), "-o", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert out.read_text() == "old line\n"


_SUBJECT = vars(SubjectModel())


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", list(_SUBJECT))
@pytest.mark.parametrize("command", ["simulate", "experiment-a"])
def test_non_finite_subject_exits_1_and_leaves_the_output(command, name, value, tmp_path,
                                                           capsys):
    path = tmp_path / "scenario.json"
    subject = dict(_SUBJECT, **{name: value})
    path.write_text(json.dumps(dict(small_scenario().to_dict(), subject=subject)))
    out = tmp_path / "out"
    if command == "simulate":
        out.write_text("old line\n")
        argv = ["simulate", "--scenario", str(path), "-o", str(out)]
    else:
        out.mkdir()
        (out / "angle_cells.csv").write_text("old line\n")
        argv = ["experiment-a", "--scenario", str(path), "--outdir", str(out), "--frames", "1"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    kept = out if command == "simulate" else out / "angle_cells.csv"
    assert kept.read_text() == "old line\n"
    if command == "experiment-a":
        assert [p.name for p in out.iterdir()] == ["angle_cells.csv"]


def test_simulate_missing_scenario_file(tmp_path):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "x")]) == EXIT_DATA


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_experiment_a_artifacts_and_determinism(scenario_file, tmp_path):
    out1 = tmp_path / "a1"
    out2 = tmp_path / "a2"
    args = ["experiment-a", "--scenario", scenario_file, "--frames", "3",
            "--strategies", "mean,dbscan"]
    assert main(args + ["--outdir", str(out1)]) == EXIT_OK
    assert main(args + ["--outdir", str(out2), "--jobs", "2"]) == EXIT_OK
    csv1 = (out1 / "angle_cells.csv").read_bytes()
    csv2 = (out2 / "angle_cells.csv").read_bytes()
    assert csv1 == csv2
    svg1 = (out1 / "heatmap_mean.svg").read_bytes()
    svg2 = (out2 / "heatmap_mean.svg").read_bytes()
    assert svg1 == svg2
    assert (out1 / "heatmap_dbscan.svg").exists()
    assert (out1 / "summary.txt").exists()
    header = csv1.decode().splitlines()[0]
    assert header.startswith("range_m,bearing_deg,direction,strategy,mean_err_deg,yield")


def test_experiment_b_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["experiment-b", "--scenario", scenario_file, "--frames", "3",
                 "--outdir", str(out)]) == EXIT_OK
    table = (out / "goal_table.txt").read_text()
    assert "16.1" in table  # reference values printed alongside
    csv_text = (out / "goal_cells.csv").read_text()
    assert csv_text.splitlines()[0] == \
        "range_m,bearing_deg,target_x,target_y,strategy,mean_err_cm,std_err_cm,yield"


@pytest.mark.parametrize("command, config, name", [
    ("experiment-a", "--scenario", "summary.txt"),
    ("experiment-a", "--intrinsics", "heatmap_mean.svg"),
    ("experiment-b", "--scenario", "goal_table.txt"),
])
def test_experiment_refuses_to_write_over_a_config_file(command, config, name, scenario_file,
                                                        tmp_path, capsys):
    outdir = tmp_path / "out"
    outdir.mkdir()
    if config == "--scenario":
        path = outdir / name
        path.write_bytes(Path(scenario_file).read_bytes())
    else:
        path = Path(intrinsics_file(outdir, name))
    before = path.read_bytes()
    argv = [command, "--scenario", scenario_file, config, str(path), "--frames", "1",
            "--outdir", str(outdir)]
    assert main(argv) == EXIT_USAGE
    assert path.read_bytes() == before
    assert [p.name for p in outdir.iterdir()] == [name]
    assert capsys.readouterr().err.startswith("error: ")


def test_frames_below_one_is_usage_error(scenario_file, tmp_path, capsys):
    for command in (["experiment-a", "--scenario", scenario_file],
                    ["experiment-b", "--scenario", scenario_file],
                    ["bench"]):
        for frames in ("0", "-1"):
            outdir = tmp_path / f"{command[0]}{frames}"
            extra = [] if command == ["bench"] else ["--outdir", str(outdir)]
            assert main(command + ["--frames", frames, *extra]) == EXIT_USAGE
            assert "--frames must be at least 1" in capsys.readouterr().err
            assert not outdir.exists()


@pytest.mark.parametrize("argv, code", [
    (["estimate", "-i", "{log}", "-o", "{tmp}/missing/x.jsonl"], EXIT_USAGE),
    (["simulate", "--scenario", "{scenario}", "-o", "{out}", "--truth", "{tmp}/missing/t.jsonl"],
     EXIT_USAGE),
    (["estimate", "-i", "{log}", "--intrinsics", "{tmp}"], EXIT_DATA),
    (["simulate", "--scenario", "{tmp}", "-o", "{out}"], EXIT_DATA),
    (["estimate", "-i", "{log}", "--intrinsics", "{tmp}/list.json"], EXIT_USAGE),
    (["estimate", "-i", "{log}", "--intrinsics", "{tmp}/null_fx.json"], EXIT_USAGE),
    (["estimate", "-i", "{log}", "--intrinsics", "{tmp}/inf_width.json"], EXIT_USAGE),
    (["estimate", "-i", "{log}", "--intrinsics", "{tmp}/deep.json"], EXIT_USAGE),
    (["simulate", "--scenario", "{tmp}/list.json", "-o", "{out}"], EXIT_USAGE),
    (["experiment-a", "--scenario", "{scenario}", "--frames", "1", "--outdir", "{log}"],
     EXIT_USAGE),
    (["experiment-b", "--scenario", "{scenario}", "--frames", "1", "--outdir", "{log}"],
     EXIT_USAGE),
], ids=["estimate-output", "simulate-truth", "intrinsics-dir", "scenario-dir", "intrinsics-list",
        "intrinsics-null", "intrinsics-inf", "intrinsics-deep", "scenario-list",
        "experiment-a-outdir", "experiment-b-outdir"])
def test_bad_paths_and_config_files_end_in_one_error_line(
    argv, code, scenario_file, noiseless_log, tmp_path, capsys
):
    intrinsics = dataclasses.asdict(default_intrinsics())
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "null_fx.json").write_text(json.dumps(dict(intrinsics, fx=None)))
    (tmp_path / "inf_width.json").write_text(json.dumps(dict(intrinsics, width=math.inf)))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out.jsonl"
    paths = {"tmp": tmp_path, "log": noiseless_log, "scenario": scenario_file, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["fx", "fy", "camera_height"])
def test_non_finite_intrinsics_end_in_one_error_line(field, value, noiseless_log, tmp_path, capsys):
    path = tmp_path / "intrinsics.json"
    path.write_text(json.dumps(dict(dataclasses.asdict(default_intrinsics()), **{field: value})))
    out = tmp_path / "out.jsonl"
    argv = ["estimate", "-i", noiseless_log, "-o", str(out), "--intrinsics", str(path)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
    assert not out.exists()


@pytest.mark.parametrize("bad", ["output", "truth"])
def test_simulate_bad_path_leaves_the_other_file_as_it_was(bad, scenario_file, tmp_path, capsys):
    kept = tmp_path / "kept.jsonl"
    kept.write_text("old line\n")
    missing = str(tmp_path / "missing" / "x.jsonl")
    out, truth = (missing, str(kept)) if bad == "output" else (str(kept), missing)
    assert main(["simulate", "--scenario", scenario_file, "-o", out, "--truth", truth]) == EXIT_USAGE
    assert kept.read_text() == "old line\n"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output")


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this pointray."""
    src = str(Path(pointray.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


_WATCHED = ("pointray.simulate", "multiprocessing", "concurrent.futures")
# Runs main on the arguments in a fresh interpreter, then prints its exit code
# and which of the watched modules it loaded.
_LOADED = f"""
import json, sys
from pointray.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {_WATCHED!r} if m in sys.modules]]))
"""


@pytest.mark.parametrize("command, loaded", [
    ("estimate", []),
    ("simulate", ["pointray.simulate"]),
    ("experiment-a --jobs 1", ["pointray.simulate"]),
    # the check sees a process pool when one starts
    ("experiment-a --jobs 2", list(_WATCHED)),
])
def test_a_command_loads_only_the_modules_it_runs(command, loaded, noiseless_log,
                                                  scenario_file, tmp_path):
    argv = command.split()
    if argv[0] == "estimate":
        argv += ["-i", noiseless_log, "-o", str(tmp_path / "out.jsonl")]
    elif argv[0] == "simulate":
        argv += ["--scenario", scenario_file, "-o", str(tmp_path / "out.jsonl")]
    else:
        argv += ["--scenario", scenario_file, "--frames", "1", "--outdir", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK, loaded], proc.stderr


def test_closed_stdout_ends_estimate_without_a_traceback(tmp_path):
    # ~1,000 records, far more than a pipe buffers, so estimate is still
    # writing when its reader goes away
    log = tmp_path / "frames.jsonl"
    with open(log, "w") as f:
        for frame, _ in simulate_log(small_scenario(NOISELESS, frames=250),
                                     default_intrinsics()):
            f.write(frame_to_line(frame) + "\n")
    with open(tmp_path / "err.txt", "w") as err, subprocess.Popen(
        [sys.executable, "-m", "pointray", "estimate", "-i", str(log)],
        stdout=subprocess.PIPE, stderr=err, env=_fresh_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert json.loads(first)["reason"] is None
    assert (tmp_path / "err.txt").read_text() == ""
    assert code == EXIT_BROKEN_PIPE


def test_experiment_a_unknown_strategy(scenario_file, tmp_path):
    assert main(["experiment-a", "--scenario", scenario_file,
                 "--strategies", "warp", "--outdir", str(tmp_path / "x")]) == EXIT_USAGE


def test_experiment_a_repeated_strategy_is_usage_error(scenario_file, tmp_path, capsys):
    outdir = tmp_path / "x"
    assert main(["experiment-a", "--scenario", scenario_file, "--strategies",
                 "mean,dbscan, mean,median,dbscan", "--outdir", str(outdir)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: --strategies: dbscan, mean listed more than once\n"
    assert captured.out == ""
    assert not outdir.exists()


def _aim_run(command, scenario, out):
    """argv that runs ``command`` ("simulate" with its ``--aim``) on the
    scenario file ``scenario``, writing into ``out``."""
    if command.startswith("simulate"):
        return [*command.split(), "--scenario", str(scenario), "-o", str(out / "log.jsonl"),
                "--truth", str(out / "truth.jsonl")]
    return [command, "--scenario", str(scenario), "--frames", "1", "--outdir", str(out)]


@pytest.mark.parametrize("command, missing", [
    ("experiment-a", "directions"),
    ("experiment-b", "floor_targets"),
    ("simulate --aim directions", "directions"),
    ("simulate --aim targets", "floor_targets"),
])
def test_a_scenario_without_the_runs_aims_is_invalid(command, missing, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(small_scenario().to_dict(), **{missing: []})))
    out = tmp_path / "out"
    if command.startswith("simulate"):
        out.mkdir()
    assert main(_aim_run(command, path, out)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid scenario:\n"
                            f"  - {missing}: at least one aim is required\n")
    if command.startswith("simulate"):
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


@pytest.mark.parametrize("command", ["experiment-a", "simulate --aim directions"])
def test_a_run_ignores_aims_it_does_not_render(command, tmp_path, capsys):
    # the target is out of frame from this pose; only the runs that aim at
    # floor targets check it
    base = dataclasses.replace(default_scenario(), positions=((1.5, 20.0),), floor_targets=(),
                               frames_per_pose=2)
    runs = {}  # each run's files and stderr
    for name, targets in (("without", ()), ("with", ((3.0, 1.0),))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dataclasses.replace(base, floor_targets=targets).to_dict()))
        out = tmp_path / name
        out.mkdir()
        assert main(_aim_run(command, path, out)) == EXIT_OK
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr().err
    assert runs["without"][0] and runs["with"] == runs["without"]


@pytest.mark.parametrize("command", ["experiment-b", "simulate --aim targets"])
def test_a_run_rejects_aims_it_cannot_render(command, tmp_path, capsys):
    sc = dataclasses.replace(default_scenario(), positions=((1.5, 20.0),),
                             floor_targets=((3.0, 1.0),), frames_per_pose=2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    out = tmp_path / "out"
    out.mkdir()
    assert main(_aim_run(command, path, out)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid scenario:\n"
        "  - positions[0] x target (3.0, 1.0): hand bbox leaves the image "
        "(center 714,224, size 78x78)\n"
    )
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_runs_small(capsys):
    assert main(["bench", "--frames", "20", "--samples", "500"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p99" in out and "frames/sec" in out


def test_bench_samples_below_two_is_usage_error(capsys):
    for samples in ("0", "-5"):  # 1 is a case of test_bad_seeds_jobs_and_aims_are_usage_errors
        assert main(["bench", "--frames", "1", "--samples", samples]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples must be at least 2, got {samples}\n"
    assert main(["bench", "--frames", "1", "--samples", "2"]) == EXIT_OK


def test_bench_empty_frames(capsys):
    # an empty frame (no ROIs) must flow through the pipeline without error
    from pointray.frames import DetectionFrame
    from pointray.pointing import EstimatorParams, estimate_frame
    from pointray.roi import KeypointStrategy

    intr = default_intrinsics()
    res = estimate_frame(DetectionFrame(0.0, None, ()), KeypointStrategy.MEAN_DEPTH,
                         EstimatorParams(), intr)
    assert res.reason == "no_face"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pointray" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# every command
# ---------------------------------------------------------------------------

# a small run of each command that sets every switch its other flags hang on
_SMALL_RUNS = {
    "estimate": ["--track", "--gate", "-i", "{log}", "-o", "{tmp}/estimates.jsonl"],
    "simulate": ["--scenario", "{scenario}", "-o", "{tmp}/log.jsonl",
                 "--truth", "{tmp}/truth.jsonl"],
    "experiment-a": ["--scenario", "{scenario}", "--frames", "1", "--outdir", "{tmp}/a"],
    "experiment-b": ["--scenario", "{scenario}", "--frames", "1", "--outdir", "{tmp}/b"],
    "bench": ["--frames", "2", "--samples", "50"],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_flag_a_command_accepts_is_read(command, noiseless_log, scenario_file, tmp_path,
                                              capsys):
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    parser = subparsers.choices[command]
    paths = {"log": noiseless_log, "scenario": scenario_file, "tmp": tmp_path}
    args = parser.parse_args([a.format(**paths) for a in _SMALL_RUNS[command]],
                             namespace=Recorder())
    reads.clear()  # argparse reads the namespace while it fills it
    assert cli._COMMANDS[command](args) == EXIT_OK
    unread = {a.dest for a in parser._actions} - {"help"} - reads
    assert unread == set()
