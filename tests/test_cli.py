import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointray
from pointray.cli import EXIT_BROKEN_PIPE, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from pointray.frames import frame_to_line
from pointray.simulate import NoiseModel, Scenario, SubjectModel, simulate_log
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
    small_scenario().save(path)
    return str(path)


@pytest.fixture()
def noiseless_log(tmp_path):
    intr = default_intrinsics()
    sc = small_scenario(NoiseModel.noiseless())
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


def test_estimate_missing_input_is_data_error(tmp_path, capsys):
    assert main(["estimate", "-i", str(tmp_path / "nope.jsonl")]) == EXIT_DATA


def test_estimate_bad_flag_is_usage_error(capsys):
    assert main(["estimate", "--strategy", "bogus"]) == EXIT_USAGE


def test_estimate_bad_config_value(noiseless_log, capsys):
    assert main(["estimate", "-i", noiseless_log, "--cobb-ratio", "0.9"]) == EXIT_USAGE


@pytest.mark.parametrize("flags", [
    ["--strategy", "dbscan", "--eps", "nan"],
    ["--gate", "--gate-tau", "nan"],
    ["--gate", "--gate-mode", "direction", "--gate-tau-angle", "nan"],
    ["--gate", "--gate-max-age", "nan"],
    ["--track", "--track-sigma-meas", "nan"],
    ["--track", "--track-sigma-meas", "inf"],
    ["--track", "--track-sigma-accel", "nan"],
    ["--track", "--track-sigma-accel", "inf"],
    ["--track", "--track-sigma-meas", "0", "--track-sigma-accel", "0"],
    ["--track", "--track-miss-limit", "-1"],
])
def test_estimate_rejects_nan_and_out_of_range_settings(flags, noiseless_log, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["estimate", "-i", noiseless_log, "-o", str(out), *flags]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
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


def test_estimate_with_tracking_and_gate(tmp_path, capsys):
    # a single steady pose: goals agree frame to frame, so the gate commits
    intr = default_intrinsics()
    sc = Scenario(subject=SubjectModel(), positions=((2.0, 0.0),),
                  directions=((35.0, 0.0),), frames_per_pose=10, seed=3,
                  noise=NoiseModel.noiseless())
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


def test_simulate_targets_mode(scenario_file, tmp_path):
    out = tmp_path / "frames.jsonl"
    code = main(["simulate", "--scenario", scenario_file, "--aim", "targets",
                 "-o", str(out)])
    assert code == EXIT_OK
    assert len(read_jsonl(out)) == 2 * 2 * 2


def test_simulate_invalid_scenario_lists_fields(tmp_path, capsys):
    sc = small_scenario()
    bad = dict(sc.to_dict(), positions=[[1.5, 80.0]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["simulate", "--scenario", str(path), "-o", str(tmp_path / "x")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "positions[0]" in err


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
    intrinsics = default_intrinsics().to_dict()
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
    path.write_text(json.dumps(dict(default_intrinsics().to_dict(), **{field: value})))
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


def test_closed_stdout_ends_estimate_without_a_traceback(tmp_path):
    # ~1,000 records, far more than a pipe buffers, so estimate is still
    # writing when its reader goes away
    log = tmp_path / "frames.jsonl"
    with open(log, "w") as f:
        for frame, _ in simulate_log(small_scenario(NoiseModel.noiseless(), frames=250),
                                     default_intrinsics()):
            f.write(frame_to_line(frame) + "\n")
    src = str(Path(pointray.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open(tmp_path / "err.txt", "w") as err, subprocess.Popen(
        [sys.executable, "-m", "pointray", "estimate", "-i", str(log)],
        stdout=subprocess.PIPE, stderr=err, env=env,
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


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_runs_small(capsys):
    assert main(["bench", "--frames", "20", "--samples", "500"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p99" in out and "frames/sec" in out


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
