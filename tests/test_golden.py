"""Golden digests: the sha256 of every artifact of one small fixed set of runs.

Same behaviour means byte-identical artifacts under fixed seeds. This test
rebuilds the set in-process and compares each hash with ``golden.json``.
Output bits depend on numpy's own ``dot``, ``hypot`` and ``norm``, so the
hashes hold for the numpy version and machine recorded beside them; on any
other build the test skips. A change that means to move output bytes
rewrites the file with ``PYTHONPATH=src python tests/test_golden.py`` and
names each artifact that changed.
"""

import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pointray import frames
from pointray.cli import EXIT_OK, main
from pointray.simulate import default_scenario

GOLDEN = Path(__file__).with_name("golden.json")
BUILD = {"numpy": np.__version__, "machine": platform.machine()}
ESTIMATES = {
    "plain": [],
    "gated": ["--track", "--gate"],
    "dbscan-direction": ["--strategy", "dbscan", "--track", "--gate", "--gate-mode", "direction"],
}


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == EXIT_OK, argv


def build_streams(scenario: Path, out: Path) -> None:
    """The simulated logs and truth for both aims, and the estimates over each log."""
    out.mkdir(parents=True)
    for aim in ("directions", "targets"):
        log = out / f"{aim}.jsonl"
        _run("simulate", "--scenario", scenario, "--aim", aim, "-o", log,
             "--truth", out / f"{aim}-truth.jsonl")
        for label, flags in ESTIMATES.items():
            _run("estimate", "-i", log, "-o", out / f"{aim}-estimates-{label}.jsonl", *flags)


def write_scenario(path: Path) -> None:
    """The default scenario with 4 frames a pose and seed 1."""
    sc = dataclasses.replace(default_scenario(), frames_per_pose=4, seed=1)
    path.write_text(json.dumps(sc.to_dict()))


def build(scenario: Path, out: Path) -> None:
    """Every artifact of the set, under ``out``; the stream runs in ``streams/``."""
    build_streams(scenario, out / "streams")
    for jobs in (1, 2):
        _run("experiment-a", "--scenario", scenario, "--frames", 3, "--jobs", jobs,
             "--outdir", out / f"experiment-a-jobs{jobs}")
    for strategy in ("mean", "dbscan"):
        _run("experiment-b", "--scenario", scenario, "--frames", 3, "--strategy", strategy,
             "--outdir", out / f"experiment-b-{strategy}")


def digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    if recorded["build"] != BUILD:
        pytest.skip(f"digests recorded on numpy {recorded['build']['numpy']} "
                    f"({recorded['build']['machine']}); this is numpy "
                    f"{BUILD['numpy']} ({BUILD['machine']})")
    return recorded["sha256"]


def test_every_artifact_keeps_its_bytes(golden, tmp_path, monkeypatch):
    scenario = tmp_path / "scenario.json"
    write_scenario(scenario)
    build(scenario, tmp_path / "set")
    built = digests(tmp_path / "set")
    assert built == golden
    experiment_a = [{k.split("/", 1)[1]: v for k, v in built.items()
                     if k.startswith(f"experiment-a-jobs{jobs}/")} for jobs in (1, 2)]
    assert len(experiment_a[0]) == 6 and experiment_a[0] == experiment_a[1]
    # the stream runs again, with the stdlib decoding and encoding every line
    monkeypatch.setattr(frames, "orjson", None)
    build_streams(scenario, tmp_path / "stdlib")
    stdlib = {f"streams/{k}": v for k, v in digests(tmp_path / "stdlib").items()}
    assert stdlib == {k: v for k, v in built.items() if k.startswith("streams/")}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_scenario(Path(tmp) / "scenario.json")
        build(Path(tmp) / "scenario.json", Path(tmp) / "set")
        sha256 = digests(Path(tmp) / "set")
    GOLDEN.write_text(json.dumps({"build": BUILD, "sha256": sha256}, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
