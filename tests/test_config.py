"""The intrinsics and scenario files: one rule for every field, checked
through the command line, and the bundled files read back as written."""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pointray
from oracles import NOISELESS
from pointray.cli import EXIT_OK, EXIT_USAGE, main
from pointray.frames import frame_to_line
from pointray.geometry import default_intrinsics
from pointray.simulate import Scenario, default_scenario, simulate_log


def _bundled(name: str) -> dict:
    return json.loads(resources.files("pointray").joinpath("data", name).read_text("utf-8"))


# Written out here rather than read from the code under test: which keys a
# file may leave out and which fields hold integers.
_OPTIONAL = {
    "intrinsics": {"hfov_deg"},
    "scenario": {"subject", "directions", "floor_targets", "frames_per_pose", "seed", "noise",
                 *(f"subject.{k}" for k in _bundled("scenario_default.json")["subject"]),
                 *(f"noise.{k}" for k in _bundled("scenario_default.json")["noise"])},
}
_INTEGERS = {"width", "height", "frames_per_pose", "seed", "noise.n_min"}
_PAIRS = ("positions", "directions", "floor_targets")
_REMOVE = "<remove>"
# None of these is a valid value of any field (2.5 goes only to integer fields).
_VALUES = [math.nan, math.inf, -math.inf, True, "5", None, 10**400, _REMOVE]


def _base(file: str) -> dict:
    if file == "intrinsics":
        return _bundled("intrinsics_default.json")
    data = _bundled("scenario_default.json")
    return dict(data, positions=data["positions"][12:13], directions=data["directions"][:1],
                floor_targets=data["floor_targets"][:1], frames_per_pose=2)


def _paths(file: str) -> list[tuple]:
    """Every field of ``file`` as a key path: nested fields, and both numbers
    of the first pair of each pose and aim list."""
    paths = []
    for key, value in _base(file).items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, k) for k in value]
        if key in _PAIRS:
            paths += [(key, 0, 0), (key, 0, 1)]
    return paths


def _name(path: tuple) -> str:
    """The field an error must name: ``noise.sigma0``, ``positions[0]``."""
    if isinstance(path[-1], int):
        return f"{path[0]}[{path[1]}]"
    return ".".join(path)


def _cases(file: str) -> list[tuple]:
    """Each field with each value of the pool, and an extra key (a third
    number for a pair) at each level."""
    cases, extras = [], {}
    for path in _paths(file):
        cases += [(file, path, v) for v in _VALUES + [2.5] * (_name(path) in _INTEGERS)]
        extra = (*path[:-1], 2 if isinstance(path[-1], int) else "bogus")
        extras[extra] = (file, extra, 1.0)
    return cases + list(extras.values())


_CASES = _cases("intrinsics") + _cases("scenario")


def _mutate(data: dict, path: tuple, value) -> dict:
    data = json.loads(json.dumps(data))
    *parent, last = path
    holder = data
    for key in parent:
        holder = holder[key]
    if value == _REMOVE:
        del holder[last]
    elif isinstance(holder, list) and last == len(holder):
        holder.append(value)
    else:
        holder[last] = value
    return data


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "frames.jsonl"
    base = default_scenario()
    scenario = Scenario(positions=base.positions[12:13], directions=base.directions[:1],
                        frames_per_pose=2, noise=NOISELESS)
    with open(path, "w", encoding="utf-8") as f:
        for frame, _ in simulate_log(scenario, default_intrinsics()):
            f.write(frame_to_line(frame) + "\n")
    return str(path)


@settings(max_examples=len(_CASES), deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(_CASES))
@example(case=("intrinsics", ("width",), 640.7))
@example(case=("intrinsics", ("fx",), "500"))
@example(case=("intrinsics", ("cx",), True))
@example(case=("intrinsics", ("hfov_deg",), math.nan))
@example(case=("scenario", ("noise", "n0"), True))
@example(case=("scenario", ("bogus",), 1.0))
def test_every_field_either_runs_or_ends_in_one_error_line(small_log, case):
    file, path, value = case
    # every value in the pool is invalid, an extra key is unknown, and only a
    # removed optional key leaves a file that runs
    valid = value == _REMOVE and not isinstance(path[-1], int) and _name(path) in _OPTIONAL[file]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / f"{file}.json", Path(tmp) / "out.jsonl"
        config.write_text(json.dumps(_mutate(_base(file), path, value)))
        out.write_text("old line\n")
        if file == "intrinsics":
            argv = ["estimate", "-i", small_log, "-o", str(out), "--intrinsics", str(config)]
        else:
            aim = "targets" if path == ("directions",) else "directions"
            argv = ["simulate", "--scenario", str(config), "-o", str(out), "--aim", aim]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        if valid:
            assert code == EXIT_OK, lines
            assert out.read_text() != "old line\n"
            return
        assert code == EXIT_USAGE
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: bad {file} file {config}: ")
        assert _name(path) in lines[0]
        assert out.read_text() == "old line\n"


@pytest.mark.parametrize("name, load", [
    ("intrinsics_default.json", default_intrinsics),
    ("scenario_default.json", default_scenario),
])
def test_bundled_files_give_back_their_own_values_and_types(name, load):
    # json.dumps writes 640 and 640.0 apart, so equal text means that width,
    # height, seed, frames_per_pose and n_min stay int and the rest float
    assert json.dumps(dataclasses.asdict(load())) == json.dumps(_bundled(name))


def test_loaders_read_the_data_of_their_own_package(tmp_path):
    copy = tmp_path / "pointray_copy"
    shutil.copytree(Path(pointray.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, key, value in [("intrinsics_default.json", "camera_height", 1.5),
                             ("scenario_default.json", "seed", 7)]:
        path = copy / "data" / name
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
    sys.path.insert(0, str(tmp_path))
    try:
        importlib.invalidate_caches()
        geometry = importlib.import_module("pointray_copy.geometry")
        simulate = importlib.import_module("pointray_copy.simulate")
        assert geometry.default_intrinsics().camera_height == 1.5
        assert simulate.default_scenario().seed == 7
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m.split(".")[0] == "pointray_copy"]:
            del sys.modules[name]
