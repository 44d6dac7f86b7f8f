"""Seeded mutation test of the CLI's input boundary.

A tiny scene is generated and fitted, segmented and tracked once. Each case
then copies those inputs, mutates one file and runs every command that reads
it (`fit`, `segment`, `track`, `eval`) through `cli.main`. Bad input must exit
2 with a message that names the mutated file; it must never reach a runtime
failure (exit 3) inside the fit. A mutation the readers accept exits 0.

A mutation is a file and a tuple of edits, each one of: truncate the file
before a line, drop a line, duplicate it, swap it with the next one, or set
one numeric token of a line to a value such as `nan`, `1e308` or `abc`. A
line is an index (taken modulo the line count, so negative indices count from
the end) or the text of the first line that contains it; a token index is
taken modulo the line's count of numeric tokens. Hypothesis draws single
edits, derandomized so the cases are the same on every run; the explicit
cases are the causes that once exited 3 and the scale ranges that reject them.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gscascade.cli import main

TINY = {
    "scene": {"kind": "wheel", "n_gaussians": 30, "n_frames": 3, "motion_magnitude": 18.0},
    "train": {"iters_per_frame": 3, "layer_sizes": [2, 6]},
    "segmentation": {"k_parts": 2},
    "tracking": {"n_tracks": 3},
    "seed": 3,
}
SCENE_FILES = ("scene/scene.json", "scene/init_gaussians.csv", "scene/gt_trajectory.csv",
               "scene/labels.csv", "scene/frames/frame_000.ply", "scene/frames/frame_001.ply",
               "scene/frames/frame_002.ply")
FILES = (*SCENE_FILES, "fit/trajectory.csv", "fit/summary.json", "seg/summary.json",
         "track/summary.json")
VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "", "abc")
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _commands(root, relpath):
    """The argv of every command that reads `relpath` under `root`."""
    cfg = str(root / "run.json")
    fit, scene = str(root / "fit"), str(root / "scene")
    segment = ["segment", fit, "--scene", scene, "--config", cfg, "--out", str(root / "o_seg")]
    track = ["track", fit, "--scene", scene, "--config", cfg, "--out", str(root / "o_track")]
    evaluate = ["eval", fit, str(root / "seg"), str(root / "track"), "--out",
                str(root / "o_eval")]
    if relpath in SCENE_FILES:
        return [["fit", scene, "--config", cfg, "--out", str(root / "o_fit")], segment, track]
    if relpath == "fit/trajectory.csv":
        return [segment, track]
    if relpath == "fit/summary.json":
        return [segment, track, evaluate]
    return [evaluate]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input files of a tiny scene and of its fit, segmentation and track."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "run.json"
    cfg.write_text(json.dumps(TINY))
    for argv in (["generate", "--out", str(root / "scene")],
                 ["fit", str(root / "scene"), "--out", str(root / "fit")],
                 ["segment", str(root / "fit"), "--out", str(root / "seg")],
                 ["track", str(root / "fit"), "--out", str(root / "track")]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--config", str(cfg)]) == 0
    # keep only what some command reads
    for output in ("fit/checkpoints", "seg/labeled", "track/overlays"):
        shutil.rmtree(root / output)
    return root


def _line(lines, line):
    if isinstance(line, str):
        return next(i for i, text in enumerate(lines) if line in text)
    return line % len(lines)


def mutate(path, edits):
    lines = path.read_text().splitlines()
    for op, line, token, value in edits:
        if not lines:
            break
        i = _line(lines, line)
        if op == "truncate":
            lines = lines[:i]
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = (i + 1) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            spans = [m.span() for m in NUMBER.finditer(lines[i])]
            if spans:
                a, b = spans[token % len(spans)]
                lines[i] = lines[i][:a] + value + lines[i][b:]
    path.write_text("".join(text + "\n" for text in lines))


def check(inputs, relpath, edits):
    """Run the commands that read the mutated file; returns their exit codes."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "case"
        shutil.copytree(inputs, root)
        mutate(root / relpath, edits)
        for argv in _commands(root, relpath):
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  warnings.catch_warnings()):
                warnings.simplefilter("error", RuntimeWarning)  # a leak exits 3
                code = main(argv)
            case = f"{relpath} {edits}: {argv[0]} exited {code}: {err.getvalue()}"
            assert code in (0, 2), case
            # summary.json is named with its directory: there are three
            named = relpath if relpath.endswith("summary.json") else Path(relpath).name
            assert code == 0 or named in err.getvalue(), case
            codes.append(code)
    return codes


def _set(line, values):
    """Edits that set several tokens {index: value} of one line."""
    return tuple(("set", line, token, value) for token, value in values.items())


# the causes that once exited 3, each with the exit codes of the commands that
# read the file: fit, segment and track for a scene file, segment and track for
# the fit's trajectory
EXPLICIT = [
    # a scale below the PD floor, squared distances that overflow, a quaternion
    # whose norm overflows, and a trajectory of one frame
    ("scene/init_gaussians.csv", (("set", 1, 8, "1e-320"),), [2, 2, 2]),
    ("scene/frames/frame_001.ply", (("set", -1, 0, "1e308"),), [2, 2, 2]),
    ("scene/init_gaussians.csv", (("set", 1, 4, "1e308"),), [2, 2, 2]),
    ("fit/trajectory.csv", (("set", -1, 5, "1e308"),), [2, 2]),
    ("fit/trajectory.csv", (("truncate", 31, 0, ""),), [2, 2]),
    # a non-finite camera
    ("scene/scene.json", (("set", '"fx"', 0, "NaN"),), [2, 2, 2]),
    # scales out of the propagated covariance's range
    ("scene/init_gaussians.csv", (("set", 1, 8, "1e10"),), [2, 2, 2]),
    ("scene/init_gaussians.csv", (("set", 1, 8, "1e100"),), [2, 2, 2]),
    ("scene/init_gaussians.csv", _set(1, {4: "0.9", 5: "0.3", 6: "0.2", 7: "0.1", 8: "3e6"}),
     [2, 2, 2]),
    ("scene/init_gaussians.csv", _set(1, {8: "1e150", 9: "1e150", 10: "1e150"}), [2, 2, 2]),
    ("scene/init_gaussians.csv", _set(1, {8: "1e160", 9: "1e160", 10: "1e160"}), [2, 2, 2]),
    # found by this test: a trajectory scale that is not positive; a camera
    # rotation of three entries (line 9 is its first) or whose norm overflows,
    # and an image height that is not an integer; a ground-truth coordinate
    # whose square overflows, and a ground-truth track start that no fitted
    # Gaussian projects near
    ("fit/trajectory.csv", (("set", 1, 9, "0"),), [2, 2]),
    ("scene/scene.json", (("drop", 9, 0, ""),), [2, 2, 2]),
    ("scene/scene.json", (("set", 10, 0, "1e308"),), [2, 2, 2]),
    ("scene/scene.json", (("set", '"height"', 0, "1e308"),), [2, 2, 2]),
    ("scene/gt_trajectory.csv", (("set", 3, 2, "1e308"),), [2, 2, 2]),
    ("scene/gt_trajectory.csv", (("set", 3, 2, "1e-320"),), [0, 0, 2]),
]


@pytest.mark.parametrize("relpath, edits, codes", EXPLICIT)
def test_known_bad_inputs_exit_2_naming_the_file(inputs, relpath, edits, codes):
    assert check(inputs, relpath, edits) == codes


_edits = st.one_of(
    st.tuples(st.sampled_from(("truncate", "drop", "duplicate", "swap")),
              st.integers(0, 200), st.just(0), st.just("")),
    st.tuples(st.just("set"), st.integers(0, 200), st.integers(0, 20), st.sampled_from(VALUES)),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FILES), _edits)
@example("scene/init_gaussians.csv", ("set", 3, 9, "1e-320"))
@example("scene/frames/frame_000.ply", ("truncate", 12, 0, ""))
def test_mutated_inputs_exit_0_or_2_naming_the_file(inputs, relpath, edit):
    check(inputs, relpath, (edit,))
