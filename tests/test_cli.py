"""End-to-end CLI checks: pipeline happy path, exit codes, byte determinism."""

import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from gscascade.cli import load_scene_dir, main, write_scene_dir
from gscascade.core import GaussianSet
from gscascade.deform import cascade_apply, cascade_from_payload
from gscascade.io_formats import (INIT_GAUSSIANS_HEADER, read_csv, read_json, read_ply,
                                  read_table, read_trajectory_csv, write_ply)
from gscascade.scenegen import SceneSpec, generate, label_colors
from gscascade.tracking import mte, project_track
from oracles import hierarchy_from_payload, select_candidate_loop

TINY = {
    "scene": {"kind": "wheel", "n_gaussians": 30, "n_frames": 3, "motion_magnitude": 18.0},
    "train": {"iters_per_frame": 8, "layer_sizes": [2, 6]},
    "segmentation": {"k_parts": 2},
    "tracking": {"n_tracks": 3},
    "seed": 3,
}


def write_config(tmp_path, doc=TINY, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tree_bytes(root, exclude=("run.log",)):
    """Map of relative path -> file bytes, skipping the wall-clock log."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in exclude
    }


def test_scene_dir_roundtrip(tmp_path):
    seq = generate(SceneSpec("pendulum", n_gaussians=24, n_frames=3, seed=5))
    write_scene_dir(seq, tmp_path / "scene")
    back = load_scene_dir(tmp_path / "scene")
    assert back.spec.to_payload() == seq.spec.to_payload()
    assert np.array_equal(back.frame0.centers, seq.frame0.centers)
    assert np.array_equal(back.frame0.orientations, seq.frame0.orientations)
    assert np.array_equal(back.frame0.scales, seq.frame0.scales)
    colors = read_table(tmp_path / "scene" / "init_gaussians.csv", INIT_GAUSSIANS_HEADER,
                        "initial Gaussians")[:, 11:]
    assert np.array_equal(colors, label_colors(seq.part_labels))  # the part-label palette
    assert np.array_equal(back.gt_centers, seq.gt_centers)
    assert np.array_equal(back.part_labels, seq.part_labels)
    assert np.array_equal(back.part_quats, seq.part_quats)
    assert len(back.cameras) == len(seq.cameras)
    assert len(back.observations) == seq.n_frames
    for got, src in zip(back.observations, seq.observations):
        assert np.array_equal(got.points, src.points)
    header, _ = read_csv(tmp_path / "scene" / "init_gaussians.csv")
    assert header == INIT_GAUSSIANS_HEADER


def test_pipeline_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    fit = tmp_path / "fit"
    seg = tmp_path / "seg"
    track = tmp_path / "track"

    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    assert "wrote scene 'wheel'" in capsys.readouterr().out
    assert (scene / "scene.json").exists()
    assert (scene / "frames" / "frame_002.ply").exists()
    assert (scene / "gt_trajectory.csv").exists()
    assert (scene / "labels.csv").exists()

    assert main(["fit", str(scene), "--config", cfg, "--out", str(fit)]) == 0
    for name in ("trajectory.csv", "losses.csv", "hierarchy.json", "summary.json", "run.log"):
        assert (fit / name).exists()
    assert (fit / "checkpoints" / "frame_001.json").exists()
    assert (fit / "checkpoints" / "frame_002.json").exists()
    summary = read_json(fit / "summary.json")
    assert summary["n_gaussians"] == 30
    assert summary["layer_sizes"] == [2, 6]
    assert summary["iters_per_frame"] == 8
    assert np.isfinite(summary["mean_center_error"])

    assert main(["segment", str(fit), "--config", cfg, "--out", str(seg)]) == 0
    seg_summary = read_json(seg / "summary.json")
    assert seg_summary["k_parts"] == 2
    assert -1.0 <= seg_summary["ari"] <= 1.0
    assert (seg / "labels.csv").exists()
    assert (seg / "labeled" / "frame_000.ply").exists()

    assert main(["track", str(fit), "--config", cfg, "--out", str(track)]) == 0
    track_summary = read_json(track / "summary.json")
    assert track_summary["n_tracks"] == 3
    assert track_summary["median_mte"] >= 0.0
    assert (track / "mte.csv").exists()
    assert (track / "overlays" / "track_00.ppm").exists()

    out_json = tmp_path / "eval.json"
    assert main(["eval", str(fit), str(seg), str(track), "--out", str(out_json)]) == 0
    runs = read_json(out_json)["runs"]
    assert set(runs) == {"fit", "seg", "track"}

    # an --out without a .json suffix is treated as a directory
    assert main(["eval", str(fit), "--out", str(tmp_path / "evaldir")]) == 0
    assert (tmp_path / "evaldir" / "eval.json").exists()


def test_generate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


def test_fit_outputs_invariant_to_thread_count(tmp_path):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "f1"),
                 "--threads", "1"]) == 0
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "f2"),
                 "--threads", "2"]) == 0
    a, b = tree_bytes(tmp_path / "f1"), tree_bytes(tmp_path / "f2")
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], f"{key} differs across thread counts"


@pytest.mark.parametrize("argv", [
    ["generate"],
    ["fit", "somewhere"],
    ["segment", "somewhere"],
    ["track", "somewhere"],
    ["eval", "somewhere"],
    pytest.param(["repro"], id="repro"),
    pytest.param(["generate", "--out", ""], id="empty-flag"),
])
def test_missing_out_is_a_config_error(argv, tmp_path, capsys, monkeypatch):
    """No output path, or an empty one."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(argv + ["--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]  # nothing written


def test_bad_config_file_paths(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "s")]) == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "s")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, doc={"scene": TINY["scene"], "trian": {}})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_scene_dir_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["fit", str(tmp_path / "missing"), "--config", cfg,
                 "--out", str(tmp_path / "f")]) == 2
    assert "missing input" in capsys.readouterr().err


def _rewrite_points(ply, corrupt):
    write_ply(ply, corrupt(read_ply(ply)))


def _drop_last_line(ply):
    lines = ply.read_text().splitlines()
    ply.write_text("\n".join(lines[:-1]) + "\n")  # the header still declares 30


def _garble_last_line(ply):
    lines = ply.read_text().splitlines()
    ply.write_text("\n".join(lines[:-1] + ["0.1 zero 0.3 128 128 128"]) + "\n")


def _edit_header(old, new):
    def edit_header(ply):
        ply.write_text(ply.read_text().replace(old + "\n", new + "\n", 1))
    return edit_header


@pytest.mark.parametrize("corrupt, message", [
    (lambda ply: _rewrite_points(ply, lambda pts: pts[:-1]),
     "29 points, expected one per Gaussian (30)"),
    (lambda ply: _rewrite_points(
        ply, lambda pts: np.where(np.arange(len(pts))[:, None] == 4, np.nan, pts)),
     "non-finite"),
    (_drop_last_line, "declares 30 vertices, body has 29 rows"),
    (_garble_last_line, "bad vertex row"),
    (_edit_header("format ascii 1.0", "format ascii 1.0\nelement"),
     "malformed PLY header line 3: 'element'"),
    (_edit_header("element vertex 30", "element vertex"),
     "malformed PLY header line 3: 'element vertex'"),
    (_edit_header("element vertex 30", "element vertex -1"),
     "malformed PLY header line 3: 'element vertex -1'"),
    (_edit_header("property double x", "property double"),
     "malformed PLY header line 4: 'property double'"),
    # a binary body was read as text, and swapped axes were read as x, y, z
    (_edit_header("format ascii 1.0", "format binary_little_endian 1.0"),
     "malformed PLY header line 2: 'format binary_little_endian 1.0'"),
    (_edit_header("property double x\nproperty double y\nproperty double z",
                  "property double z\nproperty double y\nproperty double x"),
     "malformed PLY header line 4: 'property double z'"),
    # squared distances to it overflowed: the fit exited 3 on a non-finite gradient
    (lambda ply: _rewrite_points(
        ply, lambda pts: np.where(np.arange(len(pts))[:, None] == 4, 1e308, pts)),
     "x = 1e+308 in data row 5: a coordinate's magnitude must be at most 1e+150"),
])
def test_bad_frame_ply_exits_2_naming_the_file(tmp_path, capsys, corrupt, message):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    ply = scene / "frames" / "frame_001.ply"
    corrupt(ply)
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert "frame_001.ply" in err and message in err
    assert not (tmp_path / "fit").exists()


def _edit_rows(edit):
    """Corrupt a CSV by rewriting its list of lines (header first) with `edit`."""
    def corrupt(path):
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return corrupt


def _edit_cells(row, values):
    """Set the cells {column: value} of line `row` (the header is line 0)."""
    def edit(lines):
        cells = lines[row].split(",")
        for col, value in values.items():
            cells[col] = value
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return _edit_rows(edit)


def _edit_cell(row, col, value):
    return _edit_cells(row, {col: value})


# the quaternion cells of a data row turned to (0.9, 0.3, 0.2, 0.1)
_TURNED = dict(zip(range(4, 8), ("0.9", "0.3", "0.2", "0.1")))


def _scales(*values):
    """The scale cells sx, sy, ... of a data row set to `values`."""
    return dict(zip(range(8, 11), values))


def _edit_centers(center):
    """Set data row i + 1's x, y, z to center(i, data row 1's x, y, z), as strings."""
    def edit(lines):
        rows = [line.split(",") for line in lines[1:]]
        return lines[:1] + [",".join(r[:1] + center(i, rows[0][1:4]) + r[4:])
                            for i, r in enumerate(rows)]
    return _edit_rows(edit)


def _edit_json(edit):
    def corrupt(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


_GRID = "(frame, index) pairs must cover the 3 x 30 grid exactly once"


@pytest.mark.parametrize("name, corrupt, message", [
    pytest.param("gt_trajectory.csv", _edit_rows(lambda rows: rows[:7] + rows[8:]), _GRID,
                 id="gt-missing-row"),
    pytest.param("gt_trajectory.csv", _edit_cell(5, 3, "0.1x"), "bad row", id="gt-garbled"),
    # a duplicated pair and a missing one keep the row count
    pytest.param("gt_trajectory.csv", _edit_cell(8, 1, "6"), _GRID, id="gt-duplicate"),
    pytest.param("gt_trajectory.csv", _edit_rows(lambda rows: rows[:61]),
                 "2 frames x 30 Gaussians, expected 3 x 30", id="gt-short"),
    pytest.param("labels.csv", _edit_cell(30, 0, "999"), "exactly once", id="labels-999"),
    pytest.param("labels.csv", _edit_cell(3, 0, "1"), "exactly once", id="labels-duplicate"),
    pytest.param("labels.csv", _edit_cell(3, 1, "two"), "bad row", id="labels-garbled"),
    pytest.param("labels.csv", _edit_cell(3, 1, "-4"),
                 "label = -4 in the data row of index 2: a part label must be at least 0",
                 id="labels-negative"),
    pytest.param("init_gaussians.csv",
                 _edit_rows(lambda rows: [rows[0].replace("qw", "w")] + rows[1:]),
                 "unexpected initial Gaussians header", id="init-header"),
    pytest.param("init_gaussians.csv", _edit_cell(4, 12, "nan"), "non-finite g in data row 4",
                 id="init-nan"),
    pytest.param("init_gaussians.csv", _edit_cell(4, 9, "-0.5"),
                 "sy = -0.5 in data row 4: a scale must be positive", id="init-scale"),
    # a header and no rows: numpy's reduction error on the centers' extent
    pytest.param("init_gaussians.csv", _edit_rows(lambda rows: rows[:1]), "holds no Gaussians",
                 id="init-empty"),
    # a positive scale whose square is at the covariance's PD floor, and a
    # quaternion whose squared norm overflows, used to exit 3 inside the fit
    pytest.param("init_gaussians.csv", _edit_cell(1, 8, "1e-7"),
                 "sx = 1e-07 in data row 1: a scale's square must be above 1e-12",
                 id="init-tiny-scale"),
    pytest.param("init_gaussians.csv", _edit_cell(2, 4, "1e308"),
                 "qw = 1e+308 in data row 2: the quaternion's squared norm overflows",
                 id="init-huge-quaternion"),
    pytest.param("init_gaussians.csv", _edit_rows(
        lambda rows: rows[:3] + [",".join(rows[3].split(",")[:4] + ["0"] * 4
                                          + rows[3].split(",")[8:])] + rows[4:]),
                 "qw, qx, qy, qz in data row 3: the quaternion's norm is below 1e-12",
                 id="init-zero-quaternion"),
    pytest.param("init_gaussians.csv", _edit_cell(2, 1, "-1e308"),
                 "x = -1e+308 in data row 2: a coordinate's magnitude must be at most 1e+150",
                 id="init-huge-coordinate"),
    # scales beyond the float64 range of the propagated covariance used to exit
    # 3 from the fit ("not positive definite", "did not converge"), one of 1e160
    # with an overflow warning from squaring it
    pytest.param("init_gaussians.csv", _edit_cell(1, 8, "1e10"),
                 "sx = 10000000000.0 in data row 1: a scale must be at most 1e+07 times its"
                 " Gaussian's smallest", id="init-scale-ratio-1e12"),
    pytest.param("init_gaussians.csv", _edit_cells(1, {**_TURNED, **_scales("3e6")}),
                 "sx = 3000000.0 in data row 1: a scale must be at most 1e+07 times its"
                 " Gaussian's smallest", id="init-scale-ratio-turned"),
    pytest.param("init_gaussians.csv", _edit_cell(1, 8, "1e100"),
                 "sx = 1e+100 in data row 1: a scale must be at most 1e+50",
                 id="init-scale-1e100"),
    pytest.param("init_gaussians.csv", _edit_cells(3, _scales("1e150", "1e150", "1e150")),
                 "sx = 1e+150 in data row 3: a scale must be at most 1e+50",
                 id="init-isotropic-1e150"),
    pytest.param("init_gaussians.csv", _edit_cells(3, _scales("1e160", "1e160", "1e160")),
                 "sx = 1e+160 in data row 3: a scale must be at most 1e+50",
                 id="init-isotropic-1e160"),
    pytest.param("init_gaussians.csv", _edit_cells(2, _scales("0.01", "2e-6", "30000.1")),
                 "sz = 30000.1 in data row 2: a scale must be at most 1e+07 times its"
                 " Gaussian's smallest", id="init-scale-ratio-sz"),
    # centers with no extent, or one whose square underflows, used to exit 3
    # from the default neighbour falloff 2000 / extent**2: an extent of 1e-200
    # is 0.0 as the norm computes it, and one of 1e-160 makes the falloff inf
    pytest.param("init_gaussians.csv", _edit_centers(lambda i, first: first),
                 "the centers' extent is 0.0", id="init-zero-extent"),
    pytest.param("init_gaussians.csv",
                 _edit_centers(lambda i, first: ["1e-200" if i == 0 else "0", "0", "0"]),
                 "the centers' extent is 0.0", id="init-extent-1e-200"),
    pytest.param("init_gaussians.csv",
                 _edit_centers(lambda i, first: ["1e-160" if i == 0 else "0", "0", "0"]),
                 "too small for the default neighbour falloff 2000 / extent**2",
                 id="init-extent-1e-160"),
    # a non-finite camera used to exit 3 from track and pass fit and segment
    pytest.param("scene.json", _edit_json(lambda meta: meta["cameras"][0].update(fx=np.nan)),
                 "camera fx must be finite", id="scene-camera-nan"),
    pytest.param("scene.json", _edit_json(lambda meta: meta["cameras"][0].update(fx=np.inf)),
                 "camera fx must be finite", id="scene-camera-inf"),
    # a JSON true used to load as 1
    pytest.param("scene.json", _edit_json(lambda meta: meta["cameras"][0].update(width=True)),
                 "camera width must hold numbers, not booleans", id="scene-camera-width-bool"),
    pytest.param("scene.json", _edit_json(lambda meta: meta["cameras"][0].update(fx=True)),
                 "camera fx must hold numbers, not booleans", id="scene-camera-fx-bool"),
    pytest.param("scene.json", _edit_json(lambda meta: meta.pop("part_quats")),
                 "missing key 'part_quats'", id="scene-no-part-quats"),
    pytest.param("scene.json", _edit_json(lambda meta: meta["spec"].update(kind="ship")),
                 "unknown scene kind 'ship'", id="scene-kind"),
    # a float frame count used to exit 3 (TypeError) inside the fit
    pytest.param("scene.json", _edit_json(lambda meta: meta["spec"].update(n_frames=3.0)),
                 "spec.n_frames must be an integer, got 3.0", id="scene-n-frames-float"),
    pytest.param("scene.json", _edit_json(lambda meta: meta["spec"].update(seed=-1)),
                 "spec.seed must be >= 0, got -1", id="scene-seed"),
    pytest.param("scene.json", _edit_json(lambda meta: meta["spec"].update(frames=3)),
                 "unknown key(s) in 'spec' of ", id="scene-spec-key"),
])
def test_bad_scene_file_exits_2_naming_it(tmp_path, capsys, name, corrupt, message):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    corrupt(scene / name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning on the way would exit 3
        assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err and message in err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("values", [_scales("1e4"), _scales("1e50", "1e50", "1e50")],
                         ids=["sx-1e4", "isotropic-1e50"])
def test_large_initial_scales_in_range_still_fit(tmp_path, values):
    """A scale about 1e6 times its Gaussian's smallest, and an isotropic
    Gaussian at the largest scale allowed, fit with exit 0."""
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    _edit_cells(1, values)(scene / "init_gaussians.csv")
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit")]) == 0
    assert read_csv(tmp_path / "fit" / "trajectory.csv")[1]


@pytest.mark.parametrize("layers", ["8,4", "2,31"])
def test_bad_layer_sizes_exit_2_naming_them(tmp_path, capsys, layers):
    cfg = write_config(tmp_path, doc=dict(TINY, train=dict(TINY["train"], layer_sizes=layers)))
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert f"layer_sizes [{layers.replace(',', ', ')}] for N=30" in err
    assert not (tmp_path / "fit").exists()


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_scene")
    assert main(["generate", "--config", write_config(root), "--out", str(root / "scene")]) == 0
    return root / "scene"


@pytest.fixture(scope="module")
def tiny_fit(tmp_path_factory, tiny_scene):
    root = tmp_path_factory.mktemp("tiny_fit")
    cfg = write_config(root)
    assert main(["fit", str(tiny_scene), "--config", cfg, "--out", str(root / "fit")]) == 0
    return root / "fit"


@pytest.mark.parametrize("section, key, value", [
    ("train", "k_neighbors", 0),
    ("train", "k_neighbors", 2.5),
    ("train", "adam_beta1", 1.0),
    ("train", "adam_eps", 0.0),
    ("train", "lr_rot", float("nan")),
    ("weights", "w_rigid", float("nan")),
    ("train", "lr_trans", -1),
    ("train", "max_scale", -1),
    ("train", "propagate_covariance", "no"),
])
def test_bad_train_and_weight_values_exit_2_naming_them(tiny_scene, tmp_path, capsys,
                                                       section, key, value):
    doc = dict(TINY, **{section: dict(TINY.get(section, {}), **{key: value})})
    cfg = write_config(tmp_path, doc=doc)
    out = tmp_path / "fit"
    assert main(["fit", str(tiny_scene), "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("segment", "segmentation", "k_parts", 0),
    ("segment", "segmentation", "k_parts", 2.5),
    ("segment", "segmentation", "lambda_r", "heavy"),
    ("track", "tracking", "n_tracks", 0),
    ("track", "tracking", "n_tracks", -3),
    ("track", "tracking", "camera_index", -1),
    ("track", "tracking", "camera_index", 11),
])
def test_bad_segmentation_and_tracking_options_exit_2(tiny_fit, tmp_path, capsys,
                                                      command, section, key, value):
    doc = dict(TINY, **{section: {key: value}})
    cfg = write_config(tmp_path, doc=doc)
    out = tmp_path / "out"
    assert main([command, str(tiny_fit), "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{section}.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [5, ["a"], [2.5, 8], [], [0, 8], [True, 8]])
def test_bad_layer_size_list_exits_2_naming_it(tiny_scene, tmp_path, capsys, sizes):
    cfg = write_config(tmp_path, doc=dict(TINY, train=dict(TINY["train"], layer_sizes=sizes)))
    out = tmp_path / "fit"
    assert main(["fit", str(tiny_scene), "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "train.layer_sizes" in err
    assert not out.exists()


@pytest.mark.parametrize("scene, name", [
    # each used to exit 3, or (n_gaussians 40.5) to write a 41-Gaussian scene
    # whose scene.json said 40
    ({"n_frames": 2.5}, "scene.n_frames must be an integer, got 2.5"),
    ({"motion_magnitude": "x"}, "scene.motion_magnitude must be a finite number or null"),
    ({"motion_magnitude": float("inf")}, "scene.motion_magnitude must be a finite number"),
    ({"seed": -1}, "scene.seed must be >= 0, got -1"),
    ({"seed": 1.5}, "scene.seed must be an integer, got 1.5"),
    ({"n_gaussians": 40.5}, "scene.n_gaussians must be an integer, got 40.5"),
])
def test_bad_scene_values_exit_2_naming_them(tmp_path, capsys, scene, name):
    cfg = write_config(tmp_path, doc=dict(TINY, scene=dict(TINY["scene"], **scene)))
    out = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not out.exists()


def test_fit_checks_the_scene_section_it_does_not_use(tiny_scene, tmp_path, capsys):
    cfg = write_config(tmp_path, doc=dict(TINY, scene=dict(TINY["scene"], n_frames=2.5)))
    out = tmp_path / "fit"
    assert main(["fit", str(tiny_scene), "--config", cfg, "--out", str(out)]) == 2
    assert "scene.n_frames must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("top, env, name", [
    ({"seed": 1.7}, {"GSCASCADE_SEED": "3"}, "seed"),
    ({"seed": True}, {"GSCASCADE_SEED": "3"}, "seed"),
    ({"seed": -1}, {"GSCASCADE_SEED": "3"}, "seed"),
    ({"threads": 2.9}, {"GSCASCADE_THREADS": "1"}, "threads"),
])
def test_bad_seed_or_threads_exits_2_naming_it(tmp_path, capsys, monkeypatch, top, env, name):
    """The document's bad value exits 2 even under an exported variable of the
    removed GSCASCADE_* layer, which used to outrank it."""
    for var, text in env.items():
        monkeypatch.setenv(var, text)
    cfg = write_config(tmp_path, doc=dict(TINY, **top))
    out = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not out.exists()


def test_track_picks_match_the_per_candidate_loop(tiny_fit, tmp_path):
    out = tmp_path / "track"
    assert main(["track", str(tiny_fit), "--config", write_config(tmp_path),
                 "--out", str(out)]) == 0
    seq = load_scene_dir(read_json(tiny_fit / "summary.json")["scene_dir"])
    centers, _, _ = read_trajectory_csv(tiny_fit / "trajectory.csv")
    camera = seq.cameras[0]
    # the targets cmd_track draws: n_tracks of the N Gaussians, seeded by the run seed
    n = seq.gt_centers.shape[1]
    targets = np.sort(np.random.default_rng(TINY["seed"]).choice(
        n, size=TINY["tracking"]["n_tracks"], replace=False))
    _, rows = read_csv(out / "mte.csv")
    assert rows
    for track_id, gaussian_index, err in rows:
        gt_track = project_track(camera, seq.gt_centers[:, targets[int(track_id)]])
        pick = select_candidate_loop(centers, camera, gt_track)
        assert int(gaussian_index) == pick
        pred_track = project_track(camera, centers[:, pick])
        assert float(err) == mte(pred_track, gt_track, camera.image_diagonal)


def test_camera_with_every_target_behind_it_exits_2_naming_it(tmp_path, capsys):
    """A camera that sees none of the tracked Gaussians' starts used to exit 3
    with "no usable tracks" after `fit` passed: the scene's camera is bad input."""
    cfg = write_config(tmp_path, doc=dict(TINY, scene=dict(TINY["scene"], n_gaussians=40)))
    scene, fit, out = tmp_path / "scene", tmp_path / "fit", tmp_path / "track"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    _edit_json(lambda meta: meta["cameras"][0].update(translation=[0.0, 0.0, -100.0]))(
        scene / "scene.json")
    assert main(["fit", str(scene), "--config", cfg, "--out", str(fit)]) == 0
    capsys.readouterr()
    assert main(["track", str(fit), "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: camera 0 of scene.json (tracking.camera_index) has all 3 tracked" \
        " Gaussians behind it at frame 0" in err
    assert not out.exists()


def test_k_parts_above_gaussian_count_exits_2(tiny_fit, tmp_path, capsys):
    cfg = write_config(tmp_path, doc=dict(TINY, segmentation={"k_parts": 31}))
    out = tmp_path / "seg"
    assert main(["segment", str(tiny_fit), "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "segmentation.k_parts 31" in err and "N=30" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "track"])
@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_edit_rows(lambda rows: rows[:-1]), _GRID, id="missing-row"),
    pytest.param(_edit_cell(40, 6, "?"), "bad row", id="garbled"),
    pytest.param(_edit_cell(12, 0, "1"), _GRID, id="duplicate"),
    # a coordinate far out of range: segment scored garbage with exit 0
    pytest.param(_edit_cell(40, 2, "1e308"),
                 "x = 1e+308 in the data row of frame 1, index 9: a coordinate's magnitude"
                 " must be at most 1e+150", id="huge-coordinate"),
    # a quaternion that normalizes to zero: segment exited 3
    pytest.param(_edit_cell(40, 6, "1e308"),
                 "qx = 1e+308 in the data row of frame 1, index 9: the quaternion's squared"
                 " norm overflows", id="huge-quaternion"),
    pytest.param(_edit_rows(lambda rows: rows[:12] + [",".join(
        rows[12].split(",")[:5] + ["0"] * 4 + rows[12].split(",")[9:])] + rows[13:]),
                 "qw, qx, qy, qz in the data row of frame 0, index 11: the quaternion's norm is"
                 " below 1e-12", id="zero-quaternion"),
])
def test_bad_trajectory_csv_exits_2_naming_it(tiny_fit, tmp_path, capsys, command, corrupt,
                                              message):
    fit = tmp_path / "fit"
    shutil.copytree(tiny_fit, fit)
    corrupt(fit / "trajectory.csv")
    cfg = write_config(tmp_path)
    assert main([command, str(fit), "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "trajectory.csv" in err and message in err
    assert not (tmp_path / "out").exists()


def _first_gaussians(count):
    """Keep the trajectory rows (header first) of the Gaussians below `count`."""
    return _edit_rows(lambda rows: rows[:1] + [r for r in rows[1:] if int(r.split(",")[1]) < count])


@pytest.mark.parametrize("command", ["segment", "track"])
@pytest.mark.parametrize("corrupt, message", [
    # a complete grid of the wrong size: frame 0 only, or 29 of the 30 Gaussians
    pytest.param(_edit_rows(lambda rows: rows[:31]),
                 "1 frames x 30 Gaussians, expected the scene's 3 x 30", id="frame-0-only"),
    pytest.param(_first_gaussians(29),
                 "3 frames x 29 Gaussians, expected the scene's 3 x 30", id="gaussian-short"),
])
def test_trajectory_of_the_wrong_size_exits_2_naming_it(tiny_fit, tmp_path, capsys, command,
                                                       corrupt, message):
    fit = tmp_path / "fit"
    shutil.copytree(tiny_fit, fit)
    corrupt(fit / "trajectory.csv")
    cfg = write_config(tmp_path)
    assert main([command, str(fit), "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(fit / "trajectory.csv") in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, corrupt, message", [
    pytest.param("segment", _edit_json(lambda s: s.pop("scene_kind")),
                 "missing key 'scene_kind'", id="segment-no-kind"),
    pytest.param("track", _edit_json(lambda s: s.pop("scene_dir")),
                 "missing key 'scene_dir'", id="track-no-scene-dir"),
    pytest.param("eval", lambda path: path.write_text('{"scene_kind": '), "Expecting value",
                 id="eval-malformed"),
])
def test_bad_fit_summary_exits_2_naming_it(tiny_fit, tmp_path, capsys, command, corrupt,
                                           message):
    fit = tmp_path / "fit"
    shutil.copytree(tiny_fit, fit)
    corrupt(fit / "summary.json")
    cfg = write_config(tmp_path)
    assert main([command, str(fit), "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(fit / "summary.json") in err and message in err
    assert not (tmp_path / "out").exists()


def test_eval_creates_the_missing_parents_of_a_json_out(tmp_path):
    """A .json --out gets its parent directories, as a directory --out does."""
    run = tmp_path / "fit"
    run.mkdir()
    (run / "summary.json").write_text('{"scene_kind": "wheel"}')
    out = tmp_path / "nodir" / "sub" / "out.json"
    assert main(["eval", str(run), "--out", str(out)]) == 0
    assert read_json(out) == {"runs": {"fit": {"scene_kind": "wheel"}}}


def test_eval_of_runs_sharing_a_name_exits_2_naming_both(tmp_path, capsys):
    """Runs are keyed by their directory's name: the first run was dropped."""
    runs = [tmp_path / "a" / "fit", tmp_path / "b" / "fit"]
    for run in runs:
        run.mkdir(parents=True)
        (run / "summary.json").write_text("{}")
    out = tmp_path / "out.json"
    assert main(["eval", *map(str, runs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(str(run) in err for run in runs)
    assert not out.exists()


def test_runtime_failure_exits_3(tmp_path, capsys):
    # a huge scaling-bias rate drives sigma to 0: the propagated covariance
    # degenerates inside the optimizer, a numerical failure, not bad input
    doc = dict(TINY, train=dict(TINY["train"], lr_sbias=1e3))
    cfg = write_config(tmp_path, doc=doc)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit")]) == 3
    err = capsys.readouterr().err
    assert "runtime error" in err and "not positive definite" in err


def test_cli_flags_override_config(tmp_path):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0

    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "doc")]) == 0
    assert read_json(tmp_path / "doc" / "summary.json")["seed"] == TINY["seed"]
    # --seed outranks the document's seed
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "flag"),
                 "--seed", "5"]) == 0
    flag_summary = read_json(tmp_path / "flag" / "summary.json")
    assert flag_summary["seed"] == 5
    assert flag_summary["iters_per_frame"] == TINY["train"]["iters_per_frame"]


@pytest.mark.parametrize("command, flags", [
    ("generate", ["--config", "--out", "--seed"]),
    ("fit", ["--config", "--out", "--seed", "--threads"]),
    ("segment", ["--config", "--out", "--seed", "--scene"]),
    ("track", ["--config", "--out", "--seed", "--scene"]),
    ("eval", ["--config", "--out"]),
    ("repro", ["--config", "--out", "--seed", "--threads"]),
])
def test_each_command_lists_only_the_flags_it_reads(capsys, command, flags):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    listed = re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out)
    assert sorted(set(listed) - {"--help"}) == sorted(flags)


@pytest.mark.parametrize("argv", [
    ["eval", "run", "--iters", "3"],
    ["eval", "run", "--seed", "1"],
    ["segment", "fit", "--threads", "2"],
    ["track", "fit", "--threads", "2"],
    ["generate", "--layers", "4"],
    ["generate", "--scene", "scene"],
    ["fit", "scene", "--max-scale", "0.5"],
    ["repro", "--scene", "scene"],
], ids=lambda argv: argv[0] + argv[-2])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--out", str(out)])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists()


def test_repro_pipeline_smoke(tmp_path):
    out = tmp_path / "repro"
    assert main(["repro", "--out", str(out), "--seed", "1"]) == 0
    header, rows = read_csv(out / "comparison.csv")
    assert header == ["scene", "err_single_layer", "err_cascade", "ratio"]
    assert sorted(r[0] for r in rows) == ["pendulum", "two_blobs", "wheel"]
    runs = read_json(out / "eval.json")["runs"]
    assert len(runs) == 8  # six fits + segmentation + tracking
    for name in ("wheel", "pendulum", "two_blobs"):
        assert (out / f"scene_{name}" / "scene.json").exists()
        assert (out / f"fit_{name}_k3" / "trajectory.csv").exists()
        assert (out / f"fit_{name}_k1" / "trajectory.csv").exists()


@pytest.mark.parametrize("doc, names", [
    ({"train": {"iters_per_frame": 2, "max_scale": 0.5}},
     ["train.iters_per_frame", "train.max_scale"]),
    ({"segmentation": {"k_parts": 3}}, ["segmentation.k_parts"]),
], ids=["train", "document"])
def test_repro_rejects_the_options_it_sets_itself(tmp_path, capsys, doc, names):
    """repro fits, segments and tracks with its own settings, which used to
    drop the options it was given without a word."""
    out = tmp_path / "repro"
    assert main(["repro", "--out", str(out), "--seed", "1",
                 "--config", write_config(tmp_path, doc=doc)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(name in err for name in names)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("anchored", False), ("warm_start_params", True), ("recluster_every", 1), ("lr_delta", 1e-3),
])
def test_removed_train_key_exits_2_naming_it(tmp_path, capsys, key, value):
    doc = dict(TINY, train=dict(TINY["train"], **{key: value}))
    cfg = write_config(tmp_path, doc=doc)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", write_config(tmp_path, name="gen.json"),
                 "--out", str(scene)]) == 0
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and key in err
    assert not (tmp_path / "fit").exists()


def test_checkpoint_replays_the_trajectory_bit_for_bit(tmp_path):
    """Checkpoint t applied to trajectory frame t-1 gives frame t exactly, once
    the hierarchy's centroids are recomputed from frame t-1; hierarchy.json
    stores the centroids of the last fitted transition."""
    doc = dict(TINY, scene={"kind": "two_link_arm", "n_gaussians": 40, "n_frames": 4})
    cfg = write_config(tmp_path, doc=doc)
    scene, fit = tmp_path / "scene", tmp_path / "fit"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    assert main(["fit", str(scene), "--config", cfg, "--out", str(fit)]) == 0
    centers, quats, scales = read_trajectory_csv(fit / "trajectory.csv")
    hierarchy = hierarchy_from_payload(read_json(fit / "hierarchy.json"))
    stored = [c.copy() for c in hierarchy.centroids]
    hierarchy.update_centroids(centers[-2])
    for a, b in zip(stored, hierarchy.centroids):
        assert np.array_equal(a, b)
    for t in range(1, len(centers)):
        prev = GaussianSet(centers=centers[t - 1], orientations=quats[t - 1],
                           scales=scales[t - 1], frame_index=t - 1)
        hierarchy.update_centroids(prev.centers)
        ckpt = read_json(fit / "checkpoints" / f"frame_{t:03d}.json")
        out = cascade_apply(cascade_from_payload(ckpt, hierarchy), prev)
        assert np.array_equal(out.centers, centers[t])
        assert np.array_equal(out.orientations, quats[t])
        assert np.array_equal(out.scales, scales[t])
