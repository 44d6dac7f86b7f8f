"""End-to-end CLI checks: pipeline happy path, exit codes, byte determinism."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from gscascade.cli import INIT_GAUSSIANS_HEADER, load_scene_dir, main, write_scene_dir
from gscascade.clustering import ClusterHierarchy
from gscascade.core import GaussianSet
from gscascade.deform import cascade_apply, cascade_from_payload
from gscascade.io_formats import read_csv, read_json, read_ply, read_trajectory_csv, write_ply
from gscascade.scenegen import SceneSpec, generate
from gscascade.tracking import mte, project_track
from oracles import select_candidate_loop

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
    assert np.array_equal(back.frame0.colors, seq.frame0.colors)
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
])
def test_missing_out_is_a_config_error(argv, tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(argv + ["--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


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
    write_ply(ply, corrupt(read_ply(ply)[0]))


def _drop_last_line(ply):
    lines = ply.read_text().splitlines()
    ply.write_text("\n".join(lines[:-1]) + "\n")  # the header still declares 30


def _garble_last_line(ply):
    lines = ply.read_text().splitlines()
    ply.write_text("\n".join(lines[:-1] + ["0.1 zero 0.3 128 128 128"]) + "\n")


@pytest.mark.parametrize("corrupt, message", [
    (lambda ply: _rewrite_points(ply, lambda pts: pts[:-1]),
     "29 points, expected one per Gaussian (30)"),
    (lambda ply: _rewrite_points(
        ply, lambda pts: np.where(np.arange(len(pts))[:, None] == 4, np.nan, pts)),
     "non-finite"),
    (_drop_last_line, "declares 30 vertices, body has 29 rows"),
    (_garble_last_line, "bad vertex row"),
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


def _edit_cell(row, col, value):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = value
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
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
    pytest.param("labels.csv", _edit_cell(3, 1, "-4"), "label -4 of index 2 is negative",
                 id="labels-negative"),
    pytest.param("init_gaussians.csv",
                 _edit_rows(lambda rows: [rows[0].replace("qw", "w")] + rows[1:]),
                 "unexpected initial Gaussians header", id="init-header"),
    pytest.param("init_gaussians.csv", _edit_cell(4, 12, "nan"), "non-finite g in data row 4",
                 id="init-nan"),
    pytest.param("init_gaussians.csv", _edit_cell(4, 9, "-0.5"),
                 "scales must be strictly positive", id="init-scale"),
    pytest.param("scene.json", _edit_json(lambda meta: meta.pop("part_quats")),
                 "missing key 'part_quats'", id="scene-no-part-quats"),
    pytest.param("scene.json", _edit_json(lambda meta: meta["spec"].update(kind="ship")),
                 "unknown scene kind 'ship'", id="scene-kind"),
])
def test_bad_scene_file_exits_2_naming_it(tmp_path, capsys, name, corrupt, message):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    corrupt(scene / name)
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err and message in err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("layers", ["8,4", "2,31"])
def test_bad_layer_sizes_exit_2_naming_them(tmp_path, capsys, layers):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "fit"),
                 "--layers", layers]) == 2
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


@pytest.mark.parametrize("top, env, name", [
    ({"seed": 1.7}, {}, "seed"),
    ({"seed": True}, {}, "seed"),
    ({"seed": -1}, {}, "seed"),
    ({"threads": 2.9}, {}, "threads"),
    ({}, {"GSCASCADE_SEED": "-1"}, "GSCASCADE_SEED"),
    ({}, {"GSCASCADE_THREADS": "2.9"}, "GSCASCADE_THREADS"),
    ({}, {"GSCASCADE_THREADS": "0"}, "GSCASCADE_THREADS"),
])
def test_bad_seed_or_threads_exits_2_naming_it(tmp_path, capsys, monkeypatch, top, env, name):
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


def test_cli_flags_override_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    scene = tmp_path / "scene"
    assert main(["generate", "--config", cfg, "--out", str(scene)]) == 0

    monkeypatch.setenv("GSCASCADE_ITERS", "4")
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "env")]) == 0
    env_summary = read_json(tmp_path / "env" / "summary.json")
    assert env_summary["iters_per_frame"] == 4
    _, rows = read_csv(tmp_path / "env" / "losses.csv")
    assert len(rows) == 2 * 4  # two fitted frames, four iterations each

    # the --iters / --layers flags outrank the environment and the file
    assert main(["fit", str(scene), "--config", cfg, "--out", str(tmp_path / "flag"),
                 "--iters", "2", "--layers", "3"]) == 0
    flag_summary = read_json(tmp_path / "flag" / "summary.json")
    assert flag_summary["iters_per_frame"] == 2
    assert flag_summary["layer_sizes"] == [3]


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
    hierarchy = ClusterHierarchy.from_payload(read_json(fit / "hierarchy.json"))
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
