"""Command-line pipeline: generate | fit | segment | track | eval | repro.

Every command is deterministic given (inputs, seed): CSV/JSON/PLY/PPM outputs
are byte-identical across reruns and across --threads values. Wall-clock
timings go to run.log only, which is the one file excluded from that
guarantee.

Exit codes: 0 success, 2 configuration/input error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import io_formats as iof
from .clustering import build_hierarchy
from .config import OPTIONS, ConfigError, check_section, load_run_config
from .core import GaussianSet
from .deform import cascade_to_payload
from .losses import DataObservation
from .optimize import fit_sequence, mean_center_error
from .scenegen import SceneSpec, SceneSequence, generate, label_colors
from .segmentation import adjusted_rand_index, build_features, segment
from .tracking import PinholeCamera, score_track


# ---------------------------------------------------------------------------
# scene directory layout


def write_scene_dir(seq, out_dir):
    out = Path(out_dir)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    iof.write_json(
        out / "scene.json",
        {
            "spec": seq.spec.to_payload(),
            "cameras": [c.to_payload() for c in seq.cameras],
            "part_quats": seq.part_quats.tolist(),
            "n_parts": int(seq.part_labels.max() + 1),
            "scene_scale": seq.scene_scale,
        },
    )
    for t, obs in enumerate(seq.observations):
        iof.write_ply(out / "frames" / f"frame_{t:03d}.ply", obs.points)
    iof.write_gt_trajectory_csv(out / "gt_trajectory.csv", seq.gt_centers)
    iof.write_labels_csv(out / "labels.csv", seq.part_labels)
    iof.write_init_gaussians_csv(out / "init_gaussians.csv", seq.frame0)


def write_fit_dir(report, out_dir):
    """Write a FitReport's `trajectory.csv`, `losses.csv`, `hierarchy.json` and
    `checkpoints/frame_NNN.json` (each with its `frame_index`) to `out_dir`:
    the one writer of those files."""
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    iof.write_trajectory_csv(out / "trajectory.csv", report.sets)
    iof.write_losses_csv(out / "losses.csv", report.frames)
    iof.write_json(out / "hierarchy.json", report.hierarchy.to_payload())
    for frame_rep, cascade in zip(report.frames, report.cascades):
        payload = cascade_to_payload(cascade)
        payload["frame_index"] = frame_rep.frame_index
        iof.write_json(out / "checkpoints" / f"frame_{frame_rep.frame_index:03d}.json", payload)


@contextlib.contextmanager
def _input_file(path):
    """Report malformed content of `path` as a config error (exit 2) that names the file."""
    try:
        yield path
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e) if str(e).startswith(str(path)) else f"{path}: {e}") from e


def load_scene_dir(path):
    root = Path(path)
    with _input_file(root / "scene.json") as meta_path:
        meta = iof.read_json(meta_path)
        spec = SceneSpec.from_payload(check_section("scene", meta["spec"], meta_path, name="spec"))
        cameras = [PinholeCamera.from_payload(c) for c in meta["cameras"]]
        part_quats = np.asarray(meta["part_quats"], dtype=np.float64)
    with _input_file(root / "init_gaussians.csv") as init_path:
        frame0 = iof.read_init_gaussians_csv(init_path)
    with _input_file(root / "gt_trajectory.csv") as gt_path:
        gt = iof.read_gt_trajectory_csv(gt_path)
        if gt.shape[:2] != (spec.n_frames, frame0.n):
            raise ValueError(f"{gt.shape[0]} frames x {gt.shape[1]} Gaussians, expected"
                             f" {spec.n_frames} x {frame0.n} (scene.json, init_gaussians.csv)")
    with _input_file(root / "labels.csv") as labels_path:
        labels = iof.read_labels_csv(labels_path)
        if len(labels) != frame0.n:
            raise ValueError(f"{len(labels)} labels, expected one per Gaussian ({frame0.n})")
    observations = []
    for t in range(spec.n_frames):
        with _input_file(root / "frames" / f"frame_{t:03d}.ply") as ply:
            pts, _ = iof.read_ply(ply)
            # scene frames observe every Gaussian, in index order
            if len(pts) != frame0.n:
                raise ValueError(f"{len(pts)} points, expected one per Gaussian ({frame0.n})")
            observations.append(DataObservation(points=pts, correspondence=np.arange(len(pts))))
    return SceneSequence(spec=spec, frame0=frame0, observations=observations, gt_centers=gt,
                         part_labels=labels, part_quats=part_quats, cameras=cameras)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg):
    seq = generate(cfg.scene_spec())
    write_scene_dir(seq, cfg.out)
    print(f"wrote scene '{seq.spec.kind}' ({seq.frame0.n} Gaussians, "
          f"{seq.n_frames} frames) to {cfg.out}")
    return 0


def cmd_fit(cfg, scene_dir):
    t0 = time.perf_counter()
    seq = load_scene_dir(scene_dir)
    tc = cfg.train_config(scene_scale=seq.scene_scale)
    try:
        hierarchy = build_hierarchy(seq.frame0.centers, tc.layer_sizes, seed=tc.seed)
    except ValueError as e:
        raise ConfigError(f"layer_sizes {list(tc.layer_sizes)} for N={seq.frame0.n}"
                          f" Gaussians: {e}") from e
    report = fit_sequence(seq.frame0, seq.observations, tc, hierarchy)

    out = Path(cfg.out)
    write_fit_dir(report, out)
    err = mean_center_error(report.sets, seq.gt_centers)
    summary = {
        "scene_dir": str(scene_dir),
        "scene_kind": seq.spec.kind,
        "n_gaussians": int(seq.frame0.n),
        "n_frames": int(seq.n_frames),
        "layer_sizes": list(tc.layer_sizes),
        "iters_per_frame": int(tc.iters_per_frame),
        "seed": int(tc.seed),
        "max_scale": float(tc.max_scale),
        "propagate_covariance": bool(tc.propagate_covariance),
        "mean_center_error": err,
        "final_losses": report.frames[-1].final_losses,
    }
    iof.write_json(out / "summary.json", summary)
    wall = time.perf_counter() - t0
    (out / "run.log").write_text(
        f"fit {scene_dir} completed in {wall:.3f}s "
        f"({sum(r.wall_time for r in report.frames):.3f}s in optimization)\n"
    )
    print(f"fit {seq.spec.kind}: mean center error {err:.6f} "
          f"(scene scale {seq.scene_scale:.3f}) -> {out}")
    return 0


def _load_fit_dir(fit_dir, scene_dir=None):
    """(scene kind, scene, centers, quats, scales) of a fit; the scene is read
    from `scene_dir`, else from the directory the fit recorded. The trajectory
    must hold every frame (at least 2) and every Gaussian of the scene."""
    fit = Path(fit_dir)
    with _input_file(fit / "summary.json") as path:
        summary = iof.read_json(path)
        kind = str(summary["scene_kind"])
        if scene_dir is None:
            scene_dir = str(summary["scene_dir"])
    seq = load_scene_dir(scene_dir)
    with _input_file(fit / "trajectory.csv") as path:
        centers, quats, scales = iof.read_trajectory_csv(path)
        if centers.shape[:2] != (seq.n_frames, seq.frame0.n):
            raise ValueError(f"{centers.shape[0]} frames x {centers.shape[1]} Gaussians, expected"
                             f" the scene's {seq.n_frames} x {seq.frame0.n}")
    return kind, seq, centers, quats, scales


def cmd_segment(cfg, fit_dir, scene_dir=None):
    kind, seq, centers, quats, scales = _load_fit_dir(fit_dir, scene_dir)
    opts = cfg.seg_options()
    if opts["k_parts"] > centers.shape[1]:
        raise ConfigError(f"segmentation.k_parts {opts['k_parts']} exceeds the number of"
                          f" Gaussians (N={centers.shape[1]})")
    sets = [
        GaussianSet(centers=centers[t], orientations=quats[t], scales=scales[t],
                    frame_index=t)
        for t in range(centers.shape[0])
    ]
    feats = build_features(
        sets, lambda_p=opts["lambda_p"], lambda_r=opts["lambda_r"],
        lambda_p0=opts["lambda_p0"],
    )
    labels = segment(feats, opts["k_parts"], seed=cfg.seed)
    ari = adjusted_rand_index(labels, seq.part_labels)

    out = Path(cfg.out)
    (out / "labeled").mkdir(parents=True, exist_ok=True)
    iof.write_labels_csv(out / "labels.csv", labels)
    iof.write_json(out / "summary.json", {
        "fit_dir": str(fit_dir),
        "k_parts": int(opts["k_parts"]),
        "ari": float(ari),
    })
    colors = label_colors(labels)
    for t in range(centers.shape[0]):
        iof.write_ply(out / "labeled" / f"frame_{t:03d}.ply", centers[t], colors)
    print(f"segment {kind}: k={opts['k_parts']} ARI {ari:.4f} -> {out}")
    return 0


def _draw_dots(image, pixels, color):
    """Paint a 3x3 dot at every finite pixel."""
    h, w = image.shape[:2]
    for u, v in pixels:
        if not (np.isfinite(u) and np.isfinite(v)):
            continue
        x, y = int(round(u)), int(round(v))
        image[max(0, y - 1):min(h, y + 2), max(0, x - 1):min(w, x + 2)] = color


def cmd_track(cfg, fit_dir, scene_dir=None):
    kind, seq, centers, _, _ = _load_fit_dir(fit_dir, scene_dir)
    opts = cfg.track_options()
    if opts["camera_index"] >= len(seq.cameras):
        raise ConfigError(f"tracking.camera_index {opts['camera_index']} is out of range:"
                          f" the scene has {len(seq.cameras)} cameras")
    camera = seq.cameras[opts["camera_index"]]

    rng = np.random.default_rng(cfg.seed)
    n = seq.gt_centers.shape[1]
    n_tracks = min(opts["n_tracks"], n)
    chosen = np.sort(rng.choice(n, size=n_tracks, replace=False))

    scored = []
    for track_id, gi in enumerate(chosen):
        try:
            score = score_track(camera, seq.gt_centers[:, gi], centers)
        except ValueError as e:  # frame 0 of the two trajectories disagrees
            raise ConfigError(f"track {track_id} (Gaussian {gi} of gt_trajectory.csv): {e} in"
                              " trajectory.csv") from e
        if score is not None:  # None: the target starts behind the camera
            scored.append((track_id, *score))
    if not scored:
        raise ConfigError(f"camera {opts['camera_index']} of scene.json (tracking.camera_index)"
                          f" has all {n_tracks} tracked Gaussians behind it at frame 0")

    out = Path(cfg.out)
    (out / "overlays").mkdir(parents=True, exist_ok=True)
    entries = []
    for track_id, gt_track, pick, pred_track, err in scored:
        entries.append((track_id, pick, float(err)))
        image = np.zeros((camera.height, camera.width, 3), dtype=np.uint8)
        _draw_dots(image, gt_track.pixels[gt_track.valid], np.array([220, 60, 50], np.uint8))
        _draw_dots(image, pred_track.pixels[pred_track.valid], np.array([70, 220, 90], np.uint8))
        iof.write_ppm(out / "overlays" / f"track_{track_id:02d}.ppm", image)

    iof.write_mte_csv(out / "mte.csv", entries)
    errs = np.array([e[2] for e in entries])
    iof.write_json(out / "summary.json", {
        "fit_dir": str(fit_dir),
        "camera_index": int(opts["camera_index"]),
        "n_tracks": int(len(entries)),
        "mean_mte": float(errs.mean()),
        "median_mte": float(np.median(errs)),
        "max_mte": float(errs.max()),
    })
    print(f"track {kind}: median MTE {np.median(errs) * 100:.3f}% "
          f"over {len(entries)} tracks -> {out}")
    return 0


def cmd_eval(cfg, run_dirs):
    runs, dirs = {}, {}
    for d in run_dirs:
        name = Path(d).name
        if name in dirs:  # the name keys eval.json
            raise ConfigError(f"runs {dirs[name]} and {d} share the directory name {name!r}")
        dirs[name] = d
        with _input_file(Path(d) / "summary.json") as path:
            runs[name] = iof.read_json(path)
    out = Path(cfg.out)
    if out.suffix != ".json":
        out = out / "eval.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    iof.write_json(out, {"runs": runs})
    print(f"aggregated {len(runs)} run(s) -> {out}")
    return 0


def cmd_repro(cfg):
    """Small end-to-end pipeline: generate, fit K=3 vs K=1, segment, track, eval.
    It sets every run option but `seed`, `threads` and `out` itself."""
    sections = [section for section in OPTIONS if section]
    given = [f"{section}.{key}" for section in sections for key in getattr(cfg, section) or {}]
    if given:
        raise ConfigError(f"repro sets its own {', '.join(sections)} options;"
                          f" remove {', '.join(given)}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed

    def sub(path, layers=(4, 12, 40), **options):
        train = {"iters_per_frame": 30, "layer_sizes": layers}
        return dataclasses.replace(cfg, out=str(path), train=train, **options)

    scenes = {
        "wheel": SceneSpec("wheel", n_gaussians=120, n_frames=6,
                           motion_magnitude=18.0, seed=seed),
        "pendulum": SceneSpec("pendulum", n_gaussians=120, n_frames=6,
                              motion_magnitude=25.0, seed=seed),
        "two_blobs": SceneSpec("two_blobs", n_gaussians=120, n_frames=6,
                               motion_magnitude=0.05, seed=seed),
    }
    for name, spec in scenes.items():
        write_scene_dir(generate(spec), out / f"scene_{name}")

    fits = {}
    for name in scenes:
        for tag, layers in (("k3", (4, 12, 40)), ("k1", (40,))):
            fit_out = out / f"fit_{name}_{tag}"
            cmd_fit(sub(fit_out, layers), out / f"scene_{name}")
            fits[(name, tag)] = fit_out

    cmd_segment(sub(out / "seg_two_blobs", segmentation={"k_parts": 2}),
                fits[("two_blobs", "k3")])
    cmd_track(sub(out / "track_pendulum"), fits[("pendulum", "k3")])

    rows = []
    for name in scenes:
        e3 = iof.read_json(fits[(name, "k3")] / "summary.json")["mean_center_error"]
        e1 = iof.read_json(fits[(name, "k1")] / "summary.json")["mean_center_error"]
        ratio = e1 / e3 if e3 > 0 else float("inf")
        rows.append([name, e1, e3, ratio])
    iof.write_csv(out / "comparison.csv",
                  ["scene", "err_single_layer", "err_cascade", "ratio"], rows)

    cmd_eval(sub(out / "eval.json"), [fits[(n, t)] for n in scenes for t in ("k3", "k1")]
             + [out / "seg_two_blobs", out / "track_pendulum"])
    print(f"repro pipeline complete -> {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    p = argparse.ArgumentParser(
        prog="gscascade",
        description="Cascaded deformation fitting for dynamic Gaussian scenes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        sp.add_argument("--layers", help="comma-separated cluster counts, coarsest first")
        sp.add_argument("--iters", type=int, help="iterations per frame")
        sp.add_argument("--max-scale", dest="max_scale", type=float)

    sp = sub.add_parser("generate", help="write a synthetic scene directory")
    common(sp)
    sp = sub.add_parser("fit", help="fit the deformation cascade to a scene")
    sp.add_argument("scene_dir")
    common(sp)
    sp = sub.add_parser("segment", help="motion-based part segmentation of a fit")
    sp.add_argument("fit_dir")
    sp.add_argument("--scene", help="override the scene directory recorded in the fit")
    common(sp)
    sp = sub.add_parser("track", help="2D tracking evaluation of a fit")
    sp.add_argument("fit_dir")
    sp.add_argument("--scene", help="override the scene directory recorded in the fit")
    common(sp)
    sp = sub.add_parser("eval", help="aggregate run summaries into one JSON")
    sp.add_argument("run_dirs", nargs="+")
    common(sp)
    sp = sub.add_parser("repro", help="full small-scale pipeline, twice-runnable")
    common(sp)
    return p


def _config_document(args):
    if getattr(args, "config", None) is None:
        return None
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from e


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(_config_document(args), cli=args)
        if cfg.out is None:
            raise ConfigError(f"{args.command} needs an output path (--out)")
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.scene_dir)
        if args.command == "segment":
            return cmd_segment(cfg, args.fit_dir, args.scene)
        if args.command == "track":
            return cmd_track(cfg, args.fit_dir, args.scene)
        if args.command == "eval":
            return cmd_eval(cfg, args.run_dirs)
        if args.command == "repro":
            return cmd_repro(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NotADirectoryError) as e:
        print(f"config error: missing input: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
