#!/usr/bin/env python3
"""Compare cascade depths on the standard synthetic scenes.

For each scene, fits once with the full coarse-to-fine layer stack and once
with a single global cluster, then prints the mean-center-error ratio. The
single-cluster fit can only express one rigid motion plus per-Gaussian deltas
per frame, so articulated scenes should show a clear gap.

    python3 scripts/depth_ablation.py --iters 100 --out ablation.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gscascade.clustering import build_hierarchy
from gscascade.config import argument
from gscascade.io_formats import write_csv
from gscascade.optimize import TrainConfig, fit_sequence, mean_center_error
from gscascade.scenegen import SceneSpec, generate

SCENES = (("wheel", 40.0), ("pendulum", 85.0), ("two_link_arm", 20.0))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-gaussians", type=argument("scene", "n_gaussians"), default=400)
    ap.add_argument("--n-frames", type=argument("scene", "n_frames"), default=4)
    ap.add_argument("--iters", type=argument("train", "iters_per_frame"), default=100)
    ap.add_argument("--deep-layers", type=argument("train", "layer_sizes"), default="8,40,160")
    ap.add_argument("--seed", type=argument("", "seed"), default=11)
    ap.add_argument("--out", type=argument("", "out"), default="ablation.csv")
    return ap.parse_args(argv)


def fit_once(seq, layers, iters, seed):
    config = TrainConfig(iters_per_frame=iters, layer_sizes=layers, seed=seed,
                         scene_scale=seq.scene_scale)
    hierarchy = build_hierarchy(seq.frame0.centers, layers, seed=seed)
    report = fit_sequence(seq.frame0, seq.observations, config, hierarchy)
    return mean_center_error(report.sets, seq.gt_centers)


def main(argv=None):
    args = parse_args(argv)
    deep = args.deep_layers
    rows = []
    for kind, magnitude in SCENES:
        seq = generate(SceneSpec(kind, n_gaussians=args.n_gaussians,
                                 n_frames=args.n_frames,
                                 motion_magnitude=magnitude, seed=args.seed))
        err_deep = fit_once(seq, deep, args.iters, args.seed)
        err_single = fit_once(seq, (1,), args.iters, args.seed)
        ratio = err_single / err_deep if err_deep > 0 else float("inf")
        rows.append([kind, err_single, err_deep, ratio])
        print(f"{kind:>14}: single {err_single:.4f} vs deep {err_deep:.4f} "
              f"-> {ratio:.2f}x")
    write_csv(args.out, ["scene", "err_single_layer", "err_cascade", "ratio"], rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
