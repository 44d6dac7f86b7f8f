#!/usr/bin/env python3
"""Sweep the per-frame iteration budget on one synthetic scene.

Fits the same scene once per budget and reports mean 3D center error against
the generator's ground truth. The curve flattens once the error hits the
observation-noise floor; past that point extra iterations buy nothing, which
is the cheap-to-check signature of per-frame convergence.

    python3 scripts/convergence_sweep.py --kind pendulum --out sweep.csv
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gscascade.clustering import build_hierarchy
from gscascade.config import argument
from gscascade.io_formats import write_csv
from gscascade.optimize import TrainConfig, fit_sequence, mean_center_error
from gscascade.scenegen import SceneSpec, generate


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    iters = argument("train", "iters_per_frame")
    ap.add_argument("--kind", type=argument("scene", "kind"), default="pendulum")
    ap.add_argument("--n-gaussians", type=argument("scene", "n_gaussians"), default=120)
    ap.add_argument("--n-frames", type=argument("scene", "n_frames"), default=4)
    ap.add_argument("--magnitude", type=argument("scene", "motion_magnitude"), default=25.0)
    ap.add_argument("--noise", type=argument("scene", "noise_sigma"), default=0.02)
    ap.add_argument("--layers", type=argument("train", "layer_sizes"), default="4,20,80")
    ap.add_argument("--budgets", default="10,40,100,400,2000",
                    type=lambda text: [iters(s) for s in text.split(",")],
                    help="comma-separated iteration counts per frame")
    ap.add_argument("--seed", type=argument("", "seed"), default=11)
    ap.add_argument("--out", type=argument("", "out"), default="convergence.csv")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    layers, budgets = args.layers, args.budgets
    seq = generate(SceneSpec(args.kind, n_gaussians=args.n_gaussians,
                             n_frames=args.n_frames,
                             motion_magnitude=args.magnitude,
                             noise_sigma=args.noise, seed=args.seed))
    hierarchy = build_hierarchy(seq.frame0.centers, layers, seed=args.seed)

    rows = []
    print(f"{args.kind}: {args.n_gaussians} Gaussians, {args.n_frames} frames, "
          f"layers {layers}, noise {args.noise}")
    for iters in budgets:
        config = TrainConfig(iters_per_frame=iters, layer_sizes=layers,
                             seed=args.seed, scene_scale=seq.scene_scale)
        t0 = time.perf_counter()
        report = fit_sequence(seq.frame0, seq.observations, config, hierarchy)
        err = mean_center_error(report.sets, seq.gt_centers)
        wall = time.perf_counter() - t0
        rows.append([iters, err, wall])
        print(f"  {iters:>5} iters/frame: mean center error {err:.5f}  ({wall:.1f}s)")

    write_csv(args.out, ["iters_per_frame", "mean_center_error", "wall_seconds"], rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
