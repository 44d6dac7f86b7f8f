#!/usr/bin/env python3
"""Acceptance criteria 3-8 over seeds: each quantity they bound, and its margin.

`criterion_3` to `criterion_8` run one criterion's fits with the scene, fit
and track-choice seeds all equal to `seed`, and yield (quantity, value) for
what its test asserts on and prints; BOUNDS holds the bounds with their
comparisons. `tests/test_acceptance.py` runs them at seed 11 against BOUNDS.
This report prints, per criterion and quantity, how many seeds gave it, the
minimum, median and maximum over them, the bound and the smallest margin,
then each seed that aborted, with its message. It writes no file and exits 0
even when seeds abort.

    python3 scripts/acceptance_margins.py --seeds 1-10 --criteria 3,5
"""

import argparse
import functools
import operator
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gscascade import geometry
from gscascade.clustering import build_hierarchy
from gscascade.config import argument
from gscascade.optimize import TrainConfig, fit_sequence, mean_center_error
from gscascade.scenegen import SceneSpec, generate
from gscascade.segmentation import adjusted_rand_index, build_features, segment
from gscascade.tracking import score_track


def fit_scene(seq, layer_sizes, iters, seed, max_scale=0.02, propagate_covariance=True):
    config = TrainConfig(
        iters_per_frame=iters,
        layer_sizes=tuple(layer_sizes),
        seed=seed,
        scene_scale=seq.scene_scale,
        max_scale=max_scale,
        propagate_covariance=propagate_covariance,
    )
    hierarchy = build_hierarchy(seq.frame0.centers, config.layer_sizes, seed=seed)
    report = fit_sequence(seq.frame0, seq.observations, config, hierarchy)
    return report, mean_center_error(report.sets, seq.gt_centers)


def median_orientation_deviation(sets, seq):
    """Median angle (deg) between each Gaussian's fitted orientation change
    since frame 0 and its part's ground-truth rotation, over all later frames."""
    q0 = sets[0].orientations
    devs = []
    for t in range(1, len(sets)):
        change = geometry.quat_multiply(sets[t].orientations, geometry.quat_inverse(q0))
        gt = seq.part_quats[t][seq.part_labels]
        devs.append(np.degrees(geometry.relative_rotation_angle(change, gt)))
    return float(np.median(np.concatenate(devs)))


def track_errors(seq, sets, seed, n_tracks=12):
    """Per-track MTE for randomly chosen ground-truth trajectories."""
    camera = seq.cameras[0]
    centers = np.stack([s.centers for s in sets])
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(seq.gt_centers.shape[1], size=n_tracks, replace=False))
    scores = (score_track(camera, seq.gt_centers[:, gi], centers) for gi in chosen)
    return np.asarray([score[3] for score in scores if score is not None])


# criteria 4 and 6: three articulated scenes (kind: motion magnitude)
ABLATION_SCENES = {"wheel": 40.0, "pendulum": 85.0, "two_link_arm": 20.0}
BUDGETS = (10, 40, 100, 400, 2000)  # criterion 5's iterations per frame


def criterion_3(seed):
    """covariance coupling keeps orientations aligned with the rotating part"""
    seq = generate(SceneSpec("wheel", n_gaussians=400, n_frames=4,
                             motion_magnitude=24.0, seed=seed))
    for arm, coupled in (("coupled", True), ("decoupled", False)):
        report, err = fit_scene(seq, (8, 40, 160), 600, seed, propagate_covariance=coupled)
        yield f"{arm} deviation (deg)", median_orientation_deviation(report.sets, seq)
        yield f"{arm} center error", err


@functools.lru_cache(maxsize=1)
def ablation_fits(seed):
    """Criteria 4 and 6's fits, {kind: (seq, the 3-layer fit's sets, its
    error, the error of the fit with a single global cluster)}."""
    fits = {}
    for kind, magnitude in ABLATION_SCENES.items():
        seq = generate(SceneSpec(kind, n_gaussians=400, n_frames=4,
                                 motion_magnitude=magnitude, seed=seed))
        report, err_k3 = fit_scene(seq, (8, 40, 160), 100, seed)
        fits[kind] = (seq, report.sets, err_k3, fit_scene(seq, (1,), 100, seed)[1])
    return fits


def criterion_4(seed):
    """three cascade layers beat a single global cluster"""
    for kind, (_, _, err_k3, err_k1) in ablation_fits(seed).items():
        yield f"{kind} K=1 error", err_k1
        yield f"{kind} K=3 error", err_k3
        yield f"{kind} K=1/K=3", err_k1 / err_k3


def criterion_5(seed):
    """more iterations converge to the same error, monotonically"""
    seq = generate(SceneSpec("pendulum", n_gaussians=120, n_frames=4,
                             motion_magnitude=25.0, noise_sigma=0.02, seed=seed))
    errs = {iters: fit_scene(seq, (4, 20, 80), iters, seed)[1] for iters in BUDGETS}
    for iters, err in errs.items():
        yield f"error at {iters}", err
    yield "plateau gap", abs(errs[2000] - errs[100]) / errs[100]
    for a, b in zip(BUDGETS, BUDGETS[1:]):
        yield f"error {b}/{a}", errs[b] / errs[a]


def criterion_6(seed):
    """2D tracking on criterion 4's 3-layer trajectories"""
    for kind, (seq, sets, _, _) in ablation_fits(seed).items():
        errs = track_errors(seq, sets, seed)
        yield f"{kind} tracks", len(errs)
        yield f"{kind} median MTE", float(np.median(errs))


def criterion_7(seed):
    """motion segmentation of the fitted trajectories"""
    for kind, n, magnitude, sizes in (("two_blobs", 200, 0.05, (2, 8, 32)),
                                      ("two_link_arm", 400, 25.0, (8, 40, 160))):
        seq = generate(SceneSpec(kind, n_gaussians=n, n_frames=6,
                                 motion_magnitude=magnitude, seed=seed))
        report, _ = fit_scene(seq, sizes, 100, seed)
        labels = segment(build_features(report.sets), int(seq.part_labels.max()) + 1, seed=0)
        yield f"{kind} ARI", adjusted_rand_index(labels, seq.part_labels)


def criterion_8(seed):
    """the scale hinge bounds axis growth; without it axes blow up"""
    seq = generate(SceneSpec("two_blobs", n_gaussians=120, n_frames=10,
                             motion_magnitude=2.0, seed=seed))
    for arm, layers, max_scale in (("enforced", (2, 8, 32), 0.02),
                                   ("unconstrained", (1, 1, 1), 2.0)):
        report, _ = fit_scene(seq, layers, 300, seed, max_scale=max_scale)
        yield f"{arm} max axis", max(float(s.scales.max()) for s in report.sets[1:])


CRITERIA = {3: criterion_3, 4: criterion_4, 5: criterion_5, 6: criterion_6,
            7: criterion_7, 8: criterion_8}
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# {criterion: {quantity: (comparison, bound)}}: value <comparison> bound must hold
BOUNDS = {
    3: {"coupled deviation (deg)": ("<", 5.0), "decoupled deviation (deg)": (">", 20.0)},
    4: {f"{kind} K=1/K=3": (">=", 1.5) for kind in ABLATION_SCENES},
    5: {"plateau gap": ("<", 0.20),
        **{f"error {b}/{a}": ("<=", 1.10) for a, b in zip(BUDGETS, BUDGETS[1:])}},
    6: {**{f"{kind} tracks": (">=", 10) for kind in ABLATION_SCENES},
        "pendulum median MTE": ("<", 0.01), "two_link_arm median MTE": ("<", 0.01),
        # the rotationally symmetric scene is only held to the ambiguity bound
        "wheel median MTE": ("<", 0.20)},
    7: {"two_blobs ARI": (">=", 0.95), "two_link_arm ARI": (">=", 0.95)},
    8: {"enforced max axis": ("<=", 2 * 0.02), "unconstrained max axis": (">", 10 * (2 * 0.02))},
}


def report(seeds, criteria):
    # seed by seed, so that criteria 4 and 6 share each seed's ablation fits
    values, aborts = {c: {} for c in criteria}, {c: [] for c in criteria}
    for seed in seeds:
        for criterion in criteria:
            try:
                for name, value in CRITERIA[criterion](seed):
                    values[criterion].setdefault(name, []).append(value)
            except ValueError as e:
                aborts[criterion].append(f"  seed {seed} aborted: {e}")
    for criterion in criteria:
        print(f"criterion {criterion}: {CRITERIA[criterion].__doc__}")
        print(f"  {'quantity':<26}{'seeds':>6}{'min':>12}{'median':>12}{'max':>12}"
              f"  {'bound':<11}{'margin':>12}")
        for name, vals in values[criterion].items():
            low, high = min(vals), max(vals)
            row = f"  {name:<26}{len(vals):>6}{low:>12.6g}{np.median(vals):>12.6g}{high:>12.6g}"
            if name in BOUNDS[criterion]:
                op, bound = BOUNDS[criterion][name]
                margin = bound - high if op.startswith("<") else low - bound
                row += f"  {op:>2} {bound:<8.6g}{margin:>12.6g}"
            print(row)
        print(*aborts[criterion], sep="\n")


def seed_list(text):
    """'1-10', '1,4,7' or a mix: each seed checked as the option `seed`."""
    seed, seeds = argument("", "seed"), []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(seed(first), seed(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} holds no seed")
    return seeds


def criteria_list(text):
    if not set(text.split(",")) <= {str(c) for c in CRITERIA}:
        raise argparse.ArgumentTypeError(
            f"criteria are {','.join(map(str, CRITERIA))}, got {text!r}")
    return [int(c) for c in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default="1-10",
                    help="seeds as a range and/or a comma-separated list")
    ap.add_argument("--criteria", type=criteria_list, default=list(CRITERIA),
                    help="comma-separated criteria, of 3-8")
    args = ap.parse_args(argv)
    report(args.seeds, args.criteria)
    return 0


if __name__ == "__main__":
    sys.exit(main())
