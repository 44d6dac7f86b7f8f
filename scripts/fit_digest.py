#!/usr/bin/env python3
"""Print digests of seeded fits, to check that a change keeps every bit.

For each scene kind it generates one scene, fits it and prints one line with
five sha256 digests: one over the `centers`, `orientations` and `scales`
bytes of every fitted set, one over every frame's checkpoint payload
(`cascade_to_payload`, as `json.dumps(sort_keys=True, indent=2)`), one over
every frame's loss `curve` and `final_losses` (as
`json.dumps(sort_keys=True)`), what `losses.csv` and `summary.json` record,
one over the int64 part labels that `segment` gives the fitted sets'
motion features, with as many parts as the scene has (k-means at
D = 15 * frames), and one over the fit's outputs: the bytes of every file
that `cli.write_fit_dir` writes (`checkpoints/frame_NNN.json` with their
`frame_index`, `hierarchy.json`, `losses.csv` and `trajectory.csv`, in that
sorted path order), then, for every Gaussian whose ground truth starts in
front of camera 0, what `tracking.score_track` gives: the Gaussian that
`select_candidate` picks (or the message it raises) and that pick's
`mte(...).hex()`. After each kind's line comes a `<kind>_scan` line with the
same digests of a fit to seeded scan points around the ground-truth centers
(`scenegen.scan_observations`), with no correspondences, so that the Chamfer
data term is covered too. Run it on two checkouts and compare the lines.

    python3 scripts/fit_digest.py
    python3 scripts/fit_digest.py --kinds wheel --n-gaussians 60 --iters 3
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gscascade.cli import write_fit_dir
from gscascade.clustering import build_hierarchy
from gscascade.config import argument
from gscascade.deform import cascade_to_payload
from gscascade.optimize import TrainConfig, fit_sequence
from gscascade.scenegen import SceneSpec, generate, scan_observations
from gscascade.segmentation import build_features, segment
from gscascade.tracking import score_track

DEFAULT_KINDS = "two_link_arm,wheel,pendulum,cloth_wave,two_blobs"
SCAN_SAMPLES = 8  # scan points per ground-truth center
DIGESTS = ("trajectory", "checkpoints", "losses", "segmentation", "outputs")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    kind = argument("scene", "kind")
    ap.add_argument("--kinds", default=DEFAULT_KINDS, help="comma-separated scene kinds",
                    type=lambda text: [kind(name) for name in text.split(",")])
    ap.add_argument("--n-gaussians", type=argument("scene", "n_gaussians"), default=400)
    ap.add_argument("--n-frames", type=argument("scene", "n_frames"), default=4)
    ap.add_argument("--iters", type=argument("train", "iters_per_frame"), default=25,
                    help="iterations per frame")
    ap.add_argument("--layers", type=argument("train", "layer_sizes"), default="8,40,160")
    ap.add_argument("--seed", type=argument("", "seed"), default=1)
    return ap.parse_args(argv)


def fit_digests(report, k_parts, seq):
    """(trajectory, checkpoint, loss, segmentation, outputs) digests of a
    FitReport of the scene `seq`, as hex strings."""
    trajectory = hashlib.sha256()
    for gset in report.sets:
        for array in (gset.centers, gset.orientations, gset.scales):
            trajectory.update(array.tobytes())
    checkpoints = hashlib.sha256()
    for cascade in report.cascades:
        payload = json.dumps(cascade_to_payload(cascade), sort_keys=True, indent=2)
        checkpoints.update(payload.encode())
    losses = hashlib.sha256()
    for frame in report.frames:
        for record in (frame.curve, frame.final_losses):
            losses.update(json.dumps(record, sort_keys=True).encode())
    labels = segment(build_features(report.sets), k_parts, seed=0)
    segmentation = hashlib.sha256(labels.astype(np.int64).tobytes())
    return (trajectory.hexdigest(), checkpoints.hexdigest(), losses.hexdigest(),
            segmentation.hexdigest(), outputs_digest(report, seq))


def outputs_digest(report, seq):
    """The fifth digest of `fit_digests`: written files, then track picks."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        write_fit_dir(report, tmp)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                digest.update(path.read_bytes())
    centers = np.stack([gset.centers for gset in report.sets])
    camera = seq.cameras[0]
    for index in range(seq.gt_centers.shape[1]):
        try:
            score = score_track(camera, seq.gt_centers[:, index], centers)
        except ValueError as e:
            digest.update(f"{index} {e}\n".encode())
            continue
        if score is not None:
            _, pick, _, error = score
            digest.update(f"{index} {pick} {error.hex()}\n".encode())
    return digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    layers = args.layers
    for kind in args.kinds:
        seq = generate(SceneSpec(kind, n_gaussians=args.n_gaussians, n_frames=args.n_frames,
                                 seed=args.seed))
        config = TrainConfig(iters_per_frame=args.iters, layer_sizes=layers, seed=args.seed,
                             scene_scale=seq.scene_scale)
        hierarchy = build_hierarchy(seq.frame0.centers, layers, seed=args.seed)
        k_parts = len(np.unique(seq.part_labels))
        scan = scan_observations(seq.gt_centers, SCAN_SAMPLES, args.seed)
        for name, observations in ((kind, seq.observations), (f"{kind}_scan", scan)):
            report = fit_sequence(seq.frame0, observations, config, hierarchy)
            digests = dict(zip(DIGESTS, fit_digests(report, k_parts, seq)))
            print(name, " ".join(f"{label} {digest}" for label, digest in digests.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
