"""The benchmark's workloads and the pipeline it measures.

A workload is set up once per repetition (scene generation, observation
building, cluster hierarchy) and then run through the pipeline a user of the
library runs: fit the sequence, write the trajectory and per-frame checkpoints
and read them back, segment the read-back trajectory into parts, and score
2D tracks. Every call goes through the public module attributes
(`scenegen.generate`, `optimize.fit_sequence`, ...) so the traced run can
wrap them in place.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from gscascade import (autodiff, clustering, core, deform, io_formats, losses, optimize,
                       scenegen, segmentation, tracking)

LAYER_SIZES = (8, 40, 160)
K_NEIGHBORS = 20
SCAN_SIGMA = 0.005  # std of the scan points around each ground-truth center


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # scenegen scene kind
    n_gaussians: int
    n_frames: int  # frame 0 is given; n_frames - 1 frames are fitted
    iters_per_frame: int
    n_tracks: int  # scored 2D tracks, taken from the Gaussians visible at frame 0
    scan_samples: int = 0  # points per center per frame; 0 = identity correspondences


WORKLOADS = {
    w.name: w
    for w in (
        # Small N: the tape's per-op Python overhead dominates each iteration.
        # Every visible Gaussian is tracked: the median error of a small
        # sample of tracks varies too much between seeds.
        Workload("arm400", "two_link_arm", 400, n_frames=5, iters_per_frame=25,
                 n_tracks=400),
        # Large N: edge terms, backward scatter and covariance propagation
        # dominate. Candidate search is costly on the dense disc, so only a
        # subset of the visible Gaussians is tracked.
        Workload("wheel8000", "wheel", 8000, n_frames=3, iters_per_frame=6,
                 n_tracks=128),
        # The arm400 scene without correspondences: the Chamfer data term
        # builds and queries two k-d trees per loss evaluation (M = 64 * 400).
        Workload("arm400_scan", "two_link_arm", 400, n_frames=5, iters_per_frame=15,
                 n_tracks=400, scan_samples=64),
    )
}


@dataclass
class Scene:
    """The generated inputs of one workload and seed."""

    seq: scenegen.SceneSequence
    observations: list  # DataObservation per frame, as given to the fit
    config: optimize.TrainConfig
    hierarchy: clustering.ClusterHierarchy
    tracks: np.ndarray  # Gaussian indices whose ground-truth 2D track is scored

    def digest(self):
        """Hash of every generated array; equal digests mean equal inputs."""
        h = hashlib.sha256()
        arrays = [self.seq.gt_centers, self.seq.frame0.scales, self.seq.part_labels,
                  self.tracks, *self.hierarchy.assignments]
        for obs in self.observations:
            arrays.append(obs.points)
            if obs.correspondence is not None:
                arrays.append(obs.correspondence)
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()


def scan_observations(gt_centers, samples, seed):
    """Per frame, `samples` noisy points around every ground-truth center."""
    rng = np.random.default_rng((seed, samples))
    observations = []
    for centers in gt_centers:
        noise = rng.normal(scale=SCAN_SIGMA, size=(centers.shape[0], samples, 3))
        points = (centers[:, None, :] + noise).reshape(-1, 3)
        observations.append(losses.DataObservation(points=points))
    return observations


def set_up(workload, seed):
    seq = scenegen.generate(scenegen.SceneSpec(
        workload.kind, n_gaussians=workload.n_gaussians, n_frames=workload.n_frames,
        seed=seed,
    ))
    observations = seq.observations
    if workload.scan_samples:
        observations = scan_observations(seq.gt_centers, workload.scan_samples, seed)
    config = optimize.TrainConfig(
        iters_per_frame=workload.iters_per_frame,
        layer_sizes=LAYER_SIZES,
        seed=seed,
        scene_scale=seq.scene_scale,
        k_neighbors=K_NEIGHBORS,
        threads=1,
    )
    hierarchy = clustering.build_hierarchy(seq.frame0.centers, config.layer_sizes, seed=seed)
    _, _, visible = tracking.project(seq.cameras[0], seq.gt_centers[0])
    # every k-th visible Gaussian: scenegen numbers Gaussians part by part,
    # so each part is represented in proportion to its size
    candidates = np.nonzero(visible)[0]
    tracks = candidates[::max(1, candidates.size // workload.n_tracks)][:workload.n_tracks]
    return Scene(seq, observations, config, hierarchy, tracks)


# The steps of a training iteration, in call order: each is marked on entry,
# so an iteration splits into laps of a few milliseconds (tens on wheel8000).
# `optimize.total_loss` starts an iteration; the return from
# `optimize.adam_step` ends it.
ITERATION_STEPS = (
    (optimize, "total_loss"),
    (losses, "trace_cascade"),
    (losses, "rigidity_loss_t"),
    (losses, "isometry_loss_t"),
    (losses, "rotation_loss_t"),
    (losses, "scale_loss_t"),
    (losses, "data_loss_t"),
    (autodiff.Tensor, "backward"),
    (optimize, "adam_step"),
)


class LapClock:
    """Splits one pipeline pass into consecutive laps.

    A mark is taken after each step of the pass (each file written or read,
    each segmentation call, each track) and, during the fit, on entry to each
    of ITERATION_STEPS and on return from `optimize.adam_step`. The laps add
    up to the whole pass. Every pass of a scene takes the same marks in the
    same order, so lap k of one pass and lap k of another time the same work,
    and every training iteration splits into the same steps.
    """

    def __init__(self):
        self.marks = []
        self.iterations = []  # (first lap, end lap) of each training iteration

    def mark(self):
        self.marks.append(time.perf_counter())

    def laps(self):
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    @contextlib.contextmanager
    def fit_hooks(self):
        """Mark the steps of the fit's iterations for the duration of the block."""
        saved = [(owner, name, getattr(owner, name)) for owner, name in ITERATION_STEPS]
        first_lap = 0

        def entry_marked(fn, starts_iteration):
            def marked(*args, **kwargs):
                nonlocal first_lap
                self.mark()
                if starts_iteration:
                    first_lap = len(self.marks) - 1
                return fn(*args, **kwargs)

            return marked

        def ends_iteration(fn):
            def marked(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.mark()
                self.iterations.append((first_lap, len(self.marks) - 1))
                return out

            return marked

        try:
            for owner, name, fn in saved:
                wrapped = entry_marked(fn, starts_iteration=name == "total_loss")
                setattr(owner, name, ends_iteration(wrapped) if name == "adam_step" else wrapped)
            yield
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)


@dataclass
class RepResult:
    """One pass of the pipeline over a scene."""

    laps: list  # seconds per lap of the LapClock; empty if the fit failed
    iterations: list  # (first lap, end lap) of each training iteration
    attempted: int  # fitted frames + 1 segmentation + scored tracks
    failed: int
    quality: dict  # mean_center_error, ari, mte_median; None where not computed
    bytes_written: int


def median_or_none(values):
    """Median of the samples, or None when failed passes left none."""
    values = list(values)
    return statistics.median(values) if values else None


def _fastest_sum(rows):
    """Sum over columns of the smallest entry; None if no rows or ragged rows.

    On a shared host, other tenants slow this process by up to ~1.5x for
    stretches of a fraction of a second to minutes. The fastest sample of a
    short lap is the one least slowed, so the sum of the fastest laps is the
    program's own time, which moves far less between runs than a median,
    which follows how busy the neighbours were.
    """
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        return None
    return sum(min(column) for column in zip(*rows))


def iteration_rate(reps):
    """Training iterations per second, each step taken at its fastest over the run."""
    seconds = _fastest_sum([r.laps[a:b] for r in reps for a, b in r.iterations])
    return 1.0 / seconds if seconds else None


def pipeline_time(reps):
    """Seconds of one pass: its training iterations at `iteration_rate`, and
    each other lap at its fastest over the run's passes.

    Every iteration does the same steps, so the iterations pool their samples;
    the other laps (files, segmentation calls, tracks) each have one per pass.
    """
    done = [r for r in reps if r.laps]
    rate = iteration_rate(done)
    if not rate:
        return None
    other = [[lap for k, lap in enumerate(r.laps)
              if not any(a <= k < b for a, b in r.iterations)] for r in done]
    other_s = _fastest_sum(other)
    return None if other_s is None else len(done[0].iterations) / rate + other_s


def _log_failure(what):
    print(f"failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _cascade_arrays(cascade):
    out = [cascade.d_centers, cascade.d_rotations, cascade.d_log_scales]
    for layer in cascade.layers:
        out += [layer.rotations, layer.translations, layer.scale_dirs, layer.scale_biases]
    return out


def _frame_ok(gset, centers, quats, scales, cascade, restored):
    """Finite fitted state that round-tripped bit-exactly through the files."""
    fitted = (gset.centers, gset.orientations, gset.scales)
    params, params_read = _cascade_arrays(cascade), _cascade_arrays(restored)
    return (all(np.all(np.isfinite(a)) for a in fitted)
            and _same_bits(centers, gset.centers)
            and _same_bits(quats, gset.orientations)
            and _same_bits(scales, gset.scales)
            and len(params) == len(params_read)
            and all(_same_bits(a, b) for a, b in zip(params, params_read)))


def run_pipeline(scene, out_dir):
    seq = scene.seq
    n_fitted = len(scene.observations) - 1
    attempted = n_fitted + 1 + len(scene.tracks)
    quality = {"mean_center_error": None, "ari": None, "mte_median": None}

    clock = LapClock()
    clock.mark()
    try:
        with clock.fit_hooks():
            report = optimize.fit_sequence(seq.frame0, scene.observations, scene.config,
                                           copy.deepcopy(scene.hierarchy))
        clock.mark()
        traj_path = out_dir / "trajectory.csv"
        io_formats.write_trajectory_csv(traj_path, report.sets)
        clock.mark()
        ckpt_paths = []
        for t, cascade in enumerate(report.cascades, start=1):
            path = out_dir / f"frame_{t:03d}.json"
            io_formats.write_json(path, deform.cascade_to_payload(cascade))
            ckpt_paths.append(path)
            clock.mark()
        bytes_written = sum(p.stat().st_size for p in (traj_path, *ckpt_paths))
        centers, quats, scales = io_formats.read_trajectory_csv(traj_path)
        clock.mark()
        restored = []
        for path in ckpt_paths:
            restored.append(deform.cascade_from_payload(io_formats.read_json(path),
                                                        report.hierarchy))
            clock.mark()
    except Exception:
        _log_failure("fit or trajectory/checkpoint round trip")
        return RepResult([], [], attempted, attempted, quality, 0)

    failed = 0
    for t in range(1, n_fitted + 1):
        if not _frame_ok(report.sets[t], centers[t], quats[t], scales[t],
                         report.cascades[t - 1], restored[t - 1]):
            print(f"failed: frame {t} is non-finite or did not round-trip", file=sys.stderr)
            failed += 1
    quality["mean_center_error"] = optimize.mean_center_error(report.sets, seq.gt_centers)
    clock.mark()

    k_parts = int(seq.part_labels.max()) + 1
    try:
        sets = [core.GaussianSet(centers=centers[t], orientations=quats[t], scales=scales[t],
                                 frame_index=t)
                for t in range(centers.shape[0])]
        features = segmentation.build_features(sets)
        clock.mark()
        labels = segmentation.segment(features, k_parts, seed=0)
        clock.mark()
        ari = segmentation.adjusted_rand_index(labels, seq.part_labels)
        if (labels.shape == seq.part_labels.shape and labels.min() >= 0
                and labels.max() < k_parts and np.isfinite(ari)):
            quality["ari"] = float(ari)
        else:
            print("failed: segmentation output out of range", file=sys.stderr)
            failed += 1
    except Exception:
        _log_failure("segmentation")
        failed += 1

    camera = seq.cameras[0]
    errors = []
    for gi in scene.tracks:
        clock.mark()  # ends the segmentation lap, then each track's lap
        try:
            gt_track = tracking.project_track(camera, seq.gt_centers[:, gi])
            cand = tracking.select_candidate(centers, camera, gt_track)
            pred = tracking.project_track(camera, centers[:, cand])
            err = tracking.mte(pred, gt_track, camera.image_diagonal)
        except Exception:
            _log_failure(f"track of Gaussian {gi}")
            failed += 1
            continue
        if np.isfinite(err) and err >= 0.0:
            errors.append(err)
        else:
            print(f"failed: track of Gaussian {gi} has error {err}", file=sys.stderr)
            failed += 1
    if errors:
        quality["mte_median"] = float(np.median(errors))
    clock.mark()
    return RepResult(clock.laps(), clock.iterations, attempted, failed, quality,
                     bytes_written)
