"""Adam optimization of the cascade, one frame at a time.

Each frame starts from the previous frame's converged Gaussians (the state
warm start) with a fresh zero cascade and fresh optimizer moments, runs a
fixed iteration budget of the total objective, and emits the deformed set.
The hierarchy's assignments are fixed for the whole sequence; its centroids
are recomputed from the previous frame's centers at the frame transition and
stay frozen while that frame optimizes.

Adam updates the cascade's flat parameter buffer (`CascadeDeform.flat`) in
place, with one update over the whole buffer from a gradient laid out like it.
Each parameter class steps with the rate of one TrainConfig field, the
per-Gaussian d_* classes at DELTA_LR_FRACTION of it; the quaternion classes,
one contiguous block of the buffer, are renormalized to unit length after
every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .deform import CascadeDeform, cascade_apply
from .losses import FrameConstants, LossWeights, build_neighbor_graph, total_loss

DELTA_LR_FRACTION = 0.1  # the d_* classes step at this share of their rate
# parameter class (deform.IDENTITY_ROWS) -> the TrainConfig field of its rate
_LR_FIELDS = {
    "rotations": "lr_rot", "translations": "lr_trans", "scale_dirs": "lr_scaledir",
    "scale_biases": "lr_sbias",
    "d_centers": "lr_trans", "d_rotations": "lr_rot", "d_log_scales": "lr_scaledir",
}


@dataclass
class TrainConfig:
    iters_per_frame: int = 100
    lr_rot: float = 1e-3
    lr_trans: float = None  # defaults to 1.6e-2 * scene_scale
    lr_scaledir: float = 1e-3
    lr_sbias: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weights: LossWeights = field(default_factory=LossWeights)
    max_scale: float = 0.02
    layer_sizes: tuple = (8, 40, 160)
    seed: int = 0
    scene_scale: float = 1.0
    k_neighbors: int = 20
    lambda_weight: float = None  # defaults to 2000 / scene_scale**2
    propagate_covariance: bool = True
    threads: int = 1

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)

    def resolved_lr(self, name):
        """Learning rate of a parameter class (a key of deform.IDENTITY_ROWS)."""
        lr = getattr(self, _LR_FIELDS[name])
        if lr is None:  # lr_trans scales with the scene unless set
            lr = 1.6e-2 * self.scene_scale
        return DELTA_LR_FRACTION * lr if name.startswith("d_") else lr


class AdamState:
    """Adam's step count and moments, two zeroed vectors laid out like the
    cascade's buffer, with the per-element learning rates of `config`."""

    def __init__(self, cascade, config):
        self.m = np.zeros_like(cascade.flat)
        self.v = np.zeros_like(cascade.flat)
        self.rates = np.empty_like(cascade.flat)
        for name, rates in cascade.class_views(self.rates).items():
            rates[...] = config.resolved_lr(name)
        self.t = 0


def adam_step(cascade, grad, state, config):
    """One Adam update of `cascade.flat` and of `state` in place, from `grad`,
    the gradient laid out like the buffer.

    Raises on non-finite gradients, naming the offending parameter key.
    Quaternion rows are renormalized after the update.
    """
    state.t += 1
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    if not np.all(np.isfinite(grad)):
        bad = next(key for key, g in cascade.views(grad).items() if not np.all(np.isfinite(g)))
        raise ValueError(f"non-finite gradient in parameter class '{bad}'")
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * grad * grad
    mhat = state.m / (1.0 - b1**state.t)
    vhat = state.v / (1.0 - b2**state.t)
    cascade.flat -= state.rates * mhat / (np.sqrt(vhat) + eps)
    quats = cascade.flat[cascade.quaternions].reshape(-1, 4)
    quats[...] = geometry.quat_normalize(quats)


@dataclass
class FrameReport:
    frame_index: int
    curve: list  # per iteration: dict of component values + "total"
    final_losses: dict
    wall_time: float


@dataclass
class FitReport:
    frames: list  # FrameReport per fitted frame
    sets: list  # GaussianSet per frame, index 0 = the given initial set
    cascades: list  # converged CascadeDeform per fitted frame
    hierarchy: object


def fit_frame(prev_set, obs, hierarchy, config, graph):
    """Fit one frame transition from the zero cascade.

    `graph` is the frame-0 neighbour graph of the sequence. Every evaluation
    shares one FrameConstants of (prev_set, obs); the last one, on constants,
    gives both the final losses and the trace the new set is read from.
    Returns (deformed set, cascade, FrameReport).
    """
    t0 = time.perf_counter()
    frame = FrameConstants(prev_set, obs, hierarchy, graph)
    cascade = CascadeDeform(hierarchy, prev_set.n)
    state = AdamState(cascade, config)
    curve = []
    for _ in range(config.iters_per_frame):
        value, components, trace = total_loss(
            cascade, frame, config.weights, config.max_scale,
            propagate_covariance=config.propagate_covariance, workers=config.threads,
        )
        curve.append(dict(components, total=value))
        adam_step(cascade, trace.grad, state, config)

    value, components, trace = total_loss(
        cascade, frame, config.weights, config.max_scale,
        propagate_covariance=config.propagate_covariance, workers=config.threads,
        with_grads=False,
    )
    new_set = cascade_apply(cascade, prev_set, trace=trace)
    report = FrameReport(
        frame_index=new_set.frame_index,
        curve=curve,
        final_losses=dict(components, total=value),
        wall_time=time.perf_counter() - t0,
    )
    return new_set, cascade, report


def fit_sequence(initial_set, observations, config, hierarchy):
    """Fit a whole sequence online, frame by frame.

    `observations` holds one DataObservation per frame 0..T-1; observation 0
    corresponds to the given initial set and is not fitted. `hierarchy` is
    built on the initial set's centers; its centroids are updated in place at
    every frame transition. Raises ValueError, naming the frame, on a
    correspondence index past the last Gaussian.
    """
    for frame, obs in enumerate(observations):
        if obs.correspondence is not None and np.any(obs.correspondence >= initial_set.n):
            raise ValueError(
                f"frame {frame}: correspondence index {int(obs.correspondence.max())}"
                f" is out of range for {initial_set.n} Gaussians"
            )
    graph = build_neighbor_graph(
        initial_set.centers,
        k=min(config.k_neighbors, initial_set.n - 1),
        lambda_weight=config.lambda_weight,
        scene_scale=config.scene_scale,
        workers=config.threads,
    )
    sets = [initial_set]
    cascades = []
    reports = []
    for obs in observations[1:]:
        prev = sets[-1]
        hierarchy.update_centroids(prev.centers)
        new_set, cascade, report = fit_frame(prev, obs, hierarchy, config, graph)
        sets.append(new_set)
        cascades.append(cascade)
        reports.append(report)
    return FitReport(frames=reports, sets=sets, cascades=cascades, hierarchy=hierarchy)


def mean_center_error(sets, gt_centers):
    """Mean 3D distance between fitted and ground-truth centers, all frames.

    gt_centers has shape (T, N, 3) aligned with `sets`; frame 0 (the given
    initial state) is excluded from the average.
    """
    errs = []
    for t in range(1, len(sets)):
        errs.append(np.linalg.norm(sets[t].centers - gt_centers[t], axis=-1).mean())
    return float(np.mean(errs))
