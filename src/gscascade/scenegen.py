"""Deterministic synthetic articulated scenes with exact ground truth.

Each scene kind is a list of rigid parts: the part's frame-0 points, its
rotation per frame (a (T, 4) quaternion track, relative to frame 0), the pivot
it turns about, and an optional translation per frame. One shared step turns
that list into the part labels, the ground-truth centers (each part's points
moved by its closed-form rigid transform, parts concatenated in order) and
the per-part rotations. cloth_wave, the one non-rigid kind, is a single still
part with a travelling sine wave added to its heights afterwards.
The generator emits, per frame, ground-truth centers and identity-matched
observations (optionally noised), plus part labels, per-part rotations, and a
ring of pinhole cameras — everything the fitting, segmentation, and tracking
evaluations need. `scan_observations` draws seeded scans around the
ground-truth centers instead, with no correspondences, for the Chamfer data
term.

Kinds:
  * wheel         spinning disc plus a static stand (rotationally symmetric,
                  which makes pixel-space tracking ambiguous on purpose)
  * pendulum      rod+bob swinging about a pivot, plus a static mount
  * two_link_arm  static base, upper link rotating at the shoulder, lower
                  link composing shoulder and elbow rotations
  * cloth_wave    grid under a traveling sine wave (non-rigid)
  * two_blobs     two compact blobs translating in opposite directions

`motion_magnitude` means degrees/frame for the rotational kinds, world
units/frame for two_blobs, and wave amplitude in world units for cloth_wave.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import geometry
from .core import GaussianSet
from .losses import DataObservation
from .tracking import look_at_camera

_DEFAULT_MAGNITUDE = {
    "wheel": 24.0,
    "pendulum": 25.0,
    "two_link_arm": 8.0,
    "cloth_wave": 0.08,
    "two_blobs": 0.05,
}
KINDS = tuple(_DEFAULT_MAGNITUDE)

_PALETTE = np.array(
    [
        [0.85, 0.30, 0.25],
        [0.25, 0.45, 0.85],
        [0.30, 0.75, 0.35],
        [0.90, 0.75, 0.20],
    ]
)
_SCAN_SIGMA = 0.005  # std of the scan points around each ground-truth center


def label_colors(labels):
    """(N, 3) RGB in [0, 1] of integer part labels, from a four-color palette."""
    return _PALETTE[labels % len(_PALETTE)]


@dataclass
class SceneSpec:
    kind: str
    n_gaussians: int = 400
    n_frames: int = 20
    motion_magnitude: float = None  # per-kind default when None
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.motion_magnitude is None:
            self.motion_magnitude = _DEFAULT_MAGNITUDE[self.kind]

    def to_payload(self):
        return {
            "kind": self.kind,
            "n_gaussians": int(self.n_gaussians),
            "n_frames": int(self.n_frames),
            "motion_magnitude": float(self.motion_magnitude),
            "noise_sigma": float(self.noise_sigma),
            "seed": int(self.seed),
        }

    @classmethod
    def from_payload(cls, payload):
        return cls(**payload)


@dataclass
class SceneSequence:
    spec: SceneSpec
    frame0: GaussianSet
    observations: list  # DataObservation per frame (identity correspondence)
    gt_centers: np.ndarray  # (T, N, 3)
    part_labels: np.ndarray  # (N,)
    part_quats: np.ndarray  # (T, P, 4) rotation of each part relative to frame 0
    cameras: list  # PinholeCamera ring

    @property
    def n_frames(self):
        return self.gt_centers.shape[0]

    @property
    def scene_scale(self):
        lo = self.frame0.centers.min(axis=0)
        hi = self.frame0.centers.max(axis=0)
        return float(np.linalg.norm(hi - lo))


def _z_turns(angles):
    """Unit quaternions of turns by `angles` (radians) about +z, shape (..., 4)."""
    s = np.sin(0.5 * angles)
    return np.stack([np.cos(0.5 * angles), 0.0 * s, 0.0 * s, s], axis=-1)


def _sample_box(rng, n, lo, hi):
    return rng.uniform(lo, hi, size=(n, 3))


def _sample_disc(rng, n, radius, thickness):
    r = radius * np.sqrt(rng.uniform(size=n))
    th = rng.uniform(0.0, 2.0 * np.pi, size=n)
    z = rng.uniform(-thickness, thickness, size=n)
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)


def _ball_offsets(rng, n, radius):
    """`n` points drawn uniformly from the ball of `radius` about the origin."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v * (radius * rng.uniform(size=(n, 1)) ** (1.0 / 3.0))


def _sample_capsule(rng, n, a, b, radius):
    t = rng.uniform(size=(n, 1))
    return a + t * (b - a) + _ball_offsets(rng, n, radius)


def _split_counts(n, fractions):
    counts = [max(3, int(round(n * f))) for f in fractions]
    while sum(counts) > n:
        i = int(np.argmax(counts))
        counts[i] -= 1
        if counts[i] < 3:
            raise ValueError("n_gaussians too small for this scene's part split")
    while sum(counts) < n:
        counts[int(np.argmin(counts))] += 1
    return counts


@cache
def _camera_ring():
    """Eight cameras on a circle of radius 2.6 at height 0.5, facing the origin,
    built on the first call of a process; every scene shares them (a camera is
    immutable)."""
    cams = []
    for i in range(8):
        a = 2.0 * np.pi * i / 8
        eye = np.array([2.6 * np.cos(a), 0.5, 2.6 * np.sin(a)])
        cams.append(look_at_camera(eye, target=np.zeros(3), fx=800.0, fy=800.0,
                                   width=640, height=640))
    return tuple(cams)


def generate(spec):
    """Build the full deterministic sequence for a SceneSpec."""
    rng = np.random.default_rng(spec.seed)
    t_idx = np.arange(spec.n_frames)
    origin = np.zeros(3)
    still = np.tile((1.0, 0.0, 0.0, 0.0), (spec.n_frames, 1))
    # each rigid part: (frame-0 points, rotation per frame (T, 4), pivot,
    # translation per frame (T, 3) or None), in Gaussian order
    if spec.kind == "wheel":
        n_wheel, n_stand = _split_counts(spec.n_gaussians, (0.75, 0.25))
        parts = [
            (_sample_disc(rng, n_wheel, radius=0.5, thickness=0.02),
             _z_turns(np.deg2rad(spec.motion_magnitude) * t_idx), origin, None),
            (_sample_box(rng, n_stand, (-0.06, -1.05, -0.04), (0.06, -0.68, 0.04)),
             still, origin, None),
        ]

    elif spec.kind == "pendulum":
        pivot = np.array([0.0, 0.55, 0.0])
        n_mount, n_arm = _split_counts(spec.n_gaussians, (0.2, 0.8))
        bob_center = pivot + np.array([0.0, -0.8, 0.0])
        n_rod = max(4, n_arm // 3)
        swing = np.deg2rad(spec.motion_magnitude) * np.sin(2.0 * np.pi * t_idx / 16.0)
        parts = [
            (_sample_box(rng, n_mount, (-0.12, 0.58, -0.08), (0.12, 0.74, 0.08)),
             still, origin, None),
            (np.concatenate([_sample_capsule(rng, n_rod, pivot, bob_center, radius=0.03),
                             bob_center + _ball_offsets(rng, n_arm - n_rod, 0.14)]),
             _z_turns(swing), pivot, None),
        ]

    elif spec.kind == "two_link_arm":
        elbow = np.array([0.45, 0.0, 0.0])
        tip = np.array([0.9, 0.0, 0.0])
        n_base, n_link1, n_link2 = _split_counts(spec.n_gaussians, (0.2, 0.4, 0.4))
        # leave a small gap at the elbow: coincident end caps would create
        # points whose trajectories are identical for both links, making the
        # part assignment genuinely ambiguous there
        joint_gap = np.array([0.09, 0.0, 0.0])
        q1 = _z_turns(np.deg2rad(spec.motion_magnitude) * t_idx)
        q2 = _z_turns(np.deg2rad(1.5 * spec.motion_magnitude) * t_idx)
        # link2 turns about the elbow and is carried by the shoulder at the
        # origin: x_t = R1 (R2 (x0 - elbow) + elbow) = (R1 R2) x0 + shift
        R1, R2 = geometry.quat_to_matrix(q1), geometry.quat_to_matrix(q2)
        shift = R1 @ (np.eye(3) - R2) @ elbow
        parts = [
            (_sample_box(rng, n_base, (-0.16, -0.3, -0.16), (0.16, -0.08, 0.16)),
             still, origin, None),
            (_sample_capsule(rng, n_link1, origin, elbow - joint_gap, radius=0.055),
             q1, origin, None),
            (_sample_capsule(rng, n_link2, elbow + joint_gap, tip, radius=0.045),
             geometry.quat_multiply(q1, q2), origin, shift),
        ]

    elif spec.kind == "cloth_wave":
        side = int(np.ceil(np.sqrt(spec.n_gaussians)))
        g = np.linspace(-0.5, 0.5, side)
        xx, zz = np.meshgrid(g, g)
        pts = np.stack([xx.ravel(), np.zeros(side * side), zz.ravel()], axis=-1)
        pts = pts[: spec.n_gaussians]
        parts = [(pts + rng.normal(scale=0.004, size=pts.shape), still, origin, None)]

    else:  # two_blobs
        n_a, n_b = _split_counts(spec.n_gaussians, (0.5, 0.5))
        step = spec.motion_magnitude * t_idx[:, None] * np.array([1.0, 0.0, 0.0])
        parts = [
            (np.array([-0.3, 0.0, 0.0]) + _ball_offsets(rng, n_a, 0.18), still, origin, -step),
            (np.array([0.3, 0.0, 0.0]) + _ball_offsets(rng, n_b, 0.18), still, origin, step),
        ]

    labels = np.concatenate([np.full(len(part[0]), p, dtype=np.int64)
                             for p, part in enumerate(parts)])
    gt = np.concatenate(
        [(points - pivot) @ np.swapaxes(geometry.quat_to_matrix(quats), 1, 2) + pivot
         + (0.0 if shift is None else shift[:, None])
         for points, quats, pivot, shift in parts],
        axis=1,
    )  # (T, N, 3)
    if spec.kind == "cloth_wave":  # a wave travelling along y over the still grid
        x, z = gt[0, :, 0], gt[0, :, 2]
        phase = 2.0 * np.pi * (x + 0.3 * z) / 0.8
        wave = spec.motion_magnitude * np.sin(phase - 2.0 * np.pi * t_idx[:, None] / 10.0)
        gt[..., 1] += wave - spec.motion_magnitude * np.sin(phase)  # frame 0 stays put
    n = gt.shape[1]

    base_scale = rng.uniform(0.005, 0.009, size=(n, 1))
    scales = base_scale * np.array([2.0, 1.4, 1.0])
    # Identity initial orientations: spatially coherent like a reconstructed
    # scene, so absolute per-frame rotations carry the part-motion signal
    # instead of a random per-Gaussian gauge.
    orientations = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n, 1))
    frame0 = GaussianSet(centers=gt[0].copy(), orientations=orientations, scales=scales,
                         frame_index=0)

    noise_rng = np.random.default_rng(spec.seed + 7919)
    observations = []
    for t in range(spec.n_frames):
        pts = gt[t].copy()
        if spec.noise_sigma > 0.0:
            pts += noise_rng.normal(scale=spec.noise_sigma, size=pts.shape)
        observations.append(DataObservation(points=pts, correspondence=np.arange(n)))

    return SceneSequence(
        spec=spec,
        frame0=frame0,
        observations=observations,
        gt_centers=gt,
        part_labels=labels,
        part_quats=np.stack([quats for _, quats, _, _ in parts], axis=1),
        cameras=list(_camera_ring()),
    )


def scan_observations(gt_centers, samples, seed):
    """Per frame of the (T, N, 3) `gt_centers`, `samples` noisy points around
    every center (std 0.005), with no correspondences: a scan for the Chamfer
    data term. The noise is seeded by (seed, samples)."""
    rng = np.random.default_rng((seed, samples))
    observations = []
    for centers in gt_centers:
        noise = rng.normal(scale=_SCAN_SIGMA, size=(centers.shape[0], samples, 3))
        observations.append(DataObservation(points=(centers[:, None, :] + noise).reshape(-1, 3)))
    return observations
