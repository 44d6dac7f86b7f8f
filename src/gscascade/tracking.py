"""Pinhole projection and 2D trajectory-error evaluation.

A tracked point is just a Gaussian index: its predicted 2D track is the
projection of that Gaussian's center at every frame. No re-association ever
happens — index identity across frames is the tracker.

A ground-truth track is matched to a Gaussian in two batched passes: frame 0
of every Gaussian is projected to find the candidates within 10 px of the
track's start, then only the candidates are projected over all T frames, and
each candidate's median track error is taken column-wise over the frames it
shares with the track (`_median_error`, the one definition of the median track
error, which `mte` uses too). `score_track` is the one scorer of a track:
project the ground truth, select the candidate, project it and take its
`mte`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry

_MIN_DEPTH = 1e-9
CANDIDATE_RADIUS_PX = 10.0


@dataclass(frozen=True)
class PinholeCamera:
    """World-to-camera rigid transform plus intrinsics (pixels). +z looks forward.

    Frozen, and every array it holds (`rotation`, `translation` and
    `world_to_camera`, computed once from `rotation`) is read-only, so a
    camera can be shared, as `scenegen`'s ring is, and `world_to_camera`
    cannot go stale; `dataclasses.replace` builds a camera with new fields.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # (4,) unit quaternion, world -> camera
    translation: np.ndarray  # (3,)
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "rotation", "translation", "width", "height"):
            if any(isinstance(v, (bool, np.bool_))  # a JSON true would pass as 1
                   for v in np.ravel(np.asarray(getattr(self, name), dtype=object))):
                raise ValueError(f"camera {name} must hold numbers, not booleans")
        shapes = {"fx": (), "fy": (), "cx": (), "cy": (), "rotation": (4,), "translation": (3,)}
        for name, shape in shapes.items():
            value = getattr(self, name)
            if np.shape(value) != shape or not np.all(np.isfinite(value)):
                raise ValueError(f"camera {name} must be finite, of shape {shape}")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if not all(float(v).is_integer() and 1 <= v <= 65536 for v in (self.width, self.height)):
            raise ValueError("image size must be integers from 1 to 65536")
        with np.errstate(over="ignore"):  # a norm that overflows raises instead
            rotation = geometry.quat_normalize(np.asarray(self.rotation, dtype=np.float64))
        translation = np.array(self.translation, dtype=np.float64)
        rotation.flags.writeable = translation.flags.writeable = False
        fields = {"width": int(self.width), "height": int(self.height), "rotation": rotation,
                  "translation": translation}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @cached_property
    def world_to_camera(self):
        """The rotation matrix of `rotation`, computed on first use. It is not a
        field: equality and the payload ignore it."""
        matrix = geometry.quat_to_matrix(self.rotation)
        matrix.flags.writeable = False
        return matrix

    @property
    def image_diagonal(self):
        return float(np.hypot(self.width, self.height))

    def to_payload(self):
        return {
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "rotation": [float(v) for v in self.rotation],
            "translation": [float(v) for v in self.translation],
            "width": int(self.width), "height": int(self.height),
        }

    @classmethod
    def from_payload(cls, payload):
        return cls(**payload)


def look_at_camera(eye, target, fx, fy, width, height):
    """Camera at `eye` looking at `target` (world +y up): +z forward, +x right, +y image-down."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, np.array([0.0, 1.0, 0.0]))
    nr = np.linalg.norm(right)
    if nr < 1e-12:
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
        nr = np.linalg.norm(right)
    right /= nr
    down = np.cross(forward, right)
    R = np.stack([right, down, forward])  # rows: camera axes in world coords
    return PinholeCamera(
        fx=float(fx), fy=float(fy), cx=width / 2.0, cy=height / 2.0,
        rotation=geometry.matrix_to_quat(R),
        translation=-R @ eye,
        width=int(width), height=int(height),
    )


def project(camera, points):
    """Project (..., 3) world points; returns (pixels (..., 2), depth, valid).

    Points at or behind the camera plane (depth <= 1e-9) come back invalid
    with NaN pixels.
    """
    points = np.asarray(points, dtype=np.float64)
    cam = points @ camera.world_to_camera.T + camera.translation
    depth = cam[..., 2]
    valid = depth > _MIN_DEPTH
    every = valid.all()
    zsafe = depth if every else np.where(valid, depth, 1.0)
    pix = np.empty(depth.shape + (2,))
    for axis, f, c in ((0, camera.fx, camera.cx), (1, camera.fy, camera.cy)):
        out = pix[..., axis]  # f * cam / zsafe + c
        np.multiply(f, cam[..., axis], out=out)
        out /= zsafe
        out += c
    if not every:
        pix[~valid] = np.nan
    return pix, depth, valid


@dataclass
class Track2D:
    """Pixel positions of one tracked point over time."""

    pixels: np.ndarray  # (T, 2)
    valid: np.ndarray  # (T,) bool

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.pixels.shape != (self.valid.shape[0], 2):
            raise ValueError("pixels must be (T, 2) aligned with valid flags")


def project_track(camera, centers_over_time):
    """(T, 3) world trajectory -> Track2D."""
    pix, _, valid = project(camera, np.asarray(centers_over_time, dtype=np.float64))
    return Track2D(pixels=pix, valid=valid)


def _pixel_distance(a, b):
    """Euclidean distance over the last axis of (..., 2) pixel arrays: the bits
    of `np.linalg.norm(a - b, axis=-1)`, without its set-up."""
    d = a - b
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1])


def _median_error(dist, shared, image_diagonal):
    """Per-column median of `dist` (T, C) over the frames where `shared` (T, C)
    holds, divided by `image_diagonal`: (C,) errors as diagonal fractions.

    Bit-equal to `np.median(dist[shared[:, c], c]) / image_diagonal` for every
    column c: the unshared frames become NaN and sort last, and the median is
    the middle sample, or the half-sum of the two middle ones. A column with a
    NaN distance on a shared frame scores NaN, as `np.median` does. Every
    column needs at least one shared frame.
    """
    count = shared.sum(axis=0)
    ordered = np.sort(np.where(shared, dist, np.nan), axis=0)
    cols = np.arange(dist.shape[1])
    lo = ordered[(count - 1) // 2, cols]
    hi = ordered[count // 2, cols]
    median = np.where(count % 2 == 1, lo, (lo + hi) / 2)
    # NaNs sort last: row count - 1 holds one only if a shared frame's distance is NaN
    median[np.isnan(ordered[count - 1, cols])] = np.nan
    return median / image_diagonal


def mte(pred, gt, image_diagonal):
    """Median pixel distance between two tracks / image diagonal (a fraction)."""
    both = pred.valid & gt.valid
    if not both.any():
        raise ValueError("tracks share no valid frames")
    d = _pixel_distance(pred.pixels, gt.pixels)
    return float(_median_error(d[:, None], both[:, None], image_diagonal)[0])


def select_candidate(centers_traj, camera, gt_track):
    """Pick the Gaussian that best explains a ground-truth 2D track.

    centers_traj is the fitted (T, N, 3) center trajectory. Candidates are
    all Gaussians whose frame-0 projection lands within 10 pixels of the
    track's first point; among them the one with the lowest full-sequence
    MTE wins. All candidates are scored at once: frame 0 of every Gaussian is
    projected in one call, then the candidates' trajectories in another, and
    their MTEs come from one (T, C) array of pixel distances, each column over
    the frames valid in both the candidate and the track (frame 0 always is,
    through the gate). A tie goes to the lowest index. A non-finite MTE (a
    candidate whose valid frames project to non-finite pixels) never wins.
    Raises ValueError if no candidate is in range, or if no candidate has a
    finite MTE.
    """
    centers_traj = np.asarray(centers_traj, dtype=np.float64)
    pix0, _, valid0 = project(camera, centers_traj[0])
    d0 = _pixel_distance(pix0, gt_track.pixels[0])
    cand = np.nonzero(valid0 & (d0 <= CANDIDATE_RADIUS_PX))[0]
    if cand.size == 0:
        raise ValueError("no Gaussian projects within 10 px of the track start")
    pix, _, valid = project(camera, centers_traj[:, cand])
    dist = _pixel_distance(pix, gt_track.pixels[:, None])
    shared = valid & gt_track.valid[:, None]
    errors = _median_error(dist, shared, camera.image_diagonal)
    finite = np.isfinite(errors)
    if not finite.any():
        u, v = gt_track.pixels[0]
        raise ValueError(f"no candidate for the track starting at pixel ({u:.6g}, {v:.6g})"
                         " has a finite error")
    return int(cand[np.argmin(np.where(finite, errors, np.inf))])


def score_track(camera, gt_trajectory, centers):
    """Score the fitted (T, N, 3) `centers` on one (T, 3) ground-truth
    trajectory seen by `camera`: (gt_track, pick, pred_track, mte), where
    `pick` is `select_candidate`'s Gaussian and `pred_track` its projection.
    None when the ground truth starts behind the camera, which leaves no
    track to score; `select_candidate`'s ValueError propagates."""
    gt_track = project_track(camera, gt_trajectory)
    if not gt_track.valid[0]:
        return None
    pick = select_candidate(centers, camera, gt_track)
    pred_track = project_track(camera, centers[:, pick])
    return gt_track, pick, pred_track, mte(pred_track, gt_track, camera.image_diagonal)
