"""Gaussian scene containers.

A scene frame is a set of anisotropic 3D Gaussians stored struct-of-arrays:
centers, orientation quaternions (w,x,y,z), per-axis scales (standard
deviations), and carried-along colors. The list index of a Gaussian is its
identity for the whole sequence — no operation in this package ever permutes
it, which is what makes per-index tracking meaningful.

Covariance is never stored; `geometry.compose_covariance` derives it on demand
as R diag(s^2) R^T, so the (orientation, scale) factorization stays exact and
per-Gaussian orientation / scale deltas remain well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry


@dataclass
class GaussianSet:
    """All Gaussians of one time frame, index-aligned across frames."""

    centers: np.ndarray  # (N, 3)
    orientations: np.ndarray  # (N, 4)
    scales: np.ndarray  # (N, 3)
    colors: np.ndarray = None  # (N, 3), defaults to mid-gray
    frame_index: int = 0

    def __post_init__(self):
        self.centers = np.ascontiguousarray(self.centers, dtype=np.float64)
        self.orientations = np.ascontiguousarray(self.orientations, dtype=np.float64)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float64)
        n = self.centers.shape[0]
        if self.centers.shape != (n, 3):
            raise ValueError(f"centers must be (N, 3), got {self.centers.shape}")
        if self.orientations.shape != (n, 4):
            raise ValueError(f"orientations must be (N, 4), got {self.orientations.shape}")
        if self.scales.shape != (n, 3):
            raise ValueError(f"scales must be (N, 3), got {self.scales.shape}")
        if self.colors is None:
            self.colors = np.full((n, 3), 0.5)
        self.colors = np.ascontiguousarray(self.colors, dtype=np.float64)
        if self.colors.shape != (n, 3):
            raise ValueError(f"colors must be (N, 3), got {self.colors.shape}")
        for name in ("centers", "orientations", "scales", "colors"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contain non-finite values")
        if np.any(self.scales <= 0.0):
            raise ValueError("scales must be strictly positive")
        # Normalize only when needed: copying an already-normalized set must
        # be bit-exact (renormalizing a unit quaternion can shift the last ulp).
        norms = np.linalg.norm(self.orientations, axis=-1)
        if not np.all(np.abs(norms - 1.0) < 1e-9):
            self.orientations = geometry.quat_normalize(self.orientations)

    @property
    def n(self):
        return self.centers.shape[0]

    def copy(self):
        return GaussianSet(
            centers=self.centers.copy(),
            orientations=self.orientations.copy(),
            scales=self.scales.copy(),
            colors=self.colors.copy(),
            frame_index=self.frame_index,
        )
