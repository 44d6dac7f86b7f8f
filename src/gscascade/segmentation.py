"""Motion-based part segmentation, its score, and Procrustes rotation fits.

Each Gaussian's motion signature is a (T, 15) matrix per frame t:
[lambda_p * center_t | lambda_R * flattened rotation matrix_t |
 lambda_p0 * center_0]. k-means over the flattened signatures groups
Gaussians that move together; for truly articulated scenes the grouping
recovers the rigid parts (any sub-body of a rigid body rotating about its
centroid rotates by exactly the body's rotation, so per-part signatures are
consistent; `procrustes_rotation` recovers that rotation from point sets).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .clustering import kmeans

FEATURE_WIDTH = 15


def build_features(sets, lambda_p=1.0, lambda_r=1.0, lambda_p0=1.0):
    """Per-Gaussian (T, 15) motion features from a list of GaussianSets."""
    if len(sets) < 2:
        raise ValueError("need at least 2 frames of trajectory")
    n = sets[0].n
    T = len(sets)
    feats = np.empty((n, T, FEATURE_WIDTH))
    p0 = sets[0].centers
    for t, gset in enumerate(sets):
        if gset.n != n:
            raise ValueError("Gaussian count changed mid-sequence")
        R = geometry.quat_to_matrix(gset.orientations).reshape(n, 9)
        feats[:, t, 0:3] = lambda_p * gset.centers
        feats[:, t, 3:12] = lambda_r * R
        feats[:, t, 12:15] = lambda_p0 * p0
    return feats


def segment(features, k_parts, seed=0):
    """k-means part labels from (N, T, 15) features (flattened per Gaussian)."""
    features = np.asarray(features, dtype=np.float64)
    labels, _ = kmeans(features.reshape(features.shape[0], -1), k_parts, seed=seed)
    return labels


def adjusted_rand_index(labels_a, labels_b):
    """Chance-corrected pair-counting agreement between two labelings."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError("labelings must have equal length")
    n = a.size
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(np.float64(n))
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0  # both labelings trivial (all-singletons or single cluster)
    return float((sum_ij - expected) / (max_index - expected))


_COLLINEAR_TOL = 1e-9


def procrustes_rotation(src, dst):
    """Best-fit rotation (Kabsch) mapping centered src onto centered dst.

    Raises on degenerate (collinear or near-collinear) point sets, where the
    rotation about the common axis is unobservable.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("point sets must both be (M, 3)")
    if src.shape[0] < 3:
        raise ValueError("need at least 3 points")
    s = src - src.mean(axis=0)
    d = dst - dst.mean(axis=0)
    H = s.T @ d
    U, sing, Vt = np.linalg.svd(H)
    scale = max(sing[0], 1e-300)
    if sing[1] / scale < _COLLINEAR_TOL:
        raise ValueError("degenerate point set: points are (near-)collinear")
    D = np.eye(3)
    D[2, 2] = np.sign(np.linalg.det(Vt.T @ U.T))
    return Vt.T @ D @ U.T
