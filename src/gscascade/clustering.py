"""Coarse-to-fine cluster hierarchy over Gaussian centers.

The finest layer comes from Lloyd k-means (farthest-point seeded, so a fixed
seed gives a fixed result); every coarser layer merges the finer layer's
clusters with average-linkage agglomeration on their centroids. Assignments
are therefore nested by construction: all members of a fine cluster share one
coarse parent.

k-means is written for general (N, D) data because motion-feature
segmentation reuses it with D = 15*T.

A Lloyd iteration or a merge costs a fixed number of array operations,
whatever the number of clusters, and every result keeps the bits of the
plain per-cluster loops (`tests/oracles.py` holds them):

- member means are one `RowIndex` scatter, which adds each cluster's rows in
  index order from 0 as `np.add.at` and, for D >= 2, a per-cluster
  `mean(axis=0)` do, divided by the `np.bincount` counts;
- squared distances below D = 8 are summed one coordinate column at a time,
  in column order from 0, which is how `np.sum(..., axis=-1)` adds so short
  an axis (see `geometry.sum_last`); from D = 8 up numpy sums pairwise, so
  there they are that `np.sum` (segmentation's D = 15*T among them);
- agglomeration retires a merged cluster by setting its row and column of the
  distance matrix to inf in place, so the closest pair is the argmin of the
  matrix itself, with the same values and tie order as a masked copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import RowIndex

_LLOYD_TOL = 1e-7
_LLOYD_MAX_ITERS = 300
_PAIRWISE_FROM = 8  # numpy sums a last axis this long or longer pairwise
_ROW_BLOCK = 512  # rows of the (N, k) grid filled at once, so temporaries stay in cache


def _sq_dists(points, centroids):
    """(N, k) squared distances between the rows of (N, D) points and (k, D)
    centroids, filled _ROW_BLOCK rows at a time; each entry's arithmetic does
    not depend on the block."""
    n, dim = points.shape
    d2 = np.zeros((n, centroids.shape[0]))
    for start in range(0, n, _ROW_BLOCK):
        block, out = points[start:start + _ROW_BLOCK], d2[start:start + _ROW_BLOCK]
        if dim >= _PAIRWISE_FROM:
            out[...] = np.sum((block[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
            continue
        for a in range(dim):
            d = block[:, a, None] - centroids[None, :, a]
            d *= d
            out += d
    return d2


def _farthest_point_seeds(points, k, rng):
    """k-means++-style seeding: random first pick, then greedy farthest points."""
    n = points.shape[0]
    seeds = np.empty(k, dtype=np.int64)
    seeds[0] = rng.integers(n)
    d2 = _sq_dists(points, points[seeds[0], None])[:, 0]
    for i in range(1, k):
        seeds[i] = int(np.argmax(d2))
        np.minimum(d2, _sq_dists(points, points[seeds[i], None])[:, 0], out=d2)
    return points[seeds].copy()


def _assign(points, centroids):
    d2 = _sq_dists(points, centroids)
    return np.argmin(d2, axis=1), d2


def kmeans(points, k, seed=0):
    """Lloyd k-means on (N, D) data. Returns (assignments (N,), centroids (k, D)).

    Deterministic for a fixed seed. Empty clusters are repaired by splitting
    the largest cluster (its farthest member becomes the new centroid). Every
    point ends up assigned to its nearest returned centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points ({n})")
    rng = np.random.default_rng(seed)
    centroids = _farthest_point_seeds(points, k, rng)

    for _ in range(_LLOYD_MAX_ITERS):
        assign, d2 = _assign(points, centroids)
        new_centroids = _member_means(points, assign, _repair_empty(assign, d2, k))
        shift = np.max(np.linalg.norm(new_centroids - centroids, axis=-1))
        centroids = new_centroids
        if shift <= _LLOYD_TOL:
            break
    # final re-assignment so the nearest-centroid postcondition holds exactly;
    # a converged solution keeps every cluster nonempty, but exact-tie
    # degeneracies still get the repair pass
    assign, d2 = _assign(points, centroids)
    _repair_empty(assign, d2, k)
    return assign, centroids


def _repair_empty(assign, d2, k):
    """Give every empty cluster, in id order, the farthest member of the
    largest cluster. Returns the cluster sizes after the repair.

    As k <= N, the largest cluster has two members or more while one is
    empty, so a repair empties no cluster: those empty at the start are
    exactly the ones to repair.
    """
    counts = np.bincount(assign, minlength=k)
    for j in np.flatnonzero(counts == 0):
        big = int(np.argmax(counts))
        members_big = np.flatnonzero(assign == big)
        far = members_big[int(np.argmax(d2[members_big, big]))]
        assign[far] = j
        counts[big] -= 1
        counts[j] += 1
    return counts


def agglomerate(points, target_k):
    """Average-linkage agglomeration of (M, D) points down to target_k groups.

    Returns group labels (M,) in [0, target_k). Merges the closest pair of
    groups (mean pairwise member distance, via the Lance-Williams update)
    until target_k remain; distance ties break on the lowest index pair, so
    the result is deterministic. Labels are ordered by each group's smallest
    member index.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if target_k < 1:
        raise ValueError("target_k must be >= 1")
    if target_k > m:
        raise ValueError(f"target_k={target_k} exceeds number of points ({m})")

    d = np.sqrt(np.maximum(_sq_dists(points, points), 0.0))
    np.fill_diagonal(d, np.inf)
    sizes = np.ones(m)
    parent = np.arange(m)

    for _ in range(m - target_k):
        flat = int(np.argmin(d))  # ties: lowest flat index == lowest (i, j)
        i, j = divmod(flat, m)
        if i > j:
            i, j = j, i
        # average linkage: d(i∪j, l) = (n_i d_il + n_j d_jl) / (n_i + n_j)
        ni, nj = sizes[i], sizes[j]
        newd = (ni * d[i] + nj * d[j]) / (ni + nj)
        d[i] = newd
        d[:, i] = newd
        d[i, i] = np.inf
        d[j] = np.inf  # j is merged: its row and column leave the argmin
        d[:, j] = np.inf
        sizes[i] = ni + nj
        parent[parent == j] = i

    roots = np.unique(parent)  # sorted -> labels ordered by smallest member
    labels = np.searchsorted(roots, parent)
    return labels


@dataclass
class ClusterHierarchy:
    """Nested K-layer partition of one Gaussian set, coarsest layer first.

    centroids hold the arithmetic mean of each cluster's member centers;
    parent_maps[k] sends layer-(k+1) cluster ids to their layer-k parents.
    """

    layer_sizes: tuple  # K ints, coarsest first
    assignments: list  # K arrays (N,) of cluster ids
    centroids: list  # K arrays (layer_sizes[k], 3)
    parent_maps: list  # K-1 arrays, fine id -> coarse id
    seed: int = 0

    @property
    def n(self):
        return self.assignments[0].shape[0]

    @cached_property
    def row_indices(self):
        """Per layer, the assignments as a RowIndex into the rows of every
        layer's clusters, layer by layer (a cascade's layer classes): each is
        offset by the clusters of the layers before it. The sparse transpose
        that scatters the layer's gradients is built by the first fit that
        needs it and serves the whole sequence, over which assignments stay
        fixed."""
        starts = np.cumsum((0,) + tuple(self.layer_sizes))
        return [RowIndex(a + start, int(starts[-1]))
                for a, start in zip(self.assignments, starts[:-1])]

    def update_centroids(self, centers):
        """Recompute every layer's centroids as exact member means of `centers`."""
        centers = np.asarray(centers, dtype=np.float64)
        for k, (assign, size) in enumerate(zip(self.assignments, self.layer_sizes)):
            self.centroids[k] = _member_means(centers, assign, np.bincount(assign, minlength=size))

    def to_payload(self):
        return {
            "layer_sizes": [int(s) for s in self.layer_sizes],
            "assignments": [a.tolist() for a in self.assignments],
            "centroids": [c.tolist() for c in self.centroids],
            "parent_maps": [p.tolist() for p in self.parent_maps],
            "seed": int(self.seed),
        }

    @classmethod
    def from_payload(cls, payload):
        return cls(
            layer_sizes=tuple(payload["layer_sizes"]),
            assignments=[np.asarray(a, dtype=np.int64) for a in payload["assignments"]],
            centroids=[np.asarray(c, dtype=np.float64) for c in payload["centroids"]],
            parent_maps=[np.asarray(p, dtype=np.int64) for p in payload["parent_maps"]],
            seed=int(payload.get("seed", 0)),
        )


def _member_means(points, assign, counts):
    """(k, D) means of the rows of (N, D) points in each of the k clusters of
    `assign`, given its (k,) cluster sizes."""
    if not counts.all():
        raise ValueError("empty cluster in hierarchy")
    return RowIndex(assign, counts.size).scatter(points) / counts[:, None]


def build_hierarchy(centers, layer_sizes, seed=0):
    """Build the nested hierarchy over (N, 3) centers.

    layer_sizes are coarsest-first and must be non-decreasing (equal adjacent
    sizes are allowed and give identical layers); the finest size must not
    exceed N. The finest layer is k-means; coarser layers agglomerate the
    next-finer layer's centroids.
    """
    centers = np.asarray(centers, dtype=np.float64)
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if not layer_sizes:
        raise ValueError("need at least one layer")
    if any(a > b for a, b in zip(layer_sizes, layer_sizes[1:])):
        raise ValueError("layer_sizes must be non-decreasing (coarsest first)")
    if layer_sizes[-1] > centers.shape[0]:
        raise ValueError("finest layer size exceeds number of points")

    fine_assign, _ = kmeans(centers, layer_sizes[-1], seed=seed)
    assignments = [fine_assign]
    centroids = [_member_means(centers, fine_assign, np.bincount(fine_assign))]
    parent_maps = []
    for size in reversed(layer_sizes[:-1]):
        pmap = agglomerate(centroids[0], size).astype(np.int64)
        assign = pmap[assignments[0]]
        assignments.insert(0, assign)
        centroids.insert(0, _member_means(centers, assign, np.bincount(assign)))
        parent_maps.insert(0, pmap)

    return ClusterHierarchy(
        layer_sizes=layer_sizes,
        assignments=assignments,
        centroids=centroids,
        parent_maps=parent_maps,
        seed=seed,
    )
