"""Coarse-to-fine cluster hierarchy over Gaussian centers.

The finest layer comes from Lloyd k-means (farthest-point seeded, so a fixed
seed gives a fixed result); every coarser layer merges the finer layer's
clusters with average-linkage agglomeration on their centroids. Assignments
are therefore nested by construction: all members of a fine cluster share one
coarse parent.

k-means is written for general (N, D) data because motion-feature
segmentation reuses it with D = 15*T.

A seed, a Lloyd iteration or a merge costs a fixed number of array operations,
whatever the number of clusters, and every result keeps the bits of the
plain per-cluster loops (`tests/oracles.py` holds them):

- member means are one `np.bincount` over flattened (cluster, column) bins,
  which adds each cluster's rows in index order from 0 as `np.add.at` and,
  for D >= 2, a per-cluster `mean(axis=0)` do, divided by the cluster sizes;
- squared distances below D = 8 are summed one coordinate column at a time,
  in column order from 0 (the first column's squares are written into the
  grid, the others added), which is how `np.sum(..., axis=-1)` adds so short
  an axis (see `geometry.sum_last`); from D = 8 up numpy sums pairwise, so
  there they are that `np.sum` (segmentation's D = 15*T among them);
- a seed's row of squared distances is one subtract and one square over the
  points' (D, N) coordinate rows, transposed once per k-means call, and the
  rows summed in order from 0 (the first written, the others added): the same
  order as the grid's, so the same bits (from D = 8 up the seeding uses the
  grid's pairwise `np.sum`);
- agglomeration retires a merged cluster by setting its row and column of the
  distance matrix to inf in place, so the closest pair is the argmin of the
  matrix itself, with the same values and tie order as a masked copy. Each
  merge's Lance-Williams row is computed into preallocated buffers, with
  cluster sizes as Python floats (the same float64 arithmetic), and merged
  clusters are relabelled once after the loop.

Each Lloyd assignment equals the argmin of the full (N, k) grid of squared
distances, where the lowest cluster id wins a tie, yet most of that grid is
never computed (Elkan, "Using the Triangle Inequality to Accelerate
k-Means", ICML 2003). The seeding's distance columns are the first
assignment's grid. From then on each point keeps an upper bound on its
distance to its own centroid and a lower bound on its distance to every
other centroid, and each member-mean update moves them by the centroids'
shifts. A point keeps its cluster when `upper + _BOUND_ABS < min(lower)`;
the row of every other point is recomputed with `_sq_dists` and gives its
argmin. A certified point keeps the full grid's argmin because its exact gap
exceeds the rounding of the squared distances: each bound is widened by the
relative _BOUND_REL when it is set and each time it moves, far above the
(D + 4) eps relative rounding of a squared distance, a shift or a bound
update, so its own entry is the row's unique minimum and no tie is left for
the lowest index to break. _BOUND_ABS is far above the distance that
underflowing squares lose, a square that overflows to inf gives a lower bound
of 0 (and an upper bound of inf), and NaN fails every comparison, so ties,
underflowing and overflowing squares and NaN are always recomputed, and there
the lowest index wins as in the full grid. A point that the empty-cluster
repair moves is recomputed too; the repair computes only the grid entries it
compares, and only when a count is 0. Overflowing squares and the NaN they
lead to are thus handled by design, so `kmeans` and `agglomerate` each run
under one `np.errstate(over="ignore", invalid="ignore")`.
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
_BOUND_REL = 1e-9  # relative widening of each bound, against rounding
_BOUND_ABS = 1e-150  # absolute margin of the bound test, against underflow


def _sq_dists(points, centroids):
    """(N, k) squared distances between the rows of (N, D) points and (k, D)
    centroids, filled _ROW_BLOCK rows at a time; each entry's arithmetic does
    not depend on the block."""
    n, dim = points.shape
    d2 = np.empty((n, centroids.shape[0]))
    for start in range(0, n, _ROW_BLOCK):
        block, out = points[start:start + _ROW_BLOCK], d2[start:start + _ROW_BLOCK]
        if dim >= _PAIRWISE_FROM:
            diff = block[:, None, :] - centroids[None, :, :]
            diff *= diff
            np.sum(diff, axis=-1, out=out)
            continue
        np.subtract(block[:, 0, None], centroids[None, :, 0], out=out)
        out *= out
        for a in range(1, dim):
            d = block[:, a, None] - centroids[None, :, a]
            d *= d
            out += d
    return d2


def _sq_dists_to(coords, point, out, work):
    """(N,) squared distances of the points in (D, N) coordinate rows to one
    (D, 1) point, written into `out`, with `_sq_dists`' arithmetic below D = 8:
    one subtract and one square over a (D, N) work buffer, then the rows summed
    in order from 0 (the first written, the others added)."""
    np.subtract(coords, point, out=work)
    work *= work
    np.add.reduce(work, axis=0, out=out)


def _farthest_point_seeds(points, k, rng):
    """k-means++-style seeding: random first pick, then greedy farthest points.

    Returns the (k, D) seeds and the (k, N) squared distances of the seeds to
    every point: the transposed grid of the first assignment. Below D = 8 each
    seed's row comes from the points' (D, N) coordinate rows, from D = 8 up
    from `_sq_dists`.
    """
    n, dim = points.shape
    seeds = np.empty(k, dtype=np.int64)
    grid_t = np.empty((k, n))
    from_rows = dim < _PAIRWISE_FROM
    if from_rows:
        coords = np.ascontiguousarray(points.T)
        work = np.empty_like(coords)
    for j in range(k):
        seeds[j] = s = rng.integers(n) if j == 0 else nearest.argmax()
        row = grid_t[j]
        if from_rows:
            _sq_dists_to(coords, points[s, :, None], row, work)
        else:
            row[...] = _sq_dists(points, points[s, None])[:, 0]
        nearest = row.copy() if j == 0 else np.minimum(nearest, row, out=nearest)
    return points[seeds], grid_t


def _assign(points, centroids):
    d2 = _sq_dists(points, centroids)
    return np.argmin(d2, axis=1), d2


def _bounds(grid_t, assign):
    """(upper (n,), lower (k, n)) bounds, widened by _BOUND_REL, on the
    distances of n points to their assigned centroids and to every other
    one (inf at the assigned one), from their (k, n) squared distances."""
    lower = np.sqrt(grid_t)
    own = assign, np.arange(len(assign))
    upper = lower[own] * (1.0 + _BOUND_REL)
    lower[np.isinf(lower)] = 0.0  # an overflowing square bounds nothing from below
    lower *= 1.0 - _BOUND_REL
    lower[own] = np.inf
    return upper, lower


def kmeans(points, k, seed=0):
    """Lloyd k-means on (N, D) data. Returns (assignments (N,), centroids (k, D)).

    Deterministic for a fixed seed. Empty clusters are repaired by splitting
    the largest cluster (its farthest member becomes the new centroid). Every
    point ends up assigned to its nearest returned centroid. Each assignment
    is the argmin of the full grid of squared distances, computed only for
    the points whose bounds do not certify it (see the module docstring).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points ({n})")
    with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
        rng = np.random.default_rng(seed)
        centroids, grid_t = _farthest_point_seeds(points, k, rng)
        assign = np.argmin(grid_t, axis=0)
        # lower is (k, N): a shift moves one contiguous row
        upper, lower = _bounds(grid_t, assign)

        for _ in range(_LLOYD_MAX_ITERS):
            counts, moved = _repair_empty(points, centroids, assign, k)
            upper[moved] = np.inf  # its bound is on the cluster it left
            new_centroids = _member_means(points, assign, counts)
            shifts = np.linalg.norm(new_centroids - centroids, axis=-1)
            centroids = new_centroids
            upper += shifts[assign]
            upper *= 1.0 + _BOUND_REL
            lower *= 1.0 - _BOUND_REL
            lower -= shifts[:, None] * (1.0 + _BOUND_REL)
            stale = np.flatnonzero(~(upper + _BOUND_ABS < lower.min(axis=0)))
            assign[stale], d2 = _assign(points[stale], centroids)
            upper[stale], lower[:, stale] = _bounds(d2.T, assign[stale])
            if np.max(shifts) <= _LLOYD_TOL:
                break
        # the nearest-centroid postcondition holds for the last assignment; a
        # converged solution keeps every cluster nonempty, but exact-tie
        # degeneracies still get the repair pass
        _repair_empty(points, centroids, assign, k)
        return assign, centroids


def _repair_empty(points, centroids, assign, k):
    """Give every empty cluster, in id order, the farthest member of the
    largest cluster. Returns the cluster sizes after the repair and the moved
    points.

    As k <= N, the largest cluster has two members or more while one is
    empty, so a repair empties no cluster: those empty at the start are
    exactly the ones to repair. Only the largest cluster's column of the
    squared distances is computed, for its members.
    """
    counts = np.bincount(assign, minlength=k)
    moved = []
    for j in np.flatnonzero(counts == 0):
        big = int(np.argmax(counts))
        members_big = np.flatnonzero(assign == big)
        far = members_big[int(np.argmax(_sq_dists(points[members_big], centroids[big, None])))]
        assign[far] = j
        counts[big] -= 1
        counts[j] += 1
        moved.append(far)
    return counts, moved


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

    with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
        d = np.sqrt(np.maximum(_sq_dists(points, points), 0.0))
        np.fill_diagonal(d, np.inf)
        sizes = [1.0] * m
        parent = list(range(m))  # the cluster each one merged into, always a lower id
        row, other = np.empty(m), np.empty(m)
        for _ in range(m - target_k):
            i, j = divmod(int(d.argmin()), m)  # ties: lowest flat index == lowest (i, j)
            if i > j:
                i, j = j, i
            # average linkage: d(i∪j, l) = (n_i d_il + n_j d_jl) / (n_i + n_j)
            ni, nj = sizes[i], sizes[j]
            np.multiply(d[i], ni, out=row)
            np.multiply(d[j], nj, out=other)
            row += other
            row /= ni + nj
            row[i] = np.inf
            d[i] = row
            d[:, i] = row
            d[j] = np.inf  # j is merged: its row and column leave the argmin
            d[:, j] = np.inf
            sizes[i] = ni + nj
            parent[j] = i

    for c in range(m):  # in id order, so parent[c] <= c already ends at its root
        parent[c] = parent[parent[c]]
    roots = np.unique(parent)  # sorted -> labels ordered by smallest member
    return np.searchsorted(roots, parent)


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

    @cached_property
    def row_index(self):
        """Every layer's assignments, offset by the clusters of the layers
        before it, as one (K, N) RowIndex into the rows of every layer's
        clusters (a cascade's layer classes), so one scatter sends each
        layer's gradients to its own clusters. Its sparse transpose, built by
        the first fit that needs it, serves the whole sequence, over which
        assignments stay fixed."""
        starts = np.cumsum((0,) + tuple(self.layer_sizes))
        return RowIndex(np.stack([a + start for a, start in zip(self.assignments, starts[:-1])]),
                        int(starts[-1]))

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


def _member_means(points, assign, counts):
    """(k, D) means of the rows of (N, D) points in each of the k clusters of
    `assign`, given its (k,) cluster sizes."""
    if not counts.all():
        raise ValueError("empty cluster in hierarchy")
    k, dim = counts.size, points.shape[1]
    bins = (assign[:, None] * dim + np.arange(dim)).ravel()  # (cluster, column), row-major
    sums = np.bincount(bins, weights=points.ravel(), minlength=k * dim)
    return sums.reshape(k, dim) / counts[:, None]


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
