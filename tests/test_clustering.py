"""k-means, agglomerative merging, and the cluster hierarchy."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscascade import clustering
from gscascade.clustering import (
    _ROW_BLOCK,
    ClusterHierarchy,
    _assign,
    _farthest_point_seeds,
    _member_means,
    _sq_dists,
    agglomerate,
    build_hierarchy,
    kmeans,
)
from gscascade.scenegen import KINDS, SceneSpec, generate
from oracles import (agglomerate_masked, assign_broadcast, distance_entries,
                     farthest_point_seeds, kmeans_loop, member_means_csr, sq_dists_zeroed)


def two_separated_blobs(rng, n_each=30, gap=5.0):
    a = rng.normal(scale=0.2, size=(n_each, 3))
    b = rng.normal(scale=0.2, size=(n_each, 3)) + np.array([gap, 0, 0])
    return np.concatenate([a, b])


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    pts = two_separated_blobs(rng)
    labels, centroids = kmeans(pts, 2, seed=1)
    assert centroids.shape == (2, 3)
    first, second = labels[:30], labels[30:]
    assert len(set(first)) == 1 and len(set(second)) == 1
    assert first[0] != second[0]


def test_kmeans_deterministic():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    l1, c1 = kmeans(pts, 7, seed=42)
    l2, c2 = kmeans(pts, 7, seed=42)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(c1, c2)


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(8, 3))
    labels, centroids = kmeans(pts, 8, seed=0)
    assert sorted(labels) == list(range(8))
    np.testing.assert_allclose(centroids[labels], pts, atol=1e-12)


def test_kmeans_no_empty_clusters():
    rng = np.random.default_rng(3)
    # pathological: most mass in one tight blob
    pts = np.concatenate([rng.normal(scale=1e-4, size=(60, 3)), rng.normal(size=(4, 3)) + 10])
    labels, _ = kmeans(pts, 6, seed=0)
    assert len(np.unique(labels)) == 6


def test_kmeans_rejects_bad_k():
    pts = np.zeros((5, 3))
    with pytest.raises(ValueError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(pts, 6, seed=0)


def test_kmeans_generic_dimension():
    rng = np.random.default_rng(4)
    pts = np.concatenate([rng.normal(size=(20, 15)), rng.normal(size=(20, 15)) + 8])
    labels, centroids = kmeans(pts, 2, seed=0)
    assert centroids.shape == (2, 15)
    assert len(np.unique(labels[:20])) == 1
    assert len(np.unique(labels[20:])) == 1


# ---------------------------------------------------------------------------
# agglomerative merging


def brute_force_average_linkage(points, target_k):
    """Exhaustive average-linkage reference: O(n^3), fine for tiny n."""
    clusters = [[i] for i in range(len(points))]
    while len(clusters) > target_k:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = np.mean(
                    [
                        np.linalg.norm(points[a] - points[b])
                        for a in clusters[i]
                        for b in clusters[j]
                    ]
                )
                if best is None or d < best[0] - 1e-15:
                    best = (d, i, j)
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    labels = np.empty(len(points), dtype=int)
    order = sorted(range(len(clusters)), key=lambda c: min(clusters[c]))
    for new_id, c in enumerate(order):
        labels[clusters[c]] = new_id
    return labels


def test_agglomerate_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for trial in range(5):
        pts = rng.normal(size=(12, 3))
        for k in (2, 3, 5):
            got = agglomerate(pts, k)
            want = brute_force_average_linkage(pts, k)
            np.testing.assert_array_equal(got, want)


def test_agglomerate_keeps_the_rounding_of_its_lance_williams_division():
    """On these 1-D points the merged distances tie but for their last bits,
    so the labels follow the rounding of `(n_i d_i + n_j d_j) / (n_i + n_j)`:
    a product with the reciprocal of n_i + n_j gives other labels."""
    pts = np.array([[0.30000000000000004], [0.0], [0.5], [0.2], [0.4]])
    want = agglomerate_masked(pts, 2)
    np.testing.assert_array_equal(want, [0, 1, 0, 1, 0])
    np.testing.assert_array_equal(agglomerate(pts, 2), want)


def test_agglomerate_trivial_cases():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(6, 3))
    np.testing.assert_array_equal(agglomerate(pts, 6), np.arange(6))
    assert len(np.unique(agglomerate(pts, 1))) == 1


def test_agglomerate_labels_ordered_by_smallest_member():
    rng = np.random.default_rng(7)
    pts = two_separated_blobs(rng, n_each=5)
    labels = agglomerate(pts, 2)
    # cluster containing point 0 must get label 0
    assert labels[0] == 0


def oracle_cases(dim, rng):
    """(points, k) cases in `dim` dimensions: plain, rounded to a grid (distance
    ties), drawn with repeats (duplicate points), one point repeated with a
    few others (empty clusters to repair), with k = 1, k = n and k between;
    then points scaled to 1e-162, whose squared distances underflow to exact
    ties, points scaled to 1e154, where some overflow to inf, and six points
    on two values in four clusters, where the empty-cluster repair moves
    points in every Lloyd iteration."""
    cases = []
    for trial in range(6):
        n = int(rng.integers(2, 90))
        pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 50.0)
        pts = [pts, np.round(pts), pts[rng.integers(n // 3 + 1, size=n)],
               np.concatenate([np.zeros((n, dim)), pts[:3]])][trial % 4]
        for k in (1, len(pts), int(rng.integers(1, len(pts) + 1))):
            cases.append((pts, k))
    cases.append((rng.normal(size=(40, dim)) * 1e-162, 7))
    cases.append((rng.normal(size=(40, dim)) * 1e154, 7))
    repaired = np.zeros((6, dim))
    repaired[:, 0] = [3.0, 3.0, 0.0, 0.0, 0.0, 0.0]
    cases.append((repaired, 4))
    return cases


def assert_same_seeding(pts, k, seed):
    got = _farthest_point_seeds(pts, k, np.random.default_rng(seed))
    want = farthest_point_seeds(pts, k, np.random.default_rng(seed))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 75])
def test_kmeans_and_agglomerate_keep_the_bits_of_their_per_cluster_loops(dim):
    """Assignments and labels match the loops exactly. Below D = 8 the squared
    distances are summed column by column, from 8 up by np.sum itself; both
    are np.sum's bits, which the first check pins. The member means add rows
    in order as a per-cluster mean(axis=0) does for D >= 2; at D = 1 that
    mean sums one contiguous column pairwise, so there the means may differ
    in the last few bits. No caller passes D = 1.

    The kernels also keep the bits of their first forms, at every D: the
    squared distances (the first column written into the grid) equal a grid
    added into zeros, and the member means (one bincount over (cluster,
    column) bins) equal the CSR product, as each bin adds its rows in index
    order from 0. The seeding's rows, from (D, N) coordinate rows below D = 8,
    equal np.sum's over (N, D) differences, seeds and (k, N) grid byte for
    byte. Those cases cross the _ROW_BLOCK boundary and hold repeated points,
    -0.0 and NaN, in both the points and the centroids; agglomerate's labels
    over their first 40 points equal the masked loop's too. kmeans and
    agglomerate handle the overflowing and NaN cases by design and raise no
    RuntimeWarning on them; the oracles and the private kernels run quieted."""
    rng = np.random.default_rng(100 + dim)
    eps = np.finfo(np.float64).eps
    for case, (pts, k) in enumerate(oracle_cases(dim, rng)):
        with np.errstate(over="ignore", invalid="ignore"):  # plain numpy warns
            np.testing.assert_array_equal(_assign(pts, pts[:k] + 0.5)[1],
                                          assign_broadcast(pts, pts[:k] + 0.5)[1])
            assert_same_seeding(pts, k, case)
            want_labels, want_centroids = kmeans_loop(pts, k, seed=case)
            want_agglomerated = agglomerate_masked(pts, k)
        labels, centroids = kmeans(pts, k, seed=case)
        np.testing.assert_array_equal(labels, want_labels)
        if dim >= 2:
            np.testing.assert_array_equal(centroids, want_centroids)
        else:
            np.testing.assert_allclose(centroids, want_centroids, rtol=0,
                                       atol=len(pts) * eps * np.abs(pts).max())
        np.testing.assert_array_equal(agglomerate(pts, k), want_agglomerated)
    for n in (_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1):
        pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 50.0)
        pts[rng.integers(n, size=n // 4)] = pts[0]
        pts[1] = -0.0
        pts[2, -1] = np.nan
        pts[3] = -pts[4]
        centroids = np.concatenate([pts[:6], pts[rng.integers(n, size=30)] + 0.25])
        assert _sq_dists(pts, centroids).tobytes() == sq_dists_zeroed(pts, centroids).tobytes()
        assert_same_seeding(pts, 7, n)
        np.testing.assert_array_equal(agglomerate(pts[:40], 7), agglomerate_masked(pts[:40], 7))
        for k in (1, 7, n):
            assign = rng.permutation(np.arange(n) % k)
            counts = np.bincount(assign, minlength=k)
            got, want = _member_means(pts, assign, counts), member_means_csr(pts, assign, counts)
            assert got.tobytes() == want.tobytes()


# Layer sizes per N, coarsest first; at N = 2000 k-means' grids span four
# _ROW_BLOCK blocks
PINNED_LAYERS = {60: (2, 6, 24), 400: (8, 40, 160), 2000: (8, 40, 160)}

# sha256 of `hierarchy_bytes` over PINNED_LAYERS, per kind
PINNED_HIERARCHIES = {
    "wheel": "bc0ad01df441abf9f3b8b508c3a9ba10524300b37a50157c459bdfe5ee92757d",
    "pendulum": "c45a9c04fb3c8c26b586e484952b7c058a7cd1bbd014b1dcec133ce24d74823a",
    "two_link_arm": "a9a5e3d68e857aa016ac14800ec18e82f6cf52045c2d61bf18592069fe8eb35a",
    "cloth_wave": "e7acbd9cb5cc942259e422dc29bd07a68b2cf3e7c7df1df263be07da47a208f1",
    "two_blobs": "2aef8b29265b841ff6a6a9016fd314a3e4b1972058e61065df53c16947b97e5f",
}


def hierarchy_bytes(h):
    """Every assignment, centroid and parent-map array, with dtypes and shapes."""
    arrays = [*h.assignments, *h.centroids, *h.parent_maps]
    return b"".join(f"{a.dtype.str}{a.shape}".encode() + a.tobytes() for a in arrays)


@pytest.mark.parametrize("kind", KINDS)
def test_build_hierarchy_keeps_its_pinned_bytes(kind):
    digest = hashlib.sha256()
    for n, sizes in PINNED_LAYERS.items():
        seq = generate(SceneSpec(kind, n_gaussians=n, n_frames=2, seed=1))
        digest.update(hierarchy_bytes(build_hierarchy(seq.frame0.centers, sizes, seed=1)))
    assert digest.hexdigest() == PINNED_HIERARCHIES[kind], kind


@pytest.mark.parametrize("dim", [1, 3, 75])
def test_an_oracle_case_repairs_after_the_first_iteration(dim, monkeypatch):
    """The last oracle case, seeded with its index as the oracle test seeds
    it, moves points in the empty-cluster repair of a later Lloyd iteration
    too, while the bounds are in use: the oracle test covers the recompute of
    a moved point."""
    moves = []
    repair = clustering._repair_empty

    def recorded(*args):
        counts, moved = repair(*args)
        moves.append(len(moved))
        return counts, moved

    monkeypatch.setattr(clustering, "_repair_empty", recorded)
    cases = oracle_cases(dim, np.random.default_rng(100 + dim))
    kmeans(*cases[-1], seed=len(cases) - 1)
    assert len(moves) > 2 and any(moves[1:-1])


def test_kmeans_distance_work_stays_within_its_measured_count():
    """The arm400 hierarchy's k-means (N = 400, k = 160, seed 1) computes
    104,960 squared distances: the seeding's 64,000 and 0.64 of a grid more,
    where the plain Lloyd loop computed 8 whole grids, 512,000. The count is
    exact: a change that moves it, or computes entries that the count does not
    see, fails here."""
    seq = generate(SceneSpec("two_link_arm", n_gaussians=400, n_frames=5, seed=1))
    centers = seq.frame0.centers
    assert distance_entries(lambda: kmeans(centers, 160, seed=1)) == 104_960


@pytest.mark.parametrize("dim", [3, 9])
def test_squared_distances_in_row_blocks_keep_the_bits_of_one_grid(dim):
    """Past _ROW_BLOCK rows the grid fills block by block, with a short last
    block; every entry keeps the whole-grid arithmetic."""
    rng = np.random.default_rng(dim)
    for n in (_ROW_BLOCK - 1, _ROW_BLOCK, 2 * _ROW_BLOCK + 1, 3 * _ROW_BLOCK - 7):
        pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 50.0)
        centroids = pts[rng.integers(n, size=int(rng.integers(1, 40)))] + 0.25
        got, want = _assign(pts, centroids), assign_broadcast(pts, centroids)
        assert got[1].tobytes() == want[1].tobytes()
        np.testing.assert_array_equal(got[0], want[0])


def test_build_hierarchy_builds_no_sparse_matrix():
    """The hierarchy's member means are bincounts: building arm400's
    hierarchy runs no code of scipy.sparse."""
    seq = generate(SceneSpec("two_link_arm", n_gaussians=400, n_frames=2, seed=1))
    sparse = []

    def record(frame, event, arg):
        if event == "call" and "scipy/sparse" in frame.f_code.co_filename:
            sparse.append(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        build_hierarchy(seq.frame0.centers, (8, 40, 160), seed=1)
    finally:
        sys.setprofile(None)
    assert not sparse, sorted(set(sparse))


def test_build_hierarchy_stays_within_its_measured_calls():
    """`sys.setprofile` `call` and `c_call` events over arm400's hierarchy
    (N = 400, layers 8, 40, 160): each seed and each merge is a fixed handful
    of whole-row numpy operations, so a change that adds per-seed or
    per-merge calls fails here. The event that switches the profiler off is
    counted too. A change that removes some lowers the bound with it."""
    seq = generate(SceneSpec("two_link_arm", n_gaussians=400, n_frames=2, seed=1))
    events = dict.fromkeys(("call", "c_call"), 0)

    def count(frame, event, arg):
        if event in events:
            events[event] += 1

    sys.setprofile(count)
    try:
        build_hierarchy(seq.frame0.centers, (8, 40, 160), seed=1)
    finally:
        sys.setprofile(None)
    assert events["call"] <= 428 and events["c_call"] <= 895, events


# ---------------------------------------------------------------------------
# hierarchy


def test_build_hierarchy_nested_and_exact_centroids():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(200, 3))
    h = build_hierarchy(pts, (4, 12, 40), seed=0)
    assert h.layer_sizes == (4, 12, 40)
    assert len(h.assignments) == 3
    # nesting: finer assignment + parent map reproduces coarser assignment
    for k in range(1, 3):
        fine = h.assignments[k]
        coarse = h.assignments[k - 1]
        np.testing.assert_array_equal(h.parent_maps[k - 1][fine], coarse)
    # centroids are exact member means
    for k in range(3):
        for j in range(h.layer_sizes[k]):
            members = pts[h.assignments[k] == j]
            assert len(members) > 0
            np.testing.assert_array_equal(h.centroids[k][j], members.mean(axis=0))


def test_build_hierarchy_matches_the_per_cluster_loops():
    """The finest layer is kmeans_loop's, each coarser one agglomerate_masked's
    over the finer layer's member means (np.add.at sums), bit for bit."""
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(300, 3))
    h = build_hierarchy(pts, (3, 10, 40), seed=2)
    assign, _ = kmeans_loop(pts, 40, seed=2)
    for layer in (2, 1, 0):
        np.testing.assert_array_equal(h.assignments[layer], assign)
        size = h.layer_sizes[layer]
        sums = np.zeros((size, 3))
        np.add.at(sums, assign, pts)
        means = sums / np.bincount(assign, minlength=size)[:, None]
        np.testing.assert_array_equal(h.centroids[layer], means)
        if layer:
            pmap = agglomerate_masked(means, h.layer_sizes[layer - 1])
            np.testing.assert_array_equal(h.parent_maps[layer - 1], pmap)
            assign = pmap[assign]


def test_build_hierarchy_single_cluster_layers():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(30, 3))
    h = build_hierarchy(pts, (1, 1, 1), seed=0)
    for k in range(3):
        assert np.all(h.assignments[k] == 0)
        np.testing.assert_array_equal(h.centroids[k][0], pts.mean(axis=0))


def test_build_hierarchy_rejects_decreasing_sizes():
    pts = np.random.default_rng(10).normal(size=(50, 3))
    # (4, 2, 8) falls only from its first layer to its second
    for sizes in ((10, 4), (4, 2, 8)):
        with pytest.raises(ValueError, match="non-decreasing"):
            build_hierarchy(pts, sizes, seed=0)


def test_build_hierarchy_rejects_oversized_finest_layer():
    pts = np.random.default_rng(11).normal(size=(10, 3))
    with pytest.raises(ValueError):
        build_hierarchy(pts, (2, 20), seed=0)


def test_update_centroids_tracks_moved_points():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(60, 3))
    h = build_hierarchy(pts, (2, 10), seed=0)
    moved = pts + np.array([5.0, 0.0, 0.0])
    h.update_centroids(moved)
    for k in range(2):
        for j in range(h.layer_sizes[k]):
            members = moved[h.assignments[k] == j]
            np.testing.assert_allclose(h.centroids[k][j], members.mean(axis=0), atol=1e-12)


def test_hierarchy_payload_roundtrip():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(40, 3))
    h = build_hierarchy(pts, (2, 8), seed=3)
    h2 = ClusterHierarchy.from_payload(h.to_payload())
    assert h2.layer_sizes == h.layer_sizes
    for a, b in zip(h.assignments, h2.assignments):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(h.centroids, h2.centroids):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=6),
)
def test_kmeans_partition_properties(seed, k):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(40, 3))
    labels, centroids = kmeans(pts, k, seed=seed)
    assert labels.shape == (40,)
    assert len(np.unique(labels)) == k
    assert np.all((labels >= 0) & (labels < k))
    # each point is assigned to its nearest centroid
    d = np.linalg.norm(pts[:, None, :] - centroids[None], axis=-1)
    np.testing.assert_array_equal(d.argmin(axis=1), labels)
