"""Objective terms: null cases, rigid-motion invariance, hand values, FD grads.

The gradient oracle throughout is central finite differences on the plain
evaluation wrappers; the invariance oracle is direct construction of rigidly
moved states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from gscascade import autodiff as ad
from gscascade import deform, geometry, losses
from gscascade.clustering import build_hierarchy
from gscascade.config import ConfigError, check_section
from gscascade.core import GaussianSet
from gscascade.deform import CascadeDeform
from gscascade.losses import (
    DataObservation,
    FrameConstants,
    LossWeights,
    NeighborGraph,
    build_neighbor_graph,
    data_loss_t,
    _rigidity_t,
    _rotation_t,
    isometry_loss_t,
    rigidity_loss_t,
    rotation_loss_t,
    scale_loss_t,
    total_loss,
)
from gscascade.tapemath import safe_norm
from oracles import (
    cascade_chain_t,
    chamfer_loss,
    chamfer_loss_chain_t,
    data_loss,
    exp,
    isometry_loss,
    isometry_loss_chain_t,
    isometry_loss_short_tape_t,
    matched_loss_chain_t,
    mul,
    record_walks,
    rigidity_loss,
    rigidity_loss_chain_t,
    rigidity_loss_short_tape_t,
    rotation_loss,
    rotation_loss_chain_t,
    rotation_loss_short_tape_t,
    scale_loss,
    scale_loss_chain_t,
    weighted_total_chain_t,
)

FD_EPS = 1e-6


def fd_tol(n):
    return 1e-8 + 1e-5 * np.abs(n)


def small_scene(rng, n=8, spread=0.5):
    return GaussianSet(
        centers=rng.normal(size=(n, 3)) * spread,
        orientations=rng.normal(size=(n, 4)),
        scales=rng.uniform(0.01, 0.03, size=(n, 3)),
    )


def rigid_move(gset, q, t):
    R = geometry.quat_to_matrix(q)
    return GaussianSet(
        centers=gset.centers @ R.T + t,
        orientations=geometry.quat_multiply(np.broadcast_to(q, (gset.n, 4)), gset.orientations),
        scales=gset.scales.copy(),
        frame_index=gset.frame_index + 1,
    )


# ---------------------------------------------------------------------------
# neighbor graph


def test_neighbor_graph_shape_and_self_exclusion():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(30, 3))
    g = build_neighbor_graph(pts, k=5, lambda_weight=1.0)
    assert g.indices.shape == (30, 5) and g.weights.shape == (30, 5)
    assert np.all(g.indices != np.arange(30)[:, None])
    assert np.all((g.weights > 0.0) & (g.weights <= 1.0))
    # the default falloff is sharp: distant edges may underflow to exactly 0,
    # but never leave [0, 1]
    g_default = build_neighbor_graph(pts, k=5)
    assert np.all((g_default.weights >= 0.0) & (g_default.weights <= 1.0))


def test_neighbor_graph_finds_true_nearest():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.2, 0, 0], [5.0, 0, 0]])
    g = build_neighbor_graph(pts, k=2, lambda_weight=1.0)
    assert set(g.indices[0]) == {1, 2}
    assert set(g.indices[3]) == {1, 2}
    # weight of the edge 0 -> 1 is exp(-lambda * 1^2)
    w01 = g.weights[0][g.indices[0] == 1][0]
    np.testing.assert_allclose(w01, np.exp(-1.0), atol=1e-15)


def test_neighbor_graph_default_falloff_scales_with_scene():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(10, 3))
    g = build_neighbor_graph(pts, k=3, scene_scale=2.0)
    d2 = np.sum((pts[g.indices[4]] - pts[4]) ** 2, axis=-1)
    np.testing.assert_allclose(g.weights[4], np.exp(-2000.0 / 2.0**2 * d2), atol=1e-15)


def test_neighbor_graph_handles_duplicate_points():
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    g = build_neighbor_graph(pts, k=2, lambda_weight=1.0)
    assert g.indices.shape == (5, 2)
    assert np.all(g.indices != np.arange(5)[:, None])
    # the duplicate pair are each other's nearest neighbor at distance 0
    assert 1 in g.indices[0] and 0 in g.indices[1]
    assert g.weights.max() == 1.0


def test_neighbor_graph_drops_the_farthest_when_duplicates_crowd_self_out():
    """Four copies of one point: point 3's k + 1 = 3 query results are the
    other copies, nearest first, without point 3 itself; the last is dropped."""
    pts = np.array([[0.0, 0, 0]] * 4 + [[1.0, 0, 0], [2.0, 0, 0]])
    _, idx = cKDTree(pts).query(pts, k=3)
    assert 3 not in idx[3]
    g = build_neighbor_graph(pts, k=2, lambda_weight=1.0)
    assert g.indices[3].tolist() == idx[3, :2].tolist()


def _frame0_rest_lengths(centers, idx):
    return safe_norm(centers[idx] - centers[:, None]).value


def test_neighbor_graph_rest_lengths_are_safe_norm_of_frame0_edges():
    """Built or constructed directly, the graph's rest lengths are bit for bit
    safe_norm of its frame-0 edges, and its dead-zone scale is the largest
    absolute frame-0 coordinate."""
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(40, 3)) + 3.0
    pts[7] = pts[8]  # a zero-length edge sits on the norm floor
    built = build_neighbor_graph(pts, k=6)
    idx = rng.integers(0, 40, size=(40, 4))  # repeated and self neighbours
    direct = NeighborGraph(centers=pts, indices=idx, weights=np.ones((40, 4)))
    for g in (built, direct):
        assert np.array_equal(g.rest_lengths, _frame0_rest_lengths(pts, g.indices))
        assert g.max_abs_coord == np.abs(pts).max()
    assert built.rest_lengths.min() == geometry._NORM_FLOOR


def test_isometry_of_frame0_is_exactly_zero():
    """The frame-0 centers reproduce every rest length bit for bit: the
    isometry term is 0 and so is its gradient, on built and direct graphs."""
    rng = np.random.default_rng(16)
    f0 = small_scene(rng, n=50, spread=2.0)
    f0.centers = f0.centers + 5.0
    f0.centers[3] = f0.centers[4]
    direct = NeighborGraph(centers=f0.centers, indices=rng.integers(0, 50, size=(50, 5)),
                           weights=np.ones((50, 5)))
    for graph in (build_neighbor_graph(f0.centers, k=8), direct):
        value, grads = isometry_loss(f0, graph)
        assert value == 0.0
        assert not np.any(grads["centers"])


def test_neighbor_graph_rejects_bad_k():
    pts = np.zeros((4, 3))
    with pytest.raises(ValueError, match=r"^k must be in \[1, 3\], got 4$"):
        build_neighbor_graph(pts, k=4)
    with pytest.raises(ValueError, match="k must be"):
        build_neighbor_graph(pts, k=0)


# ---------------------------------------------------------------------------
# null cases and invariances


def test_all_motion_losses_vanish_when_nothing_moves():
    rng = np.random.default_rng(2)
    gset = small_scene(rng)
    graph = build_neighbor_graph(gset.centers, k=3, lambda_weight=1.0)
    curr = gset.copy()
    v_rig, g_rig = rigidity_loss(gset, curr, graph)
    v_iso, g_iso = isometry_loss(curr, graph)
    v_rot, g_rot = rotation_loss(gset, curr, graph)
    # safe-norm floor keeps values at ~1e-12 instead of exactly 0
    assert v_rig < 1e-9 and v_iso < 1e-9 and v_rot < 1e-9
    # and the same floor zeroes the gradients instead of NaN-ing them
    for grads in (g_rig, g_iso, g_rot):
        for g in grads.values():
            assert np.all(np.isfinite(g))
            assert np.abs(g).max() == 0.0


def test_rigidity_and_isometry_invariant_under_rigid_motion():
    rng = np.random.default_rng(3)
    gset = small_scene(rng, n=12)
    graph = build_neighbor_graph(gset.centers, k=4, lambda_weight=2.0)
    q = geometry.quat_normalize(np.array([0.7, -0.2, 0.5, 0.1]))
    moved = rigid_move(gset, q, np.array([0.3, -1.0, 0.2]))
    v_rig, _ = rigidity_loss(gset, moved, graph)
    v_iso, _ = isometry_loss(moved, graph)
    v_rot, _ = rotation_loss(gset, moved, graph)
    assert v_rig < 1e-9
    assert v_iso < 1e-9
    assert v_rot < 1e-9  # every Gaussian has the same rotation increment


def test_rotation_loss_invariant_to_quaternion_sign_flips():
    rng = np.random.default_rng(4)
    gset = small_scene(rng, n=10)
    graph = build_neighbor_graph(gset.centers, k=3, lambda_weight=1.0)
    curr = gset.copy()
    curr.orientations = curr.orientations.copy()
    curr.orientations[::2] *= -1.0  # same rotations, opposite hemisphere
    v, _ = rotation_loss(gset, curr, graph)
    assert v < 1e-9


def test_rigidity_detects_non_rigid_motion():
    rng = np.random.default_rng(5)
    gset = small_scene(rng, n=12)
    graph = build_neighbor_graph(gset.centers, k=4, lambda_weight=0.0)
    curr = gset.copy()
    curr.centers = curr.centers * np.array([1.5, 1.0, 1.0])  # anisotropic stretch
    v, _ = rigidity_loss(gset, curr, graph)
    assert v > 1e-3


# ---------------------------------------------------------------------------
# hand-computed values


def test_rigidity_hand_value_translation_of_one_point():
    prev = GaussianSet(
        centers=np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]),
        orientations=np.tile([1.0, 0, 0, 0], (3, 1)),
        scales=np.full((3, 3), 0.01),
    )
    graph = build_neighbor_graph(prev.centers, k=1, lambda_weight=0.0)
    assert list(graph.indices.ravel()) == [1, 0, 1]
    curr = prev.copy()
    curr.centers = curr.centers.copy()
    curr.centers[1, 1] += 0.1
    # identity rotations: every edge touching point 1 changes by (0, 0.1, 0)
    v, _ = rigidity_loss(prev, curr, graph)
    np.testing.assert_allclose(v, 0.1, atol=1e-9)


def test_isometry_hand_value():
    f0 = GaussianSet(
        centers=np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]),
        orientations=np.tile([1.0, 0, 0, 0], (3, 1)),
        scales=np.full((3, 3), 0.01),
    )
    graph = build_neighbor_graph(f0.centers, k=1, lambda_weight=0.0)
    curr = f0.copy()
    curr.centers = curr.centers.copy()
    curr.centers[1, 1] += 0.1
    d01 = np.sqrt(1.0 + 0.01)
    d21 = np.sqrt(4.0 + 0.01)
    want = (abs(d01 - 1.0) + abs(d01 - 1.0) + abs(d21 - 2.0)) / 3.0
    v, _ = isometry_loss(curr, graph)
    np.testing.assert_allclose(v, want, atol=1e-12)


def test_rotation_hand_value_single_increment():
    prev = GaussianSet(
        centers=np.array([[0.0, 0, 0], [0.5, 0, 0]]),
        orientations=np.tile([1.0, 0, 0, 0], (2, 1)),
        scales=np.full((2, 3), 0.01),
    )
    graph = build_neighbor_graph(prev.centers, k=1, lambda_weight=0.0)
    theta = 0.2
    curr = prev.copy()
    curr.orientations = np.array(
        [[1.0, 0, 0, 0], [np.cos(theta / 2), 0, 0, np.sin(theta / 2)]]
    )
    # increments are identity vs z-rotation: |q1 - q0| = 2 sin(theta/4)
    v, _ = rotation_loss(prev, curr, graph)
    np.testing.assert_allclose(v, 2.0 * np.sin(theta / 4.0), atol=1e-9)


def test_scale_hinge_hand_value_and_gradient():
    gset = GaussianSet(
        centers=np.zeros((2, 3)),
        orientations=np.tile([1.0, 0, 0, 0], (2, 1)),
        scales=np.array([[0.03, 0.01, 0.05], [0.02, 0.02, 0.02]]),
    )
    v, g = scale_loss(gset, max_scale=0.02)
    np.testing.assert_allclose(v, (0.01 + 0.03) / 2.0, atol=1e-15)
    np.testing.assert_allclose(g, [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]], atol=1e-15)
    with pytest.raises(ValueError, match="positive"):
        scale_loss(gset, max_scale=0.0)


def test_data_loss_correspondence_hand_value():
    gset = GaussianSet(
        centers=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
        orientations=np.tile([1.0, 0, 0, 0], (2, 1)),
        scales=np.full((2, 3), 0.01),
    )
    obs = DataObservation(
        points=np.array([[0.1, 0, 0], [1.0, 0.2, 0], [0.0, 0, 0]]),
        correspondence=np.array([0, 1, 0]),
    )
    v, g = data_loss(gset, obs)
    np.testing.assert_allclose(v, (0.01 + 0.04 + 0.0) / 3.0, atol=1e-12)
    # gradient of mean squared distance: 2/M * sum of (center - point)
    np.testing.assert_allclose(g["centers"][0], [2 * (0.0 - 0.1) / 3 + 0.0, 0, 0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_correspondence_node_is_its_six_node_chain_bit_for_bit(seed):
    """The one-node correspondence term gives its chain's value and gradient,
    bit for bit: repeated and unmatched Gaussians, any upstream weight."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    m = int(rng.integers(1, 3 * n + 2))
    gset = small_scene(rng, n=n, spread=rng.choice([1e-3, 1.0, 1e3]))
    obs = DataObservation(points=rng.normal(size=(m, 3)) * rng.choice([1e-3, 1.0, 1e3]),
                          correspondence=rng.integers(0, n, size=m))
    frame = FrameConstants(gset, obs, None, None)
    weight = rng.uniform(0.1, 3.0)
    got = []
    for term in (data_loss_t, matched_loss_chain_t):
        c = ad.leaf(gset.centers)
        value = term(c, frame)
        mul(value, weight).backward()
        got.append((value.value.tobytes(), c.grad.tobytes()))
    assert got[0] == got[1]


def _node_and_chain_bits(node, chain, array, weight):
    """(value bytes, gradient bytes) of node(leaf) and chain(leaf) on one
    array, each scaled by `weight` upstream as total_loss weights a term."""
    got = []
    for term in (node, chain):
        leaf = ad.leaf(array)
        value = term(leaf)
        mul(value, weight).backward()
        got.append((value.value.tobytes(), leaf.grad.tobytes()))
    return got


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_scale_node_is_its_four_node_chain_bit_for_bit(seed):
    """The one-node scale hinge gives the value and gradient of sub, relu,
    tsum and mul: scales below, at and above max_scale, any upstream weight,
    0 included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    max_scale = rng.choice([1e-3, 0.02, 1.0])
    scales = max_scale * rng.uniform(0.0, 2.0, size=(n, 3))
    scales[rng.random((n, 3)) < 0.2] = max_scale  # the kink: no gradient
    weight = rng.choice([0.0, rng.uniform(0.1, 3.0)])
    got = _node_and_chain_bits(lambda t: scale_loss_t(t, max_scale),
                               lambda t: scale_loss_chain_t(t, max_scale), scales, weight)
    assert got[0] == got[1]


def _chamfer_case(seed):
    """Gaussians and a scan for the Chamfer term: the clumped case (some
    Gaussians match many points, others none) or random sizes and scales."""
    rng = np.random.default_rng(seed)
    if seed % 3 == 0:
        gset, points = _clumped_scan(rng)
    else:
        n = int(rng.integers(1, 40))
        gset = small_scene(rng, n=n, spread=rng.choice([1e-3, 1.0, 1e3]))
        points = rng.normal(size=(int(rng.integers(1, 4 * n + 2)), 3)) * rng.choice([1e-3, 1.0])
    return gset, points, rng.choice([0.0, rng.uniform(0.1, 3.0)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_chamfer_node_is_its_twelve_node_chain_bit_for_bit(seed):
    """The one-node Chamfer term gives its twelve-node chain's value and
    gradient, bit for bit, Gaussians that no scan point matches included."""
    gset, points, weight = _chamfer_case(seed)
    frame = FrameConstants(gset, DataObservation(points=points), None, None)
    got = _node_and_chain_bits(lambda t: data_loss_t(t, frame),
                               lambda t: chamfer_loss_chain_t(t, frame), gset.centers, weight)
    assert got[0] == got[1]


def test_chamfer_cases_leave_gaussians_unmatched():
    """The clumped case of the test above has Gaussians no point matches."""
    gset, points, _ = _chamfer_case(0)
    nearest = np.argmin(np.sum((gset.centers[:, None] - points[None]) ** 2, axis=-1), axis=0)
    assert (np.bincount(nearest, minlength=gset.n) == 0).sum() >= 6


def test_data_loss_chamfer_convention():
    # one Gaussian at 0, one observed point at 1: both directions give 1.0
    # and the symmetric value is their mean
    gset = GaussianSet(
        centers=np.array([[0.0, 0.0, 0.0]]),
        orientations=np.array([[1.0, 0, 0, 0]]),
        scales=np.full((1, 3), 0.01),
    )
    obs = DataObservation(points=np.array([[1.0, 0.0, 0.0]]))
    v, _ = data_loss(gset, obs)
    np.testing.assert_allclose(v, 1.0, atol=1e-12)


def _clumped_scan(rng):
    """Gaussians and scan points where some Gaussians match many points and
    others, far from every point, match none."""
    near = rng.normal(size=(12, 3)) * 0.5
    far = rng.normal(size=(6, 3)) * 0.5 + np.array([6.0, 0.0, 0.0])
    centers = np.concatenate([near, far])
    clumps = near[:3, None, :] + rng.normal(size=(3, 40, 3)) * 0.05
    points = np.concatenate([clumps.reshape(-1, 3), rng.normal(size=(30, 3)) * 0.5])
    gset = GaussianSet(centers=centers, orientations=np.tile([1.0, 0, 0, 0], (18, 1)),
                       scales=np.full((18, 3), 0.01))
    return gset, points


def test_chamfer_matches_bruteforce_oracle():
    rng = np.random.default_rng(21)
    gset, points = _clumped_scan(rng)
    d2 = np.sum((gset.centers[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    counts = np.bincount(np.argmin(d2, axis=0), minlength=gset.n)
    assert (counts == 0).sum() >= 6 and counts.max() >= 30
    v, g = data_loss(gset, DataObservation(points=points))
    want_v, want_g = chamfer_loss(gset.centers, points)
    np.testing.assert_allclose(v, want_v, rtol=1e-12)
    np.testing.assert_allclose(g["centers"], want_g, rtol=1e-12,
                               atol=1e-12 * np.abs(want_g).max())


def test_loss_weights_reject_negative():
    # LossWeights checks nothing; its fields' rules are the weights rows of config.OPTIONS
    with pytest.raises(ConfigError, match="weights.w_rigid must be >= 0.0, got -0.1"):
        check_section("weights", {"w_rigid": -0.1}, "the config")


def test_data_observation_validation():
    with pytest.raises(ValueError, match="empty"):
        DataObservation(points=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="\\(M, 3\\)"):
        DataObservation(points=np.zeros((4, 2)))
    with pytest.raises(ValueError, match="one Gaussian index per point"):
        DataObservation(points=np.zeros((4, 3)), correspondence=np.zeros(3, dtype=int))
    pts = np.zeros((4, 3))
    pts[2, 1] = np.nan
    with pytest.raises(ValueError, match="points contain non-finite"):
        DataObservation(points=pts)
    with pytest.raises(ValueError, match="points contain non-finite"):
        DataObservation(points=np.full((2, 3), np.inf))
    with pytest.raises(ValueError, match="correspondence contains negative"):
        DataObservation(points=np.zeros((3, 3)), correspondence=np.array([0, -1, 2]))


# ---------------------------------------------------------------------------
# finite-difference gradients of the standalone wrappers


def _fd_check(value_fn, array, grad, probes, rng):
    flat = array.reshape(-1)
    idx = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
    for j in idx:
        orig = flat[j]
        flat[j] = orig + FD_EPS
        fp = value_fn()
        flat[j] = orig - FD_EPS
        fm = value_fn()
        flat[j] = orig
        num = (fp - fm) / (2 * FD_EPS)
        assert abs(grad.reshape(-1)[j] - num) < fd_tol(num)


def test_rigidity_gradient_matches_fd():
    rng = np.random.default_rng(6)
    prev = small_scene(rng, n=8)
    curr = small_scene(rng, n=8)
    graph = build_neighbor_graph(prev.centers, k=3, lambda_weight=1.0)
    _, grads = rigidity_loss(prev, curr, graph)
    _fd_check(lambda: rigidity_loss(prev, curr, graph)[0], curr.centers,
              grads["centers"], 8, rng)
    _fd_check(lambda: rigidity_loss(prev, curr, graph)[0], curr.orientations,
              grads["orientations"], 8, rng)


def test_isometry_gradient_matches_fd():
    rng = np.random.default_rng(7)
    f0 = small_scene(rng, n=8)
    curr = small_scene(rng, n=8)
    graph = build_neighbor_graph(f0.centers, k=3, lambda_weight=1.0)
    _, grads = isometry_loss(curr, graph)
    _fd_check(lambda: isometry_loss(curr, graph)[0], curr.centers,
              grads["centers"], 8, rng)


def test_rotation_gradient_matches_fd():
    rng = np.random.default_rng(8)
    prev = small_scene(rng, n=8)
    curr = small_scene(rng, n=8)
    graph = build_neighbor_graph(prev.centers, k=3, lambda_weight=1.0)
    _, grads = rotation_loss(prev, curr, graph)
    _fd_check(lambda: rotation_loss(prev, curr, graph)[0], curr.orientations,
              grads["orientations"], 8, rng)


def test_data_gradient_matches_fd_both_branches():
    rng = np.random.default_rng(9)
    gset = small_scene(rng, n=8)
    pts = rng.normal(size=(10, 3)) * 0.5
    matched = DataObservation(points=pts, correspondence=rng.integers(0, 8, size=10))
    _, grads = data_loss(gset, matched)
    _fd_check(lambda: data_loss(gset, matched)[0], gset.centers, grads["centers"], 8, rng)
    chamfer = DataObservation(points=pts)
    _, grads = data_loss(gset, chamfer)
    _fd_check(lambda: data_loss(gset, chamfer)[0], gset.centers, grads["centers"], 8, rng)


# ---------------------------------------------------------------------------
# the neighbour terms against their tape-chain oracles


def _neighbour_case(seed):
    """A random frame pair and graph for the neighbour terms: previous
    orientations far from the identity, repeated and self neighbour indices,
    and in some cases coincident or unmoved centers and q -> -q flips."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    k = int(rng.integers(1, min(8, n)))
    prev = small_scene(rng, n=n)
    idx = rng.integers(0, n, size=(n, k))
    centers = prev.centers + rng.normal(scale=0.1, size=(n, 3))
    if rng.random() < 0.4:  # some Gaussians sit on their first neighbour
        for i in rng.choice(n, size=n // 3, replace=False):
            prev.centers[i] = prev.centers[idx[i, 0]]
            centers[i] = centers[idx[i, 0]]
    if rng.random() < 0.3:  # some Gaussians do not move at all
        still = rng.random(n) < 0.5
        centers[still] = prev.centers[still]
    turn = geometry.quat_normalize(rng.normal(size=(n, 4)) * [4.0, 1.0, 1.0, 1.0])
    orientations = geometry.quat_multiply(turn, prev.orientations)
    if rng.random() < 0.5:  # q and -q are the same orientation
        orientations *= np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0)
    graph = NeighborGraph(centers=prev.centers, indices=idx,
                          weights=rng.uniform(0.05, 1.0, size=(n, k)))
    return prev, centers, orientations, graph


def _frame(prev, graph):
    return FrameConstants(prev, None, None, graph)


def _edges(centers_t, graph):
    """The centers' edges, which total_loss looks up for rigidity and isometry."""
    return ad.edge_values(centers_t.value, graph.index)


# term -> (shipped term, its chain), each called as (prev, centers, orientations, graph)
_TERMS_AND_CHAINS = {
    "rigidity": (lambda prev, c, q, graph: rigidity_loss_t(_frame(prev, graph), c, q,
                                                           _edges(c, graph)),
                 rigidity_loss_chain_t),
    "isometry": (lambda prev, c, q, graph: isometry_loss_t(c, graph, _edges(c, graph)),
                 lambda prev, c, q, graph: isometry_loss_chain_t(c, graph)),
    "rotation": (lambda prev, c, q, graph: rotation_loss_t(_frame(prev, graph), q),
                 lambda prev, c, q, graph: rotation_loss_chain_t(prev, q, graph)),
}


def _value_and_grads(fn, prev, centers, orientations, graph):
    c, q = ad.leaf(centers), ad.leaf(orientations)
    value = fn(prev, c, q, graph)
    value.backward()
    return float(value.value), (c.grad, q.grad)


@pytest.mark.parametrize("term", sorted(_TERMS_AND_CHAINS))
def test_neighbour_terms_match_their_tape_chains(term):
    """Values bit-equal, gradients to 1e-12 of their largest entry.

    Rigidity's value may differ in its last bits: its edges are predicted by
    a batched matmul, whose BLAS kernel sums each component's three products
    with fused multiply-adds, and the chain's einsum does not.
    """
    seen = {"coincident": 0, "repeated": 0, "flipped": 0}
    for seed in range(120):
        prev, centers, orientations, graph = _neighbour_case(seed)
        idx = graph.indices
        edges = np.linalg.norm(centers[idx] - centers[:, None], axis=-1)
        seen["coincident"] += np.any((edges < 1e-12) & (idx != np.arange(len(idx))[:, None]))
        ordered = np.sort(idx, axis=1)
        seen["repeated"] += np.any(ordered[:, 1:] == ordered[:, :-1])
        rel = geometry.quat_multiply(orientations, geometry.quat_conjugate(prev.orientations))
        seen["flipped"] += np.any(np.sum(rel[idx] * rel[:, None], axis=-1) < 0.0)

        (value, grads), (want, want_grads) = (
            _value_and_grads(fn, prev, centers, orientations, graph)
            for fn in _TERMS_AND_CHAINS[term])
        if term == "rigidity":
            assert abs(value - want) <= 4 * np.spacing(want), seed
        else:
            assert value == want, seed
        for g, w in zip(grads, want_grads):
            assert (g is None) == (w is None), seed
            if w is not None:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max(),
                                           err_msg=f"seed {seed}")
    assert min(seen.values()) > 0, seen


# term -> (shipped term, the short tape it replaced), called as above
_TERMS_AND_SHORT_TAPES = {
    "rigidity": (lambda prev, c, q, graph: rigidity_loss_t(_frame(prev, graph), c, q,
                                                           _edges(c, graph)),
                 lambda prev, c, q, graph: rigidity_loss_short_tape_t(_frame(prev, graph), c, q)),
    "isometry": (lambda prev, c, q, graph: isometry_loss_t(c, graph, _edges(c, graph)),
                 lambda prev, c, q, graph: isometry_loss_short_tape_t(c, graph)),
    "rotation": (lambda prev, c, q, graph: rotation_loss_t(_frame(prev, graph), q),
                 lambda prev, c, q, graph: rotation_loss_short_tape_t(_frame(prev, graph), q)),
}


@pytest.mark.parametrize("term", sorted(_TERMS_AND_SHORT_TAPES))
def test_one_node_terms_are_their_short_tapes_bit_for_bit(term):
    """Each neighbour term's one node computes its short tape's value and
    gradients op for op: bit-equal on coincident, repeated and flipped edges."""
    for seed in range(60):
        prev, centers, orientations, graph = _neighbour_case(seed)
        (value, grads), (want, want_grads) = (
            _value_and_grads(fn, prev, centers, orientations, graph)
            for fn in _TERMS_AND_SHORT_TAPES[term])
        assert value == want, seed
        for g, w in zip(grads, want_grads):
            assert (g is None) == (w is None), seed
            assert w is None or np.array_equal(g, w), seed


@pytest.mark.parametrize("term", ["rigidity", "isometry", "rotation"])
def test_one_node_term_vjp_matches_central_differences(term):
    """The closed-form VJP of each term's node, against central differences
    in the node's own inputs: centers and (not necessarily orthogonal)
    rotation matrices for rigidity, centers for isometry, quaternion
    increments for rotation."""
    rng = np.random.default_rng(30)
    prev = small_scene(rng, n=9)
    curr = small_scene(rng, n=9)
    graph = build_neighbor_graph(prev.centers, k=3, lambda_weight=1.0)
    frame = _frame(prev, graph)
    inputs = {
        "rigidity": [curr.centers, geometry.quat_to_matrix(curr.orientations)
                     + 0.1 * rng.normal(size=(9, 3, 3))],
        "isometry": [curr.centers],
        "rotation": [curr.orientations * 1.3],
    }[term]
    node = {
        "rigidity": lambda c, R: _rigidity_t(frame, c, R, _edges(c, graph)),
        "isometry": lambda c: isometry_loss_t(c, graph, _edges(c, graph)),
        "rotation": lambda r: _rotation_t(graph, r),
    }[term]
    leaves = [ad.leaf(a) for a in inputs]
    node(*leaves).backward()
    for array, leaf in zip(inputs, leaves):
        _fd_check(lambda: float(node(*map(ad.constant, inputs)).value), array, leaf.grad,
                  12, rng)


# ---------------------------------------------------------------------------
# the assembled objective


def test_total_loss_is_weighted_sum_and_matches_constant_forward():
    rng = np.random.default_rng(10)
    gset = small_scene(rng, n=20, spread=2.0)
    h = build_hierarchy(gset.centers, (2, 5), seed=0)
    casc = CascadeDeform(h, 20)
    casc.layers[0].translations += rng.normal(scale=0.05, size=(2, 3))
    casc.d_centers = rng.normal(scale=0.01, size=(20, 3))
    graph = build_neighbor_graph(gset.centers, k=4, scene_scale=2.0)
    obs = DataObservation(points=gset.centers + rng.normal(scale=0.02, size=(20, 3)),
                          correspondence=np.arange(20))
    weights = LossWeights()
    frame = FrameConstants(gset, obs, h, graph)
    total, comps, trace = total_loss(casc, frame, weights, max_scale=0.02)
    grads = casc.views(trace.grad)
    want = (
        weights.w_rigid * comps["rigidity"]
        + weights.w_iso * comps["isometry"]
        + weights.w_rot * comps["rotation"]
        + weights.w_scale * comps["scale"]
        + weights.w_data * comps["data"]
    )
    np.testing.assert_allclose(total, want, rtol=1e-12)
    assert set(grads) == {
        "layer0.rotations", "layer0.translations", "layer0.scale_dirs", "layer0.scale_biases",
        "layer1.rotations", "layer1.translations", "layer1.scale_dirs", "layer1.scale_biases",
        "d_centers", "d_rotations", "d_log_scales",
    }
    total_nog, comps_nog, trace_nog = total_loss(casc, frame, weights, max_scale=0.02,
                                                 with_grads=False)
    assert trace_nog.grad is None
    assert total_nog == total  # identical forward on constants vs leaves
    assert comps_nog == comps


@pytest.mark.parametrize("scan", [False, True], ids=["correspondences", "scan"])
@pytest.mark.parametrize("zero", [None, "w_rigid", "w_scale", "w_data"])
def test_total_loss_is_its_generic_chains_bit_for_bit(monkeypatch, scan, zero):
    """total_loss on the one-node scale term, Chamfer term, weighted total,
    centre path and scale delta gives the total, components and gradient that
    it gives on the chains they replaced (the per-layer cascade nodes and the
    generic ops), bit for bit, with any one weight 0 too."""
    rng = np.random.default_rng(16)
    gset = small_scene(rng, n=30, spread=2.0)
    gset.scales[::3] *= 3.0  # some above max_scale
    h = build_hierarchy(gset.centers, (2, 4, 8), seed=0)
    casc = CascadeDeform(h, 30)
    for layer in casc.layers:
        layer.translations = rng.normal(scale=0.05, size=layer.translations.shape)
        layer.scale_biases = rng.normal(scale=0.1, size=layer.scale_biases.shape)
    casc.d_centers = rng.normal(scale=0.01, size=(30, 3))
    casc.d_log_scales = rng.normal(scale=0.1, size=(30, 3))
    graph = build_neighbor_graph(gset.centers, k=4, scene_scale=2.0)
    points = (gset.centers[::2, None] + rng.normal(scale=0.05, size=(15, 6, 3))).reshape(-1, 3)
    obs = (DataObservation(points=points) if scan
           else DataObservation(points=gset.centers + 0.03, correspondence=np.arange(30)))
    weights = LossWeights(**({} if zero is None else {zero: 0.0}))

    def evaluate():
        total, comps, trace = total_loss(casc, FrameConstants(gset, obs, h, graph), weights,
                                         max_scale=0.02)
        return total, comps, trace.grad.tobytes()

    fused = evaluate()
    monkeypatch.setattr(losses, "scale_loss_t", scale_loss_chain_t)
    monkeypatch.setattr(losses, "data_loss_t", lambda c, frame, workers=1: (
        chamfer_loss_chain_t(c, frame, workers) if scan else matched_loss_chain_t(c, frame)))
    monkeypatch.setattr(losses, "_weighted_total_t", weighted_total_chain_t)
    monkeypatch.setattr(deform, "_cascade_t", cascade_chain_t)
    monkeypatch.setattr(deform, "_scaled_t", lambda s, d: mul(s, exp(d)))
    assert evaluate() == fused


def test_total_loss_gradient_spot_check_fd():
    # the cascade must be generic (every group perturbed): at configurations
    # where some neighborhood moves exactly rigidly, the isometry term sits on
    # its absval kink and finite differences straddle the subgradient
    rng = np.random.default_rng(11)
    gset = small_scene(rng, n=15, spread=2.0)
    h = build_hierarchy(gset.centers, (2, 4), seed=0)
    casc = CascadeDeform(h, 15)
    for layer in casc.layers:
        layer.rotations = layer.rotations + rng.normal(scale=0.1, size=layer.rotations.shape)
        layer.translations = rng.normal(scale=0.02, size=layer.translations.shape)
        layer.scale_dirs = rng.normal(scale=0.1, size=layer.scale_dirs.shape)
        layer.scale_biases = rng.normal(scale=0.1, size=layer.scale_biases.shape)
    casc.d_centers = rng.normal(scale=0.005, size=(15, 3))
    casc.d_log_scales = rng.normal(scale=0.05, size=(15, 3))
    graph = build_neighbor_graph(gset.centers, k=4, scene_scale=2.0)
    obs = DataObservation(points=gset.centers + 0.03, correspondence=np.arange(15))
    weights = LossWeights()
    frame = FrameConstants(gset, obs, h, graph)

    def value():
        return total_loss(casc, frame, weights, max_scale=0.02, with_grads=False)[0]

    grads = casc.views(total_loss(casc, frame, weights, max_scale=0.02)[2].grad)
    for name, array in (
        ("layer0.translations", casc.layers[0].translations),
        ("layer1.rotations", casc.layers[1].rotations),
        ("layer0.scale_biases", casc.layers[0].scale_biases),
        ("d_log_scales", casc.d_log_scales),
    ):
        _fd_check(value, array, grads[name], 4, rng)


@pytest.mark.parametrize("scan, nodes", [(False, 29), (True, 29)],
                         ids=["correspondences", "scan"])
def test_total_loss_tape_size(monkeypatch, scan, nodes):
    """One iteration's tape on a 3-layer cascade with covariance propagation;
    the count does not depend on N, so a regression in it shows here."""
    rng = np.random.default_rng(14)
    gset = small_scene(rng, n=30, spread=2.0)
    h = build_hierarchy(gset.centers, (2, 4, 8), seed=0)
    casc = CascadeDeform(h, 30)
    graph = build_neighbor_graph(gset.centers, k=4, scene_scale=2.0)
    points = gset.centers + rng.normal(scale=0.02, size=(30, 3))
    obs = DataObservation(points=points, correspondence=None if scan else np.arange(30))
    walks = record_walks(monkeypatch)
    total_loss(casc, FrameConstants(gset, obs, h, graph), LossWeights(), max_scale=0.02)
    assert [len(walk) for walk in walks] == [nodes]


def test_a_failed_evaluation_leaves_nothing_for_the_next_backward(monkeypatch):
    """An evaluation that raises inside the cascade (a degenerate layer makes
    the propagated covariance singular) leaves nodes that no later loss
    descends from: the next evaluation's backward walks exactly its own nodes
    and gives the gradient it gives when run alone, bit for bit."""
    rng = np.random.default_rng(15)
    gset = small_scene(rng, n=30, spread=2.0)
    h = build_hierarchy(gset.centers, (2, 4, 8), seed=0)
    graph = build_neighbor_graph(gset.centers, k=4, scene_scale=2.0)
    obs = DataObservation(points=gset.centers + rng.normal(scale=0.02, size=(30, 3)),
                          correspondence=np.arange(30))
    good = CascadeDeform(h, 30)
    good.layers[1].translations = rng.normal(scale=0.05, size=(4, 3))
    bad = CascadeDeform(h, 30)
    bad.layers[0].scale_biases[0] = -60.0  # sigma == 0: the map collapses
    walks = record_walks(monkeypatch)
    args = (FrameConstants(gset, obs, h, graph), LossWeights(), 0.02)
    alone = total_loss(good, *args)
    with pytest.raises(ValueError, match="positive definite"):
        total_loss(bad, *args)
    after = total_loss(good, *args)
    assert [len(walk) for walk in walks] == [29, 29]
    assert after[0] == alone[0] and after[1] == alone[1]
    assert np.array_equal(after[2].grad, alone[2].grad)


def test_zero_cascade_isometry_gradient_exactly_zero():
    """At the start of every fit the map is the identity, so frame-0 distances
    are reproduced bit-for-bit and the isometry subgradient must be 0, not
    floating-point sign noise."""
    rng = np.random.default_rng(12)
    gset = small_scene(rng, n=15, spread=2.0)
    h = build_hierarchy(gset.centers, (2, 4), seed=0)
    casc = CascadeDeform(h, 15)
    graph = build_neighbor_graph(gset.centers, k=4, scene_scale=2.0)
    obs = DataObservation(points=gset.centers.copy(), correspondence=np.arange(15))
    weights = LossWeights(w_rigid=0.0, w_rot=0.0, w_data=0.0)  # isolate isometry+scale
    _, comps, trace = total_loss(casc, FrameConstants(gset, obs, h, graph), weights,
                                 max_scale=1.0)
    grad = trace.grad
    assert comps["isometry"] == 0.0
    assert np.all(np.isfinite(grad))
    assert np.abs(grad).max() == 0.0


def test_rigid_motion_isometry_gradient_exactly_zero():
    """A rigid motion keeps every edge length up to rounding; the isometry
    subgradient must then be 0, not a sign taken from that rounding."""
    rng = np.random.default_rng(13)
    for offset in (0.0, 5.0):
        f0 = small_scene(rng, n=400, spread=1.0)
        f0.centers = f0.centers + offset
        graph = build_neighbor_graph(f0.centers, k=20)
        moved = rigid_move(f0, geometry.quat_normalize(rng.normal(size=4)), rng.normal(size=3))
        value, grads = isometry_loss(moved, graph)
        assert value < 1e-14
        assert np.abs(grads["centers"]).max() == 0.0
