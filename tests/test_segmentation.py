"""Motion segmentation, the rand-index implementation, and rigidity checks.

The ARI oracle is an independent O(n^2) pair-counting implementation
(agreements over pairs, Hubert-Arabie form); the segmentation oracle is the
generator's part labels on trajectories built from exact ground truth.
"""

import numpy as np
import pytest

from gscascade import geometry
from gscascade.core import GaussianSet
from gscascade.scenegen import SceneSpec, generate
from gscascade.segmentation import (
    FEATURE_WIDTH,
    adjusted_rand_index,
    build_features,
    procrustes_rotation,
    segment,
)
from oracles import distance_entries, fitted_subpart_check, rigid_subpart_rotation_check


def pair_count_ari(a, b):
    """O(n^2) oracle: ARI = 2(n11 n00 - n10 n01) / ((n11+n10)(n10+n00) + (n11+n01)(n01+n00))."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa and not sb:
                n10 += 1
            elif not sa and sb:
                n01 += 1
            else:
                n00 += 1
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def gt_trajectory(seq):
    """GaussianSets along the exact ground truth (centers + part rotations)."""
    sets = []
    for t in range(seq.n_frames):
        sets.append(
            GaussianSet(
                centers=seq.gt_centers[t],
                orientations=seq.part_quats[t][seq.part_labels],
                scales=seq.frame0.scales,
                frame_index=t,
            )
        )
    return sets


# ---------------------------------------------------------------------------
# adjusted rand index


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        a = rng.integers(0, int(rng.integers(2, 6)), size=n)
        b = rng.integers(0, int(rng.integers(2, 6)), size=n)
        np.testing.assert_allclose(
            adjusted_rand_index(a, b), pair_count_ari(a, b), atol=1e-12
        )


def test_ari_perfect_agreement_is_label_permutation_invariant():
    labels = np.array([0, 0, 1, 1, 2, 2, 2])
    renamed = np.array([5, 5, 9, 9, 1, 1, 1])
    assert adjusted_rand_index(labels, renamed) == pytest.approx(1.0)


def test_ari_single_cluster_against_itself():
    assert adjusted_rand_index(np.zeros(10), np.full(10, 3)) == pytest.approx(1.0)


def test_ari_independent_labelings_near_zero():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, size=400)
    b = rng.integers(0, 4, size=400)
    assert abs(adjusted_rand_index(a, b)) < 0.05


def test_ari_disagreement_is_low():
    a = np.array([0] * 10 + [1] * 10)
    b = np.array(([0, 1] * 10))  # alternating: orthogonal to the block split
    assert adjusted_rand_index(a, b) < 0.1


def test_ari_rejects_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        adjusted_rand_index(np.zeros(4), np.zeros(5))


# ---------------------------------------------------------------------------
# features


def test_build_features_shape_and_blocks():
    rng = np.random.default_rng(2)
    sets = []
    for t in range(3):
        sets.append(
            GaussianSet(
                centers=rng.normal(size=(7, 3)),
                orientations=rng.normal(size=(7, 4)),
                scales=np.full((7, 3), 0.01),
                frame_index=t,
            )
        )
    f = build_features(sets)
    assert f.shape == (7, 3, FEATURE_WIDTH)
    np.testing.assert_allclose(f[:, 1, 0:3], sets[1].centers)
    R1 = geometry.quat_to_matrix(sets[1].orientations).reshape(7, 9)
    np.testing.assert_allclose(f[:, 1, 3:12], R1)
    # the frame-0 anchor block repeats at every t
    np.testing.assert_allclose(f[:, 0, 12:15], sets[0].centers)
    np.testing.assert_allclose(f[:, 2, 12:15], sets[0].centers)
    # lambda weights scale their blocks
    f2 = build_features(sets, lambda_p=2.0, lambda_r=0.5, lambda_p0=3.0)
    np.testing.assert_allclose(f2[:, 1, 0:3], 2.0 * f[:, 1, 0:3])
    np.testing.assert_allclose(f2[:, 1, 3:12], 0.5 * f[:, 1, 3:12])
    np.testing.assert_allclose(f2[:, 1, 12:15], 3.0 * f[:, 1, 12:15])


def test_build_features_validation():
    gset = GaussianSet(
        centers=np.zeros((5, 3)),
        orientations=np.tile([1.0, 0, 0, 0], (5, 1)),
        scales=np.full((5, 3), 0.01),
    )
    with pytest.raises(ValueError, match="at least 2 frames"):
        build_features([gset])
    other = GaussianSet(
        centers=np.zeros((6, 3)),
        orientations=np.tile([1.0, 0, 0, 0], (6, 1)),
        scales=np.full((6, 3), 0.01),
    )
    with pytest.raises(ValueError, match="count changed"):
        build_features([gset, other])


# ---------------------------------------------------------------------------
# segmentation on exact trajectories


def test_segment_recovers_two_blobs_exactly():
    seq = generate(SceneSpec(kind="two_blobs", n_gaussians=60, n_frames=5))
    labels = segment(build_features(gt_trajectory(seq)), k_parts=2, seed=0)
    assert adjusted_rand_index(labels, seq.part_labels) == pytest.approx(1.0)


def test_segment_separates_wheel_from_stand():
    seq = generate(SceneSpec(kind="wheel", n_gaussians=80, n_frames=5))
    labels = segment(build_features(gt_trajectory(seq)), k_parts=2, seed=0)
    assert adjusted_rand_index(labels, seq.part_labels) >= 0.95


def test_segment_distance_work_stays_within_its_measured_count():
    """k-means at D = 75 on the pendulum's motion (N = 600, 5 frames, 2
    parts) computes 1,438 squared distances, where the plain Lloyd loop
    computed 8 whole grids, 9,600. The count is exact: a change that moves
    it, or computes entries that the count does not see, fails here."""
    feats = build_features(gt_trajectory(generate(SceneSpec("pendulum", n_gaussians=600,
                                                            n_frames=5, seed=0))))
    assert distance_entries(lambda: segment(feats, 2, seed=0)) == 1_438


def test_segment_k1_and_validation():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(10, 3, FEATURE_WIDTH))
    labels = segment(feats, k_parts=1)
    assert np.all(labels == labels[0])
    # k-means' own checks of k
    with pytest.raises(ValueError, match="k must be >= 1"):
        segment(feats, k_parts=0)
    with pytest.raises(ValueError, match="k=11 exceeds number of points"):
        segment(feats, k_parts=11)


def test_segment_is_deterministic_in_seed():
    seq = generate(SceneSpec(kind="two_blobs", n_gaussians=40, n_frames=4))
    f = build_features(gt_trajectory(seq))
    assert np.array_equal(segment(f, 2, seed=7), segment(f, 2, seed=7))


# ---------------------------------------------------------------------------
# Procrustes rotation


def test_procrustes_recovers_random_rotations():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = rng.normal(size=(12, 3))
        q = geometry.quat_normalize(rng.normal(size=4))
        R = geometry.quat_to_matrix(q)
        moved = pts @ R.T + rng.normal(size=3)
        got = procrustes_rotation(pts, moved)
        assert np.abs(got - R).max() < 1e-9
        assert np.linalg.det(got) == pytest.approx(1.0)


def test_procrustes_rejects_degenerate_inputs():
    line = np.outer(np.linspace(0.0, 1.0, 8), [1.0, 2.0, -0.5])
    with pytest.raises(ValueError, match="collinear"):
        procrustes_rotation(line, line)
    with pytest.raises(ValueError, match="at least 3"):
        procrustes_rotation(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(M, 3\)"):
        procrustes_rotation(np.zeros((5, 2)), np.zeros((5, 2)))


def test_procrustes_never_returns_reflection():
    # mirrored target: the best orthogonal map is a reflection, but the
    # constrained solution must stay a proper rotation
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(10, 3))
    mirrored = pts * np.array([-1.0, 1.0, 1.0])
    got = procrustes_rotation(pts, mirrored)
    assert np.linalg.det(got) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the sub-part rigidity property


def test_rigid_subparts_always_agree_100_random_motions():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(4, 12)), 3))
        b = rng.normal(size=(int(rng.integers(4, 12)), 3)) + rng.normal(size=3)
        q = geometry.quat_normalize(rng.normal(size=4))
        t = rng.normal(size=3)
        assert rigid_subpart_rotation_check(a, b, q, t, tol=1e-7)


def test_rigid_subpart_accepts_matrix_rotation():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(6, 3))
    R = geometry.quat_to_matrix(geometry.quat_normalize(rng.normal(size=4)))
    assert rigid_subpart_rotation_check(a, b, R)


def test_fitted_subpart_check_exact_rigid_true():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(16, 3))
    q = geometry.quat_normalize(np.array([0.8, 0.1, -0.5, 0.2]))
    moved = pts @ geometry.quat_to_matrix(q).T + np.array([0.2, 0.0, -0.1])
    split = np.zeros(16, dtype=bool)
    split[:7] = True
    assert fitted_subpart_check(pts, moved, split)


def test_fitted_subpart_check_detects_articulation():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(16, 3))
    split = np.zeros(16, dtype=bool)
    split[:8] = True
    qa = geometry.quat_normalize(np.array([0.9, 0.3, 0.0, 0.0]))
    qb = geometry.quat_normalize(np.array([0.9, 0.0, 0.3, 0.0]))
    moved = pts.copy()
    moved[split] = pts[split] @ geometry.quat_to_matrix(qa).T
    moved[~split] = pts[~split] @ geometry.quat_to_matrix(qb).T + 0.5
    assert not fitted_subpart_check(pts, moved, split)


def test_fitted_subpart_check_rejects_noisy_rigid_at_tight_tol():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(20, 3))
    q = geometry.quat_normalize(np.array([0.7, 0.4, -0.2, 0.5]))
    moved = pts @ geometry.quat_to_matrix(q).T + rng.normal(scale=0.05, size=(20, 3))
    split = np.zeros(20, dtype=bool)
    split[::2] = True
    assert not fitted_subpart_check(pts, moved, split, tol=1e-7)
    # but passes with a tolerance looser than the noise-induced wobble
    assert fitted_subpart_check(pts, moved, split, tol=1.0)
