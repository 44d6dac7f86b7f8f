"""Quaternion/rotation/covariance utilities against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscascade import geometry as geo
from oracles import normalize_sum_last, polar_rotation, quat_distance

HALF_SQRT2 = np.sqrt(0.5)


def random_unit_quats(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def test_quat_normalize_unit_norm():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(50, 4)) * 3.0
    u = geo.quat_normalize(q)
    np.testing.assert_allclose(np.linalg.norm(u, axis=-1), 1.0, atol=1e-12)


def test_normalize_is_the_floored_norm_with_the_bits_of_its_own_sum():
    """5,000 rows, among them zero rows, rows below and at the norm floor and
    rows of huge and tiny components: `_normalize`'s 1/norm and mask are
    `floored_norm`'s, and both are the bits of a sum over np.sum's order."""
    rng = np.random.default_rng(7)
    q = rng.normal(size=(5000, 4)) * 10.0 ** rng.integers(-14, 14, size=(5000, 1))
    q[:100] = 0.0
    q[100:200] *= 1e-13 / np.linalg.norm(q[100:200], axis=-1, keepdims=True)
    q[200:300] = [geo._NORM_FLOOR, 0.0, 0.0, 0.0]
    q[300:400] = [-1e-300, 1e-300, 0.0, -0.0]
    unit, inv, above = geo._normalize(q)
    norm, mask = geo.floored_norm(q)
    assert (1.0 / norm).tobytes() == inv.tobytes() and np.array_equal(mask, above)
    want_unit, want_inv, want_above = normalize_sum_last(q)
    assert inv.tobytes() == want_inv.tobytes() and np.array_equal(above, want_above)
    assert unit.tobytes() == want_unit.tobytes()
    assert 0 < above.sum() < len(q) - 300


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        geo.quat_normalize(np.zeros(4))


def test_quat_to_matrix_known_values():
    # identity
    np.testing.assert_allclose(geo.quat_to_matrix(np.array([1.0, 0, 0, 0])), np.eye(3))
    # 90 deg about z maps x -> y
    qz = np.array([HALF_SQRT2, 0.0, 0.0, HALF_SQRT2])
    R = geo.quat_to_matrix(qz)
    np.testing.assert_allclose(R @ [1.0, 0, 0], [0.0, 1.0, 0.0], atol=1e-12)
    # 90 deg about x maps y -> z
    qx = np.array([HALF_SQRT2, HALF_SQRT2, 0.0, 0.0])
    np.testing.assert_allclose(geo.quat_to_matrix(qx) @ [0, 1.0, 0], [0, 0, 1.0], atol=1e-12)


def test_quat_to_matrix_is_rotation():
    rng = np.random.default_rng(1)
    q = random_unit_quats(rng, 100)
    R = geo.quat_to_matrix(q)
    np.testing.assert_allclose(
        np.einsum("nij,nik->njk", R, R), np.broadcast_to(np.eye(3), R.shape), atol=1e-12
    )
    np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_matrix_to_quat_roundtrip_all_branches():
    # force each Shepperd branch with rotations near 0 and near pi about each axis
    angles = [1e-3, np.pi - 1e-3, 2.1, 0.5]
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 1.0] / np.sqrt(3)])
    for ang in angles:
        for ax in axes:
            q = np.concatenate([[np.cos(ang / 2)], np.sin(ang / 2) * ax])
            R = geo.quat_to_matrix(q)
            q2 = geo.matrix_to_quat(R)
            # same rotation up to sign; w kept non-negative
            assert q2[0] >= 0.0
            assert min(np.abs(q2 - q).max(), np.abs(q2 + q).max()) < 1e-10


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(2)
    qa, qb = random_unit_quats(rng, 30), random_unit_quats(rng, 30)
    left = geo.quat_to_matrix(geo.quat_multiply(qa, qb))
    right = geo.quat_to_matrix(qa) @ geo.quat_to_matrix(qb)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_quat_inverse_conjugate():
    rng = np.random.default_rng(4)
    q = random_unit_quats(rng, 20)
    ident = geo.quat_multiply(q, geo.quat_inverse(q))
    np.testing.assert_allclose(np.abs(ident[:, 0]), 1.0, atol=1e-12)
    np.testing.assert_allclose(ident[:, 1:], 0.0, atol=1e-12)


def test_quat_distance_sign_invariant():
    rng = np.random.default_rng(5)
    q = random_unit_quats(rng, 20)
    np.testing.assert_allclose(quat_distance(q, -q), 0.0, atol=1e-12)
    assert np.all(quat_distance(q, np.roll(q, 1, axis=0)) >= 0.0)


def test_rotation_angle_known():
    ang = 0.7
    q = np.array([np.cos(ang / 2), np.sin(ang / 2), 0.0, 0.0])
    assert abs(geo.rotation_angle(q) - ang) < 1e-12
    assert abs(geo.rotation_angle(-q) - ang) < 1e-12  # hemisphere invariant


def test_relative_rotation_angle():
    a = np.array([np.cos(0.2), np.sin(0.2), 0.0, 0.0])
    b = np.array([np.cos(0.45), np.sin(0.45), 0.0, 0.0])
    assert abs(geo.relative_rotation_angle(a[None], b[None])[0] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# covariance compose / decompose


def test_compose_covariance_oracle():
    rng = np.random.default_rng(6)
    q = random_unit_quats(rng, 40)
    s = rng.uniform(0.01, 0.1, size=(40, 3))
    cov = geo.compose_covariance(q, s)
    R = geo.quat_to_matrix(q)
    ref = np.einsum("nij,nj,nkj->nik", R, s**2, R)
    np.testing.assert_allclose(cov, ref, atol=1e-15)


def test_compose_covariance_exactly_symmetric():
    rng = np.random.default_rng(7)
    q = random_unit_quats(rng, 500)
    s = rng.uniform(1e-4, 10.0, size=(500, 3))
    cov = geo.compose_covariance(q, s)
    assert np.array_equal(cov, np.swapaxes(cov, -1, -2))


def test_compose_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        geo.compose_covariance(np.array([1.0, 0, 0, 0]), np.array([0.1, 0.0, 0.1]))


def test_decompose_compose_roundtrip():
    rng = np.random.default_rng(8)
    q = random_unit_quats(rng, 200)
    s = rng.uniform(0.005, 0.05, size=(200, 3))
    cov = geo.compose_covariance(q, s)
    q2, s2 = geo.decompose_covariance(cov)
    cov2 = geo.compose_covariance(q2, s2)
    assert np.max(np.linalg.norm(cov - cov2, axis=(-2, -1))) < 1e-7
    assert np.all(s2 > 0)
    np.testing.assert_allclose(np.sort(s2, axis=-1), np.sort(s, axis=-1), atol=1e-9)


def test_decompose_rejects_asymmetric():
    bad = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        geo.decompose_covariance(bad)


def test_decompose_rejects_non_pd():
    q = np.array([1.0, 0, 0, 0])
    cov = geo.compose_covariance(q, np.array([0.1, 0.1, 0.1]))
    cov = cov - 0.02 * np.eye(3)  # now indefinite
    with pytest.raises(ValueError):
        geo.decompose_covariance(cov)


def test_decompose_rejects_an_eigenvalue_at_the_floor():
    """The floor itself is not positive enough; the next float above it is."""
    with pytest.raises(ValueError, match="not positive definite"):
        geo.decompose_covariance(np.diag([geo._PD_FLOOR, 1.0, 2.0]))
    _, scales = geo.decompose_covariance(np.diag([np.nextafter(geo._PD_FLOOR, 1.0), 1.0, 2.0]))
    assert scales[-1] == np.sqrt(np.nextafter(geo._PD_FLOOR, 1.0))


def test_decompose_rejects_a_covariance_the_solver_does_not_converge_on():
    """A NaN covariance passes the symmetry and eigenvalue checks (NaN > tol
    and NaN <= floor are False); the solver's report rejects it."""
    cov = geo.compose_covariance(np.array([1.0, 0, 0, 0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="did not converge"):
        geo.decompose_covariance(np.stack([cov, np.full((3, 3), np.nan)]))


@pytest.mark.parametrize("p, q", [(0, 1), (0, 2), (1, 2)])
def test_jacobi_rotates_a_lone_off_diagonal_pair_above_the_tolerance(p, q):
    """diag(1, 2, 3) with one pair of entries 1e-7: a residual about 270 times
    the convergence threshold, whose square cubed instead would fall below it.
    The solver must rotate the pair away, wherever it stands."""
    S = np.diag([1.0, 2.0, 3.0])
    S[p, q] = S[q, p] = 1e-7
    _, V, converged = geo.jacobi_eigh3(S)
    off = np.linalg.norm((V.T @ S @ V)[~np.eye(3, dtype=bool)])
    assert converged and off <= geo.eigh3_offdiag_tol * np.linalg.norm(S)


def test_polar_rotation_of_rotation_is_itself():
    rng = np.random.default_rng(9)
    q = random_unit_quats(rng, 20)
    R = geo.quat_to_matrix(q)
    np.testing.assert_allclose(polar_rotation(R), R, atol=1e-12)


def test_polar_rotation_strips_stretch():
    rng = np.random.default_rng(10)
    q = random_unit_quats(rng, 20)
    R = geo.quat_to_matrix(q)
    S = rng.uniform(0.5, 2.0, size=(20, 3))
    A = R * S[:, None, :]  # R diag(S)
    np.testing.assert_allclose(polar_rotation(A), R, atol=1e-10)


def test_polar_rotation_fixes_reflection():
    A = np.diag([1.0, 1.0, -1.0])
    R = polar_rotation(A)
    assert np.linalg.det(R) > 0.999


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    q = random_unit_quats(rng, 5)
    s = rng.uniform(1e-3, 1.0, size=(5, 3))
    cov = geo.compose_covariance(q, s)
    q2, s2 = geo.decompose_covariance(cov)
    cov2 = geo.compose_covariance(q2, s2)
    scale = np.abs(cov).max()
    assert np.abs(cov - cov2).max() < 1e-7 * max(1.0, scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sum_last_is_numpy_sum_bit_for_bit(seed):
    """Short last axes, mixed magnitudes, overflow and zeros of both signs
    (an all -0.0 row sums to +0.0, as in np.sum), contiguous or not."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 8))
    shape = tuple(int(d) for d in rng.integers(1, 30, size=rng.integers(1, 3))) + (width,)
    x = rng.normal(size=shape) * rng.choice([1e-300, 1e-8, 1.0, 1e8, 1e300], size=shape)
    r = rng.uniform(size=shape)
    x[r < 0.3] = 0.0
    x[r > 0.7] = -0.0
    for a in (x, np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 0, -1)), 0, -1)):
        with np.errstate(over="ignore"):
            assert geo.sum_last(a).tobytes() == a.sum(axis=-1).tobytes()
