"""Fused tape primitives: the quaternion kernels, safe_norm, and the cascade's
centre path and covariance nodes of `deform`.

Each quaternion kernel's forward is checked against its plain-numpy
counterpart in `geometry`, and each closed-form VJP against central finite
differences of the kernel's own forward, including every piecewise branch:
the four Shepperd branches and the hemisphere flip of mat_to_quat_t, and the
norm floors of quat_normalize_t and safe_norm. The multi-output cascade
nodes are checked the same way, with every output used and with one unused,
and the covariance node's forward against the op chain it replaced.
"""

import numpy as np
import pytest

import gscascade.autodiff as ad
from gscascade import geometry
from gscascade.deform import _SIGNED_PERMUTATIONS, _cascade_t, _covariance_t, _factored_t
from gscascade.tapemath import (mat_to_quat_t, quat_multiply_t, quat_normalize_t, quat_to_mat_t,
                                safe_norm)

from oracles import add, matmul_t, mul, safe_norm_chain_t, transpose_last2_t, tsum


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return g


def check_vjp(op, x, eps=1e-6, atol=1e-8):
    """Tape gradient of <W, op(x)> against finite differences, W random."""
    W = np.random.default_rng(x.size).normal(size=op(ad.constant(x)).shape)
    t = ad.leaf(x)
    tsum(mul(op(t), ad.constant(W))).backward()
    num = numeric_grad(lambda v: float(np.sum(W * op(ad.constant(v)).value)), x, eps)
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-6)
    return t.grad, W


def unit_quats(rng, n):
    return geometry.quat_normalize(rng.normal(size=(n, 4)))


def axis_angle_matrix(axis, angle):
    axis = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    q = np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])
    return geometry.quat_to_matrix(q)


# ---------------------------------------------------------------------------
# quat_to_mat_t


def test_quat_to_mat_matches_geometry():
    q = unit_quats(np.random.default_rng(0), 50)
    out = quat_to_mat_t(ad.constant(q))
    np.testing.assert_allclose(out.value, geometry.quat_to_matrix(q), atol=1e-15)
    assert out.value.shape == (50, 3, 3)


def test_quat_to_mat_vjp_matches_fd():
    rng = np.random.default_rng(1)
    check_vjp(quat_to_mat_t, unit_quats(rng, 6))
    # R(q) is a quadratic form, differentiable off the unit sphere too
    check_vjp(quat_to_mat_t, rng.normal(size=(2, 3, 4)))


# ---------------------------------------------------------------------------
# quat_multiply_t


def test_quat_multiply_matches_geometry():
    rng = np.random.default_rng(2)
    a, b = unit_quats(rng, 20), unit_quats(rng, 20)
    out = quat_multiply_t(ad.constant(a), ad.constant(b))
    np.testing.assert_array_equal(out.value, geometry.quat_multiply(a, b))


def test_quat_multiply_vjp_matches_fd_for_both_operands():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    check_vjp(lambda t: quat_multiply_t(t, ad.constant(b)), a)
    check_vjp(lambda t: quat_multiply_t(ad.constant(a), t), b)


def test_quat_multiply_constant_operand_gets_no_grad():
    rng = np.random.default_rng(4)
    a, b = ad.leaf(rng.normal(size=(5, 4))), ad.constant(rng.normal(size=(5, 4)))
    W = rng.normal(size=(5, 4))
    tsum(mul(quat_multiply_t(a, b), ad.constant(W))).backward()
    assert b.grad is None
    # grad_a = W * conj(b) for any b, unit or not
    np.testing.assert_allclose(a.grad, geometry.quat_multiply(W, geometry.quat_conjugate(b.value)),
                               atol=1e-14)


# ---------------------------------------------------------------------------
# quat_normalize_t


def test_quat_normalize_matches_geometry_and_fd():
    q = np.random.default_rng(6).normal(size=(8, 4)) * 3.0
    np.testing.assert_allclose(quat_normalize_t(ad.constant(q)).value,
                               geometry.quat_normalize(q), atol=1e-15)
    check_vjp(quat_normalize_t, q)


def test_quat_normalize_below_floor_divides_by_the_floor():
    rng = np.random.default_rng(7)
    q = np.stack([rng.normal(size=4) * 1e-14, rng.normal(size=4)])  # row 0 below 1e-12
    out = quat_normalize_t(ad.constant(q)).value
    np.testing.assert_allclose(out[0], q[0] / 1e-12, rtol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(out[1]), 1.0, rtol=1e-15)
    # below the floor the norm is a constant: the map is linear there
    grad, W = check_vjp(quat_normalize_t, q[:1], eps=1e-16, atol=1e-6)
    np.testing.assert_allclose(grad, W / 1e-12, rtol=1e-12)
    # and a row below the floor leaves its batch neighbours' gradients alone
    t = ad.leaf(q)
    W = np.random.default_rng(8).normal(size=q.shape)
    tsum(mul(quat_normalize_t(t), ad.constant(W))).backward()
    np.testing.assert_allclose(t.grad[0], W[0] / 1e-12, rtol=1e-12)
    u = q[1] / np.linalg.norm(q[1])
    np.testing.assert_allclose(t.grad[1], (W[1] - u * (u @ W[1])) / np.linalg.norm(q[1]),
                               atol=1e-15)


# ---------------------------------------------------------------------------
# mat_to_quat_t

_E = np.eye(3)
# (rotation, Shepperd branch it selects, whether the hemisphere flip fires)
_BRANCH_CASES = {
    "trace": (axis_angle_matrix([0.3, -0.5, 0.8], 0.7), 0, False),
    "r00": (axis_angle_matrix(_E[0] + [0.0, 0.2, -0.1], 2.8), 1, False),
    "r11": (axis_angle_matrix(_E[1] + [0.15, 0.0, 0.2], 2.8), 2, False),
    "r22": (axis_angle_matrix(_E[2] + [-0.2, 0.1, 0.0], 2.8), 3, False),
    "r00_flip": (axis_angle_matrix(-_E[0] + [0.0, 0.2, -0.1], 2.8), 1, True),
    "r11_flip": (axis_angle_matrix(-_E[1] + [0.15, 0.0, 0.2], 2.8), 2, True),
    "r22_flip": (axis_angle_matrix(-_E[2] + [-0.2, 0.1, 0.0], 2.8), 3, True),
}


@pytest.mark.parametrize("case", sorted(_BRANCH_CASES))
def test_mat_to_quat_branches_match_geometry_and_fd(case):
    R, branch, flips = _BRANCH_CASES[case]
    scores = [np.trace(R), R[0, 0], R[1, 1], R[2, 2]]
    assert int(np.argmax(scores)) == branch
    q = mat_to_quat_t(ad.constant(R)).value
    np.testing.assert_array_equal(q, geometry.matrix_to_quat(R))
    assert q[0] > 0.0
    # Shepperd's dominant component comes out positive unless the w >= 0
    # hemisphere flipped the whole quaternion
    assert (q[branch] < 0.0) == flips
    check_vjp(mat_to_quat_t, R)


def test_mat_to_quat_batch_mixes_branches():
    Rs = np.stack([case[0] for case in _BRANCH_CASES.values()])
    q = mat_to_quat_t(ad.constant(Rs)).value
    np.testing.assert_array_equal(q, geometry.matrix_to_quat(Rs))
    check_vjp(mat_to_quat_t, Rs)


def test_mat_to_quat_inverts_quat_to_mat_on_the_tape():
    q = unit_quats(np.random.default_rng(8), 30)
    q = np.where(q[:, :1] < 0.0, -q, q)
    np.testing.assert_allclose(mat_to_quat_t(quat_to_mat_t(ad.constant(q))).value, q, atol=1e-14)
    check_vjp(lambda t: mat_to_quat_t(quat_to_mat_t(t)), q[:5])


# ---------------------------------------------------------------------------
# safe_norm


def test_safe_norm_is_one_node_equal_to_the_chain_and_fd():
    x = np.random.default_rng(9).normal(size=(5, 3, 4))
    t = ad.leaf(x)
    out = safe_norm(t)
    assert out._parents == (t,)
    np.testing.assert_array_equal(out.value, np.sqrt(np.sum(x * x, axis=-1)))
    W = np.random.default_rng(10).normal(size=out.shape)
    tsum(mul(out, ad.constant(W))).backward()
    chain = ad.leaf(x)
    tsum(mul(safe_norm_chain_t(chain), ad.constant(W))).backward()
    np.testing.assert_array_equal(t.grad, chain.grad)
    check_vjp(safe_norm, x)


def test_safe_norm_below_the_floor_is_the_floor_with_zero_gradient():
    rng = np.random.default_rng(11)
    x = np.stack([np.zeros(3), rng.normal(size=3) * 1e-14, rng.normal(size=3)])
    t = ad.leaf(x)
    out = safe_norm(t)
    np.testing.assert_array_equal(out.value[:2], [1e-12, 1e-12])
    W = rng.normal(size=3)
    tsum(mul(out, ad.constant(W))).backward()
    np.testing.assert_array_equal(t.grad[:2], np.zeros((2, 3)))
    np.testing.assert_allclose(t.grad[2], W[2] * x[2] / np.linalg.norm(x[2]), rtol=1e-15)
    # the rows above the floor match finite differences; the norm is flat below
    check_vjp(safe_norm, x[2:])
    check_vjp(safe_norm, x[1:2], eps=1e-16, atol=1e-6)


# ---------------------------------------------------------------------------
# the cascade's layer and covariance nodes


def check_multi_vjp(node, inputs, used, eps=1e-6, atol=1e-7):
    """Tape gradients of sum_k <W_k, out_k> over the `used` outputs of `node`
    against central finite differences, input by input."""
    outs = node(*(ad.constant(v) for v in inputs))
    rng = np.random.default_rng(len(inputs))
    W = [rng.normal(size=o.shape) for o in outs]

    def value(*vals, taped=False):
        outs = node(*vals)
        terms = [tsum(mul(o, ad.constant(w))) for o, w, u in zip(outs, W, used) if u]
        total = terms[0]
        for term in terms[1:]:
            total = add(total, term)
        return total if taped else float(total.value)

    leaves = [ad.leaf(v) for v in inputs]
    value(*leaves, taped=True).backward()
    for i, (t, v) in enumerate(zip(leaves, inputs)):
        def moved(x, i=i):
            return value(*(ad.constant(x if j == i else u) for j, u in enumerate(inputs)))

        num = numeric_grad(moved, v.copy(), eps)
        got = np.zeros_like(v) if t.grad is None else t.grad
        np.testing.assert_allclose(got, num, atol=atol, rtol=1e-6)


def centre_path_case(rng, layers):
    """Inputs (R, t, c, s, d_centers) of the centre path on `layers` layers of
    2, 3 and 4 clusters, every cluster with a member, with its constants."""
    n, sizes = 7, (2, 3, 4)[:layers]
    starts = np.cumsum((0,) + sizes)
    cids = []
    for size, start in zip(sizes, starts):
        cid = rng.integers(0, size, size=n)
        cid[:size] = np.arange(size)
        cids.append(cid + start)
    rows = int(starts[-1])
    inputs = [np.array([axis_angle_matrix(rng.normal(size=3), a) for a in rng.normal(size=rows)]),
              0.2 * rng.normal(size=(rows, 3)), 0.8 * rng.normal(size=(rows, 3)),
              0.3 * rng.normal(size=rows), 0.1 * rng.normal(size=(n, 3))]
    centroids = [rng.normal(size=(n, 3)) for _ in sizes]
    return inputs, rng.normal(size=(n, 3)), ad.RowIndex(np.stack(cids), rows), centroids


@pytest.mark.parametrize("layers", [1, 3], ids=["first-layer", "inner-layer"])
@pytest.mark.parametrize("used", [(True, True), (True, False), (False, True)],
                         ids=["both", "x-only", "J-only"])
def test_cascade_layer_vjp_matches_fd(layers, used):
    """The centre path's VJP w.r.t. R, t, c, s and d_centers: on one layer,
    which has no J or x input, and on three, whose inner layers take both;
    with the centres and J used, the centres only and J only."""
    inputs, x, index, centroids = centre_path_case(np.random.default_rng(20 + layers), layers)

    def node(R, t, c, s, d_centers):
        return _cascade_t(x, R, t, c, s, d_centers, index, centroids)[:2]

    check_multi_vjp(node, inputs, used)


def _rotations(rng, n):
    return geometry.quat_to_matrix(unit_quats(rng, n))


def test_covariance_node_vjp_matches_fd():
    rng = np.random.default_rng(23)
    J = np.eye(3) + 0.4 * rng.normal(size=(5, 3, 3))
    A0 = _rotations(rng, 5) * rng.uniform(0.5, 2.0, size=(5, 1, 3))
    Q = _rotations(rng, 5)
    check_multi_vjp(lambda t: (_covariance_t(t, A0, Q)[0],), [J], (True,))


def test_covariance_node_forward_is_the_op_chain_bit_for_bit():
    """A = J A0, M = A A^T and B = (Q^T M) Q, each symmetrized, exactly as the
    generic matmul, transpose and mul nodes compute them."""
    rng = np.random.default_rng(24)
    J = np.eye(3) + 0.4 * rng.normal(size=(200, 3, 3))
    A0 = _rotations(rng, 200) * rng.uniform(1e-3, 2.0, size=(200, 1, 3))
    Q = _rotations(rng, 200)
    A = matmul_t(ad.constant(J), ad.constant(A0))
    M = matmul_t(A, transpose_last2_t(A))
    M = mul(add(M, transpose_last2_t(M)), 0.5)
    B = matmul_t(matmul_t(ad.constant(np.swapaxes(Q, -1, -2)), M), ad.constant(Q))
    B = mul(add(B, transpose_last2_t(B)), 0.5)
    got_B, got_M = _covariance_t(ad.constant(J), A0, Q)
    assert np.array_equal(got_M, M.value)
    assert np.array_equal(got_B.value, B.value)


@pytest.mark.parametrize("used", [(True, True), (True, False), (False, True)],
                         ids=["both", "rotation-only", "scales-only"])
def test_factored_node_vjp_matches_fd(used):
    rng = np.random.default_rng(25)
    w = rng.uniform(0.5, 3.0, size=(5, 3))
    V = _rotations(rng, 5)
    Q = _rotations(rng, 5)
    P = _SIGNED_PERMUTATIONS[rng.integers(0, 24, size=5)]

    def node(evals, evecs):
        return _factored_t(evals, evecs, Q, P)

    check_multi_vjp(node, [w, V], used)
