"""Gradient checks for the reverse-mode tape.

The tape mechanics (shared subexpressions, accumulation, records per graph)
are checked on the generic broadcasting ops of `tests/oracles.py`, which the
shipped code no longer uses but the chain oracles still build on. Every
primitive is checked against central finite differences on random inputs; the batched 3x3 eigensolver is additionally checked against
numpy.linalg.eigh as an independent oracle, and its one-node adjoint against
the two-node form it replaced. A RowIndex's sparse scatter is checked bit for
bit against the per-column np.bincount scatter, the edge adjoint's row sums
against adding slices in turn, and the eigensolver against its row-wise form.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gscascade.autodiff as ad
from gscascade.geometry import jacobi_eigh3
from oracles import (absval_t, add, bincount_scatter, edge_adjoint_slices, edge_diff_t,
                     eigh3_two_nodes, exp, gather_t, jacobi_eigh3_rowwise, matmul_t, matvec_t, mul,
                     relu, reshape_t, sqrt_t, square, sub, tmean, transpose_last2_t, tsum)


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + eps
        fp = fn(x)
        xf[i] = orig - eps
        fm = fn(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * eps)
    return g


def check_unary(op, x, atol=1e-8, rtol=1e-5):
    def value(v):
        return float(tsum(op(ad.leaf(v))).value)

    t = ad.leaf(x)
    out = tsum(op(t))
    out.backward()
    num = numeric_grad(value, x.copy())
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=rtol)


def test_tensor_repr_and_shape():
    t = ad.leaf(np.ones((2, 3)))
    assert t.shape == (2, 3)
    assert t.requires_grad


def test_add_mul_broadcast_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,))

    ta, tb = ad.leaf(a), ad.leaf(b)
    out = tsum(mul(add(ta, tb), ta))
    out.backward()

    def value(av, bv):
        return float(np.sum((av + bv) * av))

    ga = numeric_grad(lambda v: value(v, b), a.copy())
    gb = numeric_grad(lambda v: value(a, v), b.copy())
    np.testing.assert_allclose(ta.grad, ga, atol=1e-7)
    np.testing.assert_allclose(tb.grad, gb, atol=1e-7)


def test_sub_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5,)) + 3.0
    b = rng.normal(size=(5,)) + 3.0
    ta, tb = ad.leaf(a), ad.leaf(b)
    out = tsum(add(mul(sub(ta, tb), tb), sub(1.0, ta)))
    out.backward()

    def value(av, bv):
        return float(np.sum((av - bv) * bv + (1.0 - av)))

    np.testing.assert_allclose(ta.grad, numeric_grad(lambda v: value(v, b), a.copy()), atol=1e-7)
    np.testing.assert_allclose(tb.grad, numeric_grad(lambda v: value(a, v), b.copy()), atol=1e-6, rtol=1e-5)


@pytest.mark.parametrize(
    "op",
    [exp, sqrt_t, square, absval_t],
    ids=["exp", "sqrt", "square", "absval"],
)
def test_elementwise_grads(op):
    rng = np.random.default_rng(2)
    x = rng.uniform(0.2, 2.0, size=(4, 2))  # positive, away from |x|=0 kink
    check_unary(op, x)


def test_absval_zero_has_zero_grad():
    t = ad.leaf(np.array([0.0, -1.5, 2.0]))
    tsum(absval_t(t)).backward()
    np.testing.assert_array_equal(t.grad, [0.0, -1.0, 1.0])


def test_relu_grads():
    x = np.array([-1.0, 0.5, 2.0, -0.2])
    t = ad.leaf(x)
    tsum(relu(t)).backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 1.0, 0.0])


def test_tmean_axis_grad():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))
    t = ad.leaf(x)
    tsum(square(tmean(t, axis=0))).backward()

    def value(v):
        return float(np.sum(np.mean(v, axis=0) ** 2))

    np.testing.assert_allclose(t.grad, numeric_grad(value, x.copy()), atol=1e-7)


def test_matmul_matvec_grads():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(5, 3, 3))
    B = rng.normal(size=(5, 3, 3))
    v = rng.normal(size=(5, 3))

    tA, tB, tv = ad.leaf(A), ad.leaf(B), ad.leaf(v)
    out = tsum(matvec_t(matmul_t(tA, tB), tv))
    out.backward()

    def value(Av, Bv, vv):
        return float(np.sum(np.einsum("nij,njk,nk->ni", Av, Bv, vv)))

    np.testing.assert_allclose(tA.grad, numeric_grad(lambda x: value(x, B, v), A.copy()), atol=1e-6)
    np.testing.assert_allclose(tB.grad, numeric_grad(lambda x: value(A, x, v), B.copy()), atol=1e-6)
    np.testing.assert_allclose(tv.grad, numeric_grad(lambda x: value(A, B, x), v.copy()), atol=1e-6)


def test_transpose_last2_grad():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 3, 3))
    t = ad.leaf(A)
    tsum(mul(transpose_last2_t(t), ad.constant(A))).backward()
    np.testing.assert_allclose(t.grad, np.swapaxes(A, -1, -2), atol=1e-12)


def test_gather_accumulates_duplicate_indices():
    x = np.array([1.0, 2.0, 3.0])
    idx = np.array([0, 0, 2, 2, 2])
    t = ad.leaf(x)
    tsum(gather_t(t, idx)).backward()
    np.testing.assert_array_equal(t.grad, [2.0, 0.0, 3.0])


def test_reshape_roundtrip_grads():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 4))
    t = ad.leaf(x)
    flat = reshape_t(t, (20,))
    back = reshape_t(flat, (5, 4))
    tsum(square(back)).backward()
    np.testing.assert_allclose(t.grad, 2.0 * x, atol=1e-12)


@pytest.mark.parametrize("rows, idx_shape, trailing", [
    (7, (40,), ()),
    (7, (40,), (3,)),
    (9, (12, 5), (3, 3)),
])
def test_gather_scatter_equals_add_at_on_fresh_grad(rows, idx_shape, trailing):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows,) + trailing)
    idx = rng.integers(0, rows - 2, size=idx_shape)  # duplicates; the last rows unused
    upstream = rng.normal(size=idx_shape + trailing)
    t = ad.leaf(x)
    tsum(mul(gather_t(t, idx), ad.constant(upstream))).backward()
    want = np.zeros_like(x)
    np.add.at(want, idx, upstream)
    np.testing.assert_array_equal(t.grad, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_row_index_scatter_is_bit_equal_to_bincount(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 60))
    idx_shape = tuple(int(d) for d in rng.integers(1, 30, size=rng.integers(1, 3)))
    trailing = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(0, 3)))
    idx = rng.integers(0, rows, size=idx_shape)  # duplicates, and rows no index names
    shape = idx_shape + trailing
    g = rng.normal(size=shape) * rng.choice([1e-8, 1.0, 1e8], size=shape)  # cancellation
    index = ad.RowIndex(idx, rows)
    want = bincount_scatter(g, idx, rows)
    assert np.array_equal(index.scatter(g), want)
    assert np.array_equal(index.scatter(2.0 * g), 2.0 * want)  # the transpose is kept


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([3, 4]), st.booleans())
def test_edge_kernels_are_bit_equal_to_their_broadcast_and_slice_forms(seed, width, signed):
    """subtract_rows' repeat-subtract is the broadcast subtract, and
    edge_adjoint's row-sum product adds each row's k edges as the slices in
    turn did, zeros of either sign and cancellation included."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 40)), int(rng.integers(1, 21))
    a = rng.normal(size=(n, width)) * rng.choice([1e-8, 1.0, 1e8], size=(n, width))
    index = ad.RowIndex(rng.integers(0, n, size=(n, k)), n)
    signs = rng.choice([-1.0, 1.0], size=(n, k, 1)) if signed else None
    rows = np.take(a, index.idx, axis=0) * (1.0 if signs is None else signs)
    assert _same_bytes(ad.subtract_rows(rows.copy(), a), rows - a[:, None])
    if signs is None:
        assert _same_bytes(ad.edge_values(a, index), rows - a[:, None])
    g = rng.normal(size=(n, k, width)) * rng.choice([1e-8, 1.0, 1e8], size=(n, k, width))
    g[rng.uniform(size=g.shape) < 0.2] = 0.0
    g[rng.uniform(size=g.shape) < 0.2] = -0.0
    g[: n // 2] = np.where(rng.uniform(size=g[: n // 2].shape) < 0.5, 0.0, -0.0)  # zero rows
    assert _same_bytes(ad.edge_adjoint(g, index, signs), edge_adjoint_slices(g, index, signs))


def _square_and_cube(a, calls):
    """(a^2, a^3) as the two outputs of one node; `calls` records each VJP call."""

    def vjp(g2, g3):
        calls.append((g2 is not None, g3 is not None))
        g = np.zeros_like(a.value)
        if g2 is not None:
            g = g + g2 * 2.0 * a.value
        if g3 is not None:
            g = g + g3 * 3.0 * a.value**2
        ad._accum(a, g)

    return ad._make_multi((a.value**2, a.value**3), (a,), vjp)


@pytest.mark.parametrize("used", [(True, True), (True, False), (False, True)],
                         ids=["both", "first", "second"])
def test_multi_output_node_runs_its_vjp_once(used):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3))
    W = rng.normal(size=(2, 4, 3))

    def loss(t, calls):
        outs = _square_and_cube(t, calls)
        terms = [tsum(mul(o, ad.constant(w))) for o, w, u in zip(outs, W, used) if u]
        return terms[0] if len(terms) == 1 else add(terms[0], terms[1])

    calls = []
    t = ad.leaf(x)
    loss(t, calls).backward()
    assert calls == [used]  # once, with None for the output the loss does not use
    num = numeric_grad(lambda v: float(loss(ad.constant(v), []).value), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=1e-7)
    assert _square_and_cube(ad.constant(x), calls)[1].requires_grad is False


@pytest.mark.parametrize("used", [(True, False), (False, True), (True, True)],
                         ids=["w", "V", "both"])
def test_eigh3_gradients_equal_the_two_node_form(used):
    rng = np.random.default_rng(9)
    S = random_spd(rng, 50)
    aw, aV = rng.normal(size=(50, 3)), rng.normal(size=(50, 3, 3))
    grads = []
    for eigh in (ad.eigh3, eigh3_two_nodes):
        t = ad.leaf(S)
        w, V = eigh(t)[:2]
        terms = [tsum(mul(o, ad.constant(a))) for o, a, u in zip((w, V), (aw, aV), used)
                 if u]
        (terms[0] if len(terms) == 1 else add(terms[0], terms[1])).backward()
        grads.append(t.grad)
    if all(used):  # one adjoint of the summed M, not the sum of two adjoints
        np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-13 * np.abs(grads[1]).max())
    else:
        assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("trailing", [(3,), (4,)])
def test_edge_diff_matches_fd_with_repeated_indices(signed, trailing):
    rng = np.random.default_rng(len(trailing) + 2 * signed)
    n, k = 6, 4
    x = rng.normal(size=(n,) + trailing)
    idx = rng.integers(0, n, size=(n, k))
    idx[0] = [1, 1, 1, 2]  # one neighbour listed three times
    idx[2, 0] = 2  # and an edge to itself, a zero vector
    signs = np.where(rng.random((n, k, 1)) < 0.5, -1.0, 1.0) if signed else None
    W = rng.normal(size=(n, k) + trailing)

    def forward(v):
        return edge_diff_t(v, idx, signs)

    want = x[idx] * (1.0 if signs is None else signs) - x[:, None]
    np.testing.assert_array_equal(forward(ad.constant(x)).value, want)
    t = ad.leaf(x)
    tsum(mul(forward(t), ad.constant(W))).backward()
    num = numeric_grad(lambda v: float(np.sum(W * forward(ad.constant(v)).value)), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=1e-8)
    # the closed form: W (times the signs) scattered to the neighbours, less
    # each row's sum over its own edges
    exact = np.zeros_like(x)
    np.add.at(exact, idx, W if signs is None else W * signs)
    np.testing.assert_allclose(t.grad, exact - W.sum(axis=1), atol=1e-14)


def test_backward_accumulates_through_shared_subexpression():
    x = np.array([2.0])
    t = ad.leaf(x)
    y = square(t)
    out = add(y, y)
    out.backward()
    np.testing.assert_allclose(t.grad, [8.0])


def test_add_of_two_leaves_gives_each_its_own_gradient():
    """add hands one upstream gradient to both operands: the first to reach a
    node is copied, so no gradient aliases another node's."""
    w = np.array([1.0, 2.0, 3.0])
    a, b = ad.leaf(np.ones(3)), ad.leaf(np.zeros(3))
    s = add(a, b)
    tsum(mul(s, ad.constant(w))).backward()
    np.testing.assert_array_equal(a.grad, w)
    np.testing.assert_array_equal(b.grad, w)
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, s.grad) and not np.shares_memory(b.grad, s.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(s.grad, w)


def test_add_of_one_leaf_twice_accumulates_into_its_own_gradient():
    w = np.array([1.0, 2.0, 3.0])
    x = ad.leaf(np.ones(3))
    s = add(x, x)
    tsum(mul(s, ad.constant(w))).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * w)
    np.testing.assert_array_equal(s.grad, w)  # the sum's own gradient is not added to
    assert not np.shares_memory(x.grad, s.grad)
    # tsum's read-only broadcast view reaches both operands too
    y = ad.leaf(np.ones(3))
    tsum(add(y, y)).backward()
    np.testing.assert_array_equal(y.grad, [2.0, 2.0, 2.0])


def test_a_leaf_given_a_buffer_adds_into_it():
    buffer = np.zeros(5)
    t = ad.leaf(np.arange(3.0), grad=buffer[1:4])
    tsum(square(t)).backward()
    np.testing.assert_array_equal(buffer, [0.0, 0.0, 2.0, 4.0, 0.0])
    assert t.grad.base is buffer


def test_backward_walks_the_record_of_its_own_graph():
    """Two graphs keep separate records until an op joins them; a root's
    backward walks its record in reverse creation order and clears it."""
    a, b = ad.leaf(np.ones(2)), ad.leaf(np.ones(2))
    ea, eb = exp(a), square(b)
    assert a._tape is ea._tape and b._tape is eb._tape and a._tape is not b._tape
    root = tsum(mul(ea, eb))
    assert all(node._tape is root._tape for node in (a, b, ea, eb))
    assert len(root._tape) == 6
    root.backward()
    np.testing.assert_allclose(a.grad, np.e * np.ones(2))
    np.testing.assert_allclose(b.grad, 2.0 * np.e * np.ones(2))
    assert root._tape == [] and ea._parents == ()


def test_constant_gets_no_grad():
    c = ad.constant(np.ones(3))
    t = ad.leaf(np.ones(3))
    tsum(mul(c, t)).backward()
    assert c.grad is None
    np.testing.assert_array_equal(t.grad, np.ones(3))


# ---------------------------------------------------------------------------
# eigensolver


def random_spd(rng, n, spread=1.0):
    A = rng.normal(size=(n, 3, 3)) * spread
    return A @ np.swapaxes(A, -1, -2) + 0.05 * np.eye(3)


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(7)
    S = random_spd(rng, 200)
    w, V, converged = jacobi_eigh3(S)
    assert converged.all()
    recon = np.einsum("...ij,...j,...kj->...ik", V, w, V)
    np.testing.assert_allclose(recon, S, atol=1e-12)
    np.testing.assert_allclose(
        np.sort(w, axis=-1), np.linalg.eigvalsh(S), atol=1e-11, rtol=1e-11
    )
    np.testing.assert_allclose(np.linalg.det(V), 1.0, atol=1e-12)


def test_jacobi_diagonal_input_is_fixed_point():
    S = np.diag([3.0, 1.0, 2.0])[None]
    w, V, converged = jacobi_eigh3(S)
    assert converged.all()
    np.testing.assert_array_equal(w[0], [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(V[0], np.eye(3))


def test_jacobi_handles_repeated_eigenvalues():
    S = np.eye(3)[None] * 2.0
    w, V, converged = jacobi_eigh3(S)
    assert converged.all()
    np.testing.assert_allclose(w[0], [2.0, 2.0, 2.0])
    np.testing.assert_allclose(V[0] @ V[0].T, np.eye(3), atol=1e-14)


def test_eigh3_gradients_match_fd():
    rng = np.random.default_rng(8)
    S = random_spd(rng, 6)
    # random but fixed linear functional of (w, V) keeps the check generic
    aw = rng.normal(size=(6, 3))
    aV = rng.normal(size=(6, 3, 3))

    def value(Sv):
        w, V, _ = jacobi_eigh3(Sv)
        # align eigenvector signs to the analytic run to compare consistently
        return float(np.sum(w * aw) + np.sum(V * aV))

    t = ad.leaf(S)
    w, V, _ = ad.eigh3(t)
    out = add(tsum(mul(w, ad.constant(aw))), tsum(mul(V, ad.constant(aV))))
    out.backward()

    # FD must perturb symmetrically to stay on the symmetric manifold
    eps = 1e-7
    num = np.zeros_like(S)
    for n in range(S.shape[0]):
        for i in range(3):
            for j in range(i, 3):
                Sp = S.copy()
                Sp[n, i, j] += eps
                Sp[n, j, i] = Sp[n, i, j] if i != j else Sp[n, i, j]
                Sm = S.copy()
                Sm[n, i, j] -= eps
                Sm[n, j, i] = Sm[n, i, j] if i != j else Sm[n, i, j]
                d = (value(Sp) - value(Sm)) / (2 * eps)
                if i == j:
                    num[n, i, i] = d
                else:
                    num[n, i, j] = d / 2.0
                    num[n, j, i] = d / 2.0
    np.testing.assert_allclose(t.grad, num, atol=5e-5, rtol=5e-4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_jacobi_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    S = random_spd(rng, 8, spread=rng.uniform(0.1, 10.0))
    w, V, converged = jacobi_eigh3(S)
    assert converged.all()
    recon = np.einsum("...ij,...j,...kj->...ik", V, w, V)
    np.testing.assert_allclose(recon, S, atol=1e-9 * max(1.0, np.abs(S).max()))
    # V is a proper rotation
    np.testing.assert_allclose(
        np.einsum("...ij,...ik->...jk", V, V), np.broadcast_to(np.eye(3), V.shape),
        atol=1e-12,
    )


def _jacobi_cases(rng, n):
    """Symmetric batches that take each path of the solver, one kind per call."""
    A = rng.normal(size=(n, 3, 3)) * rng.uniform(0.1, 10.0)
    S = A @ np.swapaxes(A, -1, -2)
    kind = rng.integers(5)
    if kind == 1:  # a zero pivot: the masked step, t = 0 after an unguarded divide
        S[: n // 2 + 1, 0, 1] = S[: n // 2 + 1, 1, 0] = 0.0
    elif kind == 2:  # equal diagonal entries, negative off-diagonal: tau = -0.0
        S[:, 1, 1] = S[:, 0, 0]
        S[:, 0, 1] = S[:, 1, 0] = -np.abs(S[:, 0, 1]) - 0.5
    elif kind == 3:  # a pivot so small that tau * tau overflows
        S[:, 0, 1] = S[:, 1, 0] = 1e-200
    elif kind == 4:  # diagonal: zero sweeps
        S = S * np.eye(3)
    return S


@pytest.mark.parametrize("kind_seed", range(10))
def test_jacobi_is_bit_equal_to_its_row_wise_form_on_each_path(kind_seed):
    rng = np.random.default_rng(kind_seed)
    for n in (1, 7, 50):
        S = _jacobi_cases(rng, n)
        w, V, converged = jacobi_eigh3(S)
        want_w, want_V = jacobi_eigh3_rowwise(S)
        assert _same_bytes(w, want_w) and _same_bytes(V, want_V) and converged.all()


def test_jacobi_paths_are_exercised():
    """The cases above reach the zero pivot, tau = -0.0, tau * tau = inf and
    the zero-sweep exit, each on its own."""
    S = np.array([[[2.0, 0.0, 0.3], [0.0, 1.0, 0.2], [0.3, 0.2, 3.0]],
                  [[1.0, -0.5, 0.1], [-0.5, 1.0, 0.2], [0.1, 0.2, 3.0]],
                  [[1.0, 1e-200, 0.4], [1e-200, 2.0, 0.2], [0.4, 0.2, 3.0]]])
    assert S[0, 0, 1] == 0.0
    tau = (S[1:, 1, 1] - S[1:, 0, 0]) / (2.0 * S[1:, 0, 1])
    assert tau[0] == 0.0 and np.signbit(tau[0])
    with np.errstate(over="ignore"):
        assert tau[1] * tau[1] == np.inf
    for batch in (S, S[1:], S[2:], np.diag([3.0, 1.0, 2.0])[None]):
        w, V, converged = jacobi_eigh3(batch)
        want_w, want_V = jacobi_eigh3_rowwise(batch)
        assert _same_bytes(w, want_w) and _same_bytes(V, want_V) and converged.all()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_jacobi_is_bit_equal_to_its_row_wise_form(seed):
    rng = np.random.default_rng(seed)
    S = _jacobi_cases(rng, int(rng.integers(1, 40)))
    if rng.integers(2):  # not quite symmetric: the first step reads the lower triangle
        S = S + rng.normal(scale=1e-9, size=S.shape)
    w, V, converged = jacobi_eigh3(S)
    want_w, want_V = jacobi_eigh3_rowwise(S)
    assert _same_bytes(w, want_w) and _same_bytes(V, want_V)


def test_jacobi_lets_no_floating_point_warning_escape():
    """Exact-zero pivots (x / 0 beside unequal diagonal entries, 0 / 0 beside
    equal ones), a NaN matrix and ordinary matrices in one batch."""
    rng = np.random.default_rng(14)
    S = random_spd(rng, 6)
    S[1] = np.diag([3.0, 1.0, 2.0])
    S[2] = np.eye(3)
    S[3, 0, 1] = S[3, 1, 0] = 0.0
    S[4] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, V, converged = jacobi_eigh3(S)
    assert converged.tolist() == [True, True, True, True, False, True]
    assert _same_bytes(w[1:3], S[1:3].diagonal(axis1=-2, axis2=-1))


def test_jacobi_reports_the_matrices_it_did_not_converge_on():
    rng = np.random.default_rng(12)
    S = random_spd(rng, 20)
    S[3, 1, 2] = S[3, 2, 1] = np.nan
    S[11, 0, 0] = np.inf
    w, V, converged = jacobi_eigh3(S)
    assert np.flatnonzero(~converged).tolist() == [3, 11]
    # the finite rows are the solver's on them alone, bit for bit
    finite = np.delete(np.arange(20), [3, 11])
    w_alone, V_alone, _ = jacobi_eigh3(S[finite])
    np.testing.assert_allclose(w[finite], w_alone, atol=1e-12)
    # too few sweeps: the last iterate, reported unconverged
    w, V, converged = jacobi_eigh3(random_spd(rng, 20), max_sweeps=1)
    assert not converged.all()
    assert jacobi_eigh3(random_spd(rng, 20), max_sweeps=30)[2].all()
