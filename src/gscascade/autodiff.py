"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything in the fitting pipeline that needs parameter gradients is expressed
with the ops in this module, so the chain rule through the full deformation
(including covariance propagation and its eigendecomposition) is exact.

Conventions:
  * float64 everywhere; shapes follow numpy broadcasting.
  * Ops build a graph only when an input has requires_grad=True; otherwise they
    are plain (slightly wrapped) numpy calls.
  * A node's VJP computes the gradient of an operand only when that operand
    requires it: nothing is computed for constants and then thrown away.
  * Gradient accumulation order is the reverse topological order of creation,
    and the scatter-add of `gather` and `edge_diff` is one np.bincount per
    trailing column (which sums in index order), so backward passes are
    deterministic.
  * Per-node Python overhead dominates at the pipeline's array sizes, so hot
    composite kernels (`eigh3` and the neighbour-graph `edge_diff` here, the
    quaternion kernels and `safe_norm` in `tapemath`) are primitives with
    closed-form VJPs, not chains of elementwise ops. Their forwards (the
    Jacobi eigensolver, Shepperd's table) live in `geometry`; this module
    owns only the tape.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import jacobi_eigh3


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode AD."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad=False, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._vjp is not None:
                node._vjp(node.grad)
            # free graph refs as we go; grads on leaves survive
            node._vjp = None
            node._parents = ()

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


def leaf(value):
    """A differentiable input; gradients accumulate on .grad."""
    return Tensor(value, requires_grad=True)


def constant(value):
    return Tensor(value, requires_grad=False)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a fresh copy: g may be a view of another node's gradient
        shape = t.value.shape
        t.grad = np.array(g if g.shape == shape else np.broadcast_to(g, shape))
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(value, parents, vjp):
    parents = tuple(parents)
    if any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True, parents=parents, vjp=vjp)
    return Tensor(value)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    v = a.value + b.value

    def vjp(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.value.shape))

    return _make(v, (a, b), vjp)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    v = a.value - b.value

    def vjp(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.value.shape))

    return _make(v, (a, b), vjp)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    v = a.value * b.value

    def vjp(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.value, b.value.shape))

    return _make(v, (a, b), vjp)


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    v = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.value.shape))

    return _make(v, (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    if axis is None:
        n = a.value.size
    else:
        n = a.value.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra (batched over leading axes; operand batch shapes must match)


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    v = a.value @ b.value

    def vjp(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape))

    return _make(v, (a, b), vjp)


def matvec(a, x):
    """(..., m, n) @ (..., n) -> (..., m)."""
    a, x = _wrap(a), _wrap(x)
    v = np.einsum("...ij,...j->...i", a.value, x.value)

    def vjp(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.einsum("...i,...j->...ij", g, x.value), a.value.shape))
        if x.requires_grad:
            _accum(x, _unbroadcast(np.einsum("...ij,...i->...j", a.value, g), x.value.shape))

    return _make(v, (a, x), vjp)


def outer(u, w):
    """(..., m) x (..., n) -> (..., m, n)."""
    u, w = _wrap(u), _wrap(w)
    v = np.einsum("...i,...j->...ij", u.value, w.value)

    def vjp(g):
        _accum(u, _unbroadcast(np.einsum("...ij,...j->...i", g, w.value), u.value.shape))
        _accum(w, _unbroadcast(np.einsum("...ij,...i->...j", g, u.value), w.value.shape))

    return _make(v, (u, w), vjp)


def transpose_last2(a):
    a = _wrap(a)

    def vjp(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.value, -1, -2), (a,), vjp)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a):
    a = _wrap(a)
    v = np.tanh(a.value)

    def vjp(g):
        _accum(a, g * (1.0 - v * v))

    return _make(v, (a,), vjp)


def exp(a):
    a = _wrap(a)
    v = np.exp(a.value)

    def vjp(g):
        _accum(a, g * v)

    return _make(v, (a,), vjp)


def sqrt(a):
    a = _wrap(a)
    v = np.sqrt(a.value)

    def vjp(g):
        _accum(a, g * (0.5 / v))

    return _make(v, (a,), vjp)


def square(a):
    a = _wrap(a)

    def vjp(g):
        _accum(a, g * (2.0 * a.value))

    return _make(a.value * a.value, (a,), vjp)


def absval(a):
    """|a| with subgradient 0 at a == 0."""
    a = _wrap(a)

    def vjp(g):
        _accum(a, g * np.sign(a.value))

    return _make(np.abs(a.value), (a,), vjp)


def relu(a):
    """max(a, 0) with subgradient 0 at the kink."""
    a = _wrap(a)
    mask = a.value > 0.0

    def vjp(g):
        _accum(a, g * mask)

    return _make(np.where(mask, a.value, 0.0), (a,), vjp)


# ---------------------------------------------------------------------------
# indexing / shaping


def _scatter_rows(g, idx, shape):
    """Adjoint of the row lookup a[idx] for a of `shape`: the rows of g summed
    by index, one np.bincount per trailing column (in index order, as
    np.add.at adds)."""
    rows, width = shape[0], math.prod(shape[1:])
    flat = idx.ravel()
    cols = g.reshape(flat.size, width)
    out = np.empty((rows, width))
    for c in range(width):
        out[:, c] = np.bincount(flat, weights=cols[:, c], minlength=rows)
    return out.reshape(shape)


def gather(a, idx):
    """Row lookup a[idx] along axis 0 (idx nonnegative, any shape)."""
    a = _wrap(a)
    idx = np.asarray(idx)

    def vjp(g):
        _accum(a, _scatter_rows(g, idx, a.value.shape))

    return _make(a.value[idx], (a,), vjp)


def edge_diff(a, idx, signs=None):
    """Edge vectors a[idx] * signs - a[:, None] of a neighbour graph, as one node.

    `idx` is (N, k) with row i listing the neighbours of row i of `a` (N, ...);
    the optional constant `signs` broadcasts against a[idx]. Backward scatters
    g * signs to the neighbour rows (as gather does) and subtracts each row's
    sum of g over its k edges.
    """
    a = _wrap(a)
    idx = np.asarray(idx)
    v = np.take(a.value, idx, axis=0)  # a fresh array, several times faster than a[idx]
    if signs is not None:
        v *= signs
    v -= a.value[:, None]

    def vjp(g):
        out = _scatter_rows(g if signs is None else g * signs, idx, a.value.shape)
        # each row's sum of g over its k edges, adding whole (N, ...) slices
        # in turn: g.sum(axis=1)'s order for several trailing columns, without
        # its per-row loops
        rows = g[:, 0].copy()
        for j in range(1, g.shape[1]):
            rows += g[:, j]
        out -= rows
        _accum(a, out)

    return _make(v, (a,), vjp)


def reshape(a, shape):
    a = _wrap(a)
    old = a.value.shape

    def vjp(g):
        _accum(a, g.reshape(old))

    return _make(a.value.reshape(shape), (a,), vjp)


# ---------------------------------------------------------------------------
# symmetric 3x3 eigendecomposition

# Smoothing of 1/(lambda_j - lambda_i) in the backward pass; keeps gradients
# finite near (physically meaningless) repeated-eigenvalue configurations
# while staying exact to ~(eps/gap)^2 for well separated spectra.
_EIG_GAP_EPS = 1e-9


def eigh3(S):
    """Differentiable symmetric 3x3 eigendecomposition (tape primitive).

    Forward is `geometry.jacobi_eigh3`; backward is the standard
    eigendecomposition adjoint restricted to symmetric perturbations:

        dS = V (diag(dw) + F o (V^T dV)) V^T,  F_ij = 1/(w_j - w_i),

    symmetrized, with the gap denominators smoothed by _EIG_GAP_EPS.
    Returns (evals, evecs) as two tensors.
    """
    S = _wrap(S)
    w, V = jacobi_eigh3(S.value)

    def vjp_w(g):
        _backprop(g, None)

    def vjp_V(g):
        _backprop(None, g)

    def _backprop(gw, gV):
        M = np.zeros(V.shape, dtype=np.float64)
        if gw is not None:
            M[..., 0, 0] = gw[..., 0]
            M[..., 1, 1] = gw[..., 1]
            M[..., 2, 2] = gw[..., 2]
        if gV is not None:
            gap = w[..., None, :] - w[..., :, None]  # gap[i,j] = w_j - w_i
            F = gap / (gap * gap + _EIG_GAP_EPS * _EIG_GAP_EPS)
            for i in range(3):
                F[..., i, i] = 0.0
            M = M + F * (np.swapaxes(V, -1, -2) @ gV)
        gS = V @ M @ np.swapaxes(V, -1, -2)
        gS = 0.5 * (gS + np.swapaxes(gS, -1, -2))
        _accum(S, gS)

    return _make(w, (S,), vjp_w), _make(V, (S,), vjp_V)
