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
    and a scatter (the adjoint of a row lookup: `gather`, `edge_diff`, the
    cascade layer) is one product with a `RowIndex`'s sparse transpose, which
    sums each row in index order, so backward passes are deterministic. An
    index fixed for a whole sequence (a hierarchy layer's assignments, the
    neighbour graph) keeps its transpose, built once.
  * A node may have several outputs (`_make_multi`): its VJP runs once, with
    the gradient of every output, or None for one the loss does not reach.
  * Per-node Python overhead dominates at the pipeline's array sizes, so hot
    composite kernels (`eigh3` and the neighbour-graph `edge_diff` here, the
    quaternion kernels and `safe_norm` in `tapemath`, a cascade layer and the
    covariance steps in `deform`) are primitives with closed-form VJPs, not
    chains of elementwise ops. Their forwards (the Jacobi eigensolver,
    Shepperd's table) live in `geometry`; this module owns only the tape.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_array

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


def _transposed(a):
    """a with its last two axes swapped, as a contiguous copy: numpy's batched
    matmul of small matrices runs 2-3x slower on the swapped view. VJPs use
    it; forwards keep the view, whose products round differently."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def _make(value, parents, vjp):
    parents = tuple(parents)
    if any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True, parents=parents, vjp=vjp)
    return Tensor(value)


def _make_multi(values, parents, vjp):
    """The outputs of one node with several outputs, as a tuple of Tensors.

    `vjp(*grads)` runs once per backward pass, after the gradient of every
    output is complete; an output the loss does not reach passes None. The
    first output carries the node (its parents and the VJP); each other
    output is a child of the first that hands its gradient over, so reverse
    topological order reaches the first output after all the others.
    """
    parents = tuple(parents)
    if not any(p.requires_grad for p in parents):
        return tuple(Tensor(v) for v in values)
    grads = [None] * len(values)

    def run(g):
        grads[0] = g
        vjp(*grads)

    head = Tensor(values[0], requires_grad=True, parents=parents, vjp=run)

    def handing_over(i):
        def hand_over(g):
            grads[i] = g

        return Tensor(values[i], requires_grad=True, parents=(head,), vjp=hand_over)

    return (head, *(handing_over(i) for i in range(1, len(values))))


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
            _accum(a, _unbroadcast(g @ _transposed(b.value), a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(_transposed(a.value) @ g, b.value.shape))

    return _make(v, (a, b), vjp)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def exp(a):
    a = _wrap(a)
    v = np.exp(a.value)

    def vjp(g):
        _accum(a, g * v)

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


class RowIndex:
    """A row-index array fixed for many evaluations, with its scatter adjoint.

    The adjoint of the lookup a[idx] sums the rows of the upstream gradient by
    index. Here that sum is one product with the CSR transpose of the lookup
    (rows x idx.size, all ones, column indices sorted within each row), built
    on the first backward pass that needs it and kept with the index. Each
    output row adds its entries in index order, starting from 0, as
    np.bincount (and np.add.at) does, so the result is bit for bit theirs.
    """

    __slots__ = ("idx", "rows", "_transpose")

    def __init__(self, idx, rows):
        self.idx = np.asarray(idx)
        self.rows = rows
        self._transpose = None

    def scatter(self, g):
        """Rows of g (idx.shape + trailing) summed by index: (rows,) + trailing."""
        if self._transpose is None:
            flat = self.idx.ravel()
            indptr = np.zeros(self.rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=self.rows), out=indptr[1:])
            order = np.argsort(flat, kind="stable")
            self._transpose = csr_array((np.ones(flat.size), order, indptr),
                                        shape=(self.rows, flat.size))
        trailing = g.shape[self.idx.ndim:]
        out = self._transpose @ g.reshape(self.idx.size, math.prod(trailing))
        return out.reshape((self.rows,) + trailing)


def _row_index(idx, a):
    return idx if isinstance(idx, RowIndex) else RowIndex(idx, a.value.shape[0])


def gather(a, idx):
    """Row lookup a[idx] along axis 0 (idx a RowIndex, or nonnegative ints of any shape)."""
    a = _wrap(a)
    index = _row_index(idx, a)

    def vjp(g):
        _accum(a, index.scatter(g))

    return _make(a.value[index.idx], (a,), vjp)


def edge_diff(a, idx, signs=None):
    """Edge vectors a[idx] * signs - a[:, None] of a neighbour graph, as one node.

    `idx` (a RowIndex, or ints) is (N, k) with row i listing the neighbours of
    row i of `a` (N, ...); the optional constant `signs` broadcasts against
    a[idx]. Backward scatters g * signs to the neighbour rows (as gather does)
    and subtracts each row's sum of g over its k edges.
    """
    a = _wrap(a)
    index = _row_index(idx, a)
    v = np.take(a.value, index.idx, axis=0)  # a fresh array, several times faster than a[idx]
    if signs is not None:
        v *= signs
    v -= a.value[:, None]

    def vjp(g):
        out = index.scatter(g if signs is None else g * signs)
        # each row's sum of g over its k edges, adding whole (N, ...) slices
        # in turn: g.sum(axis=1)'s order for several trailing columns, without
        # its per-row loops
        rows = g[:, 0].copy()
        for j in range(1, g.shape[1]):
            rows += g[:, j]
        out -= rows
        _accum(a, out)

    return _make(v, (a,), vjp)


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
    Returns (evals, evecs), the two outputs of one node: the adjoint is
    formed once, from the gradients of both.
    """
    S = _wrap(S)
    w, V = jacobi_eigh3(S.value)

    def vjp(gw, gV):
        Vt = _transposed(V)
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
            M = M + F * (Vt @ gV)
        gS = V @ M @ Vt
        gS = 0.5 * (gS + np.swapaxes(gS, -1, -2))
        _accum(S, gS)

    return _make_multi((w, V), (S,), vjp)
