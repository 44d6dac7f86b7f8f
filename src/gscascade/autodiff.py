"""Minimal reverse-mode automatic differentiation over numpy arrays.

This module owns the tape: tensors, leaves, the linked graph, its backward
pass and the helpers that the fused primitives share. Every node is a fused
primitive with a closed-form VJP (vector-Jacobian product); there are no
generic elementwise or broadcasting ops and no operator overloads.

Conventions:
  * float64 everywhere; each primitive's operands have the shapes it
    documents, and its VJP hands each operand a gradient of that shape.
  * A primitive builds a node only when an input has requires_grad=True;
    otherwise it returns a constant.
  * A node's VJP computes the gradient of an operand only when that operand
    requires it: nothing is computed for constants and then thrown away.
  * The parent links are the graph. Each node with a VJP is stamped with
    its place in creation order, which is topological; `backward` collects
    its root's ancestors that have a VJP through the links, runs the VJPs
    newest first, so every gradient takes its contributions in reverse
    creation order, and frees each node's links and VJP. It reaches only the
    root's ancestors, so an evaluation that fails halfway, whose nodes no
    later loss descends from, is never walked.
  * A scatter (the adjoint of a row lookup: `edge_adjoint`, the cascade
    layer, the correspondence term in `losses`) is one product with a
    `RowIndex`'s sparse transpose, which sums each row in index order, so
    backward passes are deterministic. An index fixed for a whole sequence (a
    hierarchy layer's assignments, the neighbour graph) keeps its transpose,
    built once.
  * Edge kernels keep numpy off its per-row loops over 3 or 4 components.
    `edge_adjoint`'s row sums (each row's sum over its k edges) are one
    product with a second CSR matrix the RowIndex keeps, ones at (i, i k + j):
    it adds a row's k entries in edge order from 0, which gives the bits of
    adding the (N, C) slices in turn. `edge_values` subtracts each row from
    its k edges (`subtract_rows`) as one contiguous (N k, C) subtract of the
    rows repeated k times, not as a broadcast over (N, k, C): the same
    elementwise subtraction.
  * A node may have several outputs (`_make_multi`): its VJP runs once, with
    the gradient of every output, or None for one the loss does not reach.
  * `_accum` keeps the first gradient that reaches a node as it is, so a VJP
    hands over only arrays that no one else holds: one it has just made, or
    a copy of one it has not (its own upstream gradient).
  * A leaf may be given its gradient buffer (zeros, or a view of one flat
    buffer); gradients are then added into it.
  * Per-node Python overhead dominates at the pipeline's array sizes, so
    each composite kernel is one primitive: `eigh3` here; the quaternion
    kernels and `safe_norm` in `tapemath`; a cascade layer, the covariance
    steps and the deltas in `deform`; each loss term and the weighted total
    in `losses`. The Jacobi and Shepperd forwards live in `geometry`.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np
from scipy.sparse import csr_array

from .geometry import jacobi_eigh3


# the creation count of the last node made with a VJP; stamps order the nodes
# of any graphs that a later op may join, so the count is the process's
_made = 0


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode AD."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp", "_order")

    def __init__(self, value, requires_grad=False, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp
        if vjp is not None:  # leaves and constants are never sorted: no stamp
            global _made
            _made += 1
            self._order = _made

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        self.grad = np.ones_like(self.value)
        if self._vjp is None:
            return
        # the root and its ancestors with a VJP: a node's links are freed once
        # its parents are listed, so a node reached again lists none, and a
        # node listed twice runs its VJP once
        nodes = [self]
        for node in nodes:
            for parent in node._parents:
                if parent._vjp is not None:
                    nodes += (parent,)
            node._parents = ()
        nodes.sort(key=attrgetter("_order"), reverse=True)
        for node in nodes:
            if node.grad is not None and node._vjp is not None:
                node._vjp(node.grad)
            node._vjp = None  # the forward's arrays go; gradients stay


def leaf(value, grad=None):
    """A differentiable input; gradients accumulate on .grad, which may be given
    as a zeroed buffer of the value's shape to add them into."""
    t = Tensor(value, requires_grad=True)
    t.grad = grad
    return t


def constant(value):
    return Tensor(value, requires_grad=False)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t, g):
    """Add g to t's gradient. The first g becomes the gradient itself: a VJP
    hands over an array no one else holds (one it made, or its own copy)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _transposed(a):
    """a with its last two axes swapped, as a contiguous copy: numpy's batched
    matmul of small matrices runs 2-3x slower on the swapped view. VJPs use
    it; forwards keep the view, whose products round differently."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def _make(value, parents, vjp):
    parents = tuple(parents)
    for p in parents:
        if p.requires_grad:
            return Tensor(value, requires_grad=True, parents=parents, vjp=vjp)
    return Tensor(value)


# what a child output of a multi-output node leaves on its head when the loss
# reaches the child but not the head's own output: the head's VJP still runs
_REACHED_THROUGH_CHILD = object()


def _make_multi(values, parents, vjp):
    """The outputs of one node with several outputs, as a tuple of Tensors.

    `vjp(*grads)` runs once per backward pass, after the gradient of every
    output is complete; an output the loss does not reach passes None. The
    first output carries the node (its parents and the VJP); each other
    output is a child of the first that hands its gradient over, made after
    it, so the backward pass, newest first, reaches the first output after
    all the others.
    """
    grads = [None] * len(values)

    def run(g):
        grads[0] = None if g is _REACHED_THROUGH_CHILD else g
        vjp(*grads)

    head = _make(values[0], parents, run)
    if not head.requires_grad:
        return (head, *(Tensor(v) for v in values[1:]))

    def handing_over(i):
        def hand_over(g):
            grads[i] = g
            if head.grad is None:
                head.grad = _REACHED_THROUGH_CHILD

        return Tensor(values[i], requires_grad=True, parents=(head,), vjp=hand_over)

    return (head, *(handing_over(i) for i in range(1, len(values))))


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
    An (N, k) index also keeps the matrix of its edges' row sums (ones at
    (i, i k + j)), which `edge_adjoint` multiplies by.
    """

    __slots__ = ("idx", "rows", "_transpose", "_row_sums")

    def __init__(self, idx, rows):
        self.idx = np.asarray(idx)
        self.rows = rows
        self._transpose = None
        self._row_sums = None

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

    def row_sums(self, g):
        """Each row's sum of g (N, k, C) over its k edges, in edge order: (N, C)."""
        if self._row_sums is None:
            n, k = self.idx.shape
            self._row_sums = csr_array(
                (np.ones(n * k), np.arange(n * k), np.arange(0, n * k + 1, k)), shape=(n, n * k))
        return self._row_sums @ g.reshape(self.idx.size, g.shape[-1])


def subtract_rows(v, a):
    """v - a[:, None] in place, for v of shape (N, k, C): one contiguous
    (N k, C) subtract of each row of a repeated k times. Returns v."""
    n, k, width = v.shape
    np.subtract(v.reshape(n * k, width), np.repeat(a, k, axis=0), out=v.reshape(n * k, width))
    return v


def edge_values(a, index):
    """a[idx] - a[:, None] for the (N, k) RowIndex `index`, as a fresh array."""
    # np.take gives a fresh array, several times faster than a[idx]
    return subtract_rows(np.take(a, index.idx, axis=0), a)


def edge_adjoint(g, index, signs=None):
    """The gradient w.r.t. a of the edges a[idx] * signs - a[:, None] (signs
    of shape (N, k, 1); `edge_values` without them), given their gradient g:
    g * signs scattered to the neighbour rows, less each row's sum of g over
    its k edges."""
    out = index.scatter(g if signs is None else g * signs)
    out -= index.row_sums(g)
    return out


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
    Returns (evals, evecs, converged): the two outputs of one node, whose
    adjoint is formed once from the gradients of both, and the solver's
    boolean array of which matrices converged.
    """
    S = _wrap(S)
    w, V, converged = jacobi_eigh3(S.value)

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

    return (*_make_multi((w, V), (S,), vjp), converged)
