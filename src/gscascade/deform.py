"""Cascaded cluster deformation with covariance propagation.

A single layer maps a point x belonging to cluster j (centroid p_c) to

    x_d = p_c + sigma(x) * (R (x - p_c) + t),
    sigma(x) = tanh(c . (x - p_c) + s) + 1   in (0, 2),

so zero parameters (R = I, t = 0, c = 0, s = 0) give the identity map. The
spatial Jacobian is analytic:

    dx_d/dx = sigma * R + (R (x - p_c) + t) (sigma' c^T),  sigma' = 1 - tanh^2.

K layers (coarsest first) compose; the accumulated Jacobian J = J_K ... J_1
pushes each Gaussian's covariance forward as J Sigma J^T, which is factored
back into (orientation, scale). Per-Gaussian deltas are applied afterwards:
center shift adds, orientation delta left-multiplies, log-scale delta adds.

That makes seven parameter classes: four per cluster of each layer
(`rotations`, `translations`, `scale_dirs`, `scale_biases`) and three per
Gaussian (`d_centers`, `d_rotations`, `d_log_scales`). `IDENTITY_ROWS` names
them once, with the row each holds in the identity cascade; the constructor,
`is_zero`, `trace_cascade` and the checkpoint payload all iterate that table.

A cascade keeps all of them in one flat float64 buffer, `CascadeDeform.flat`.
Each class is one block of it, and a layer class holds the clusters of every
layer, sum L rows, layer by layer; the two quaternion classes are adjacent,
so one (sum L + N, 4) view renormalizes both. The fields of the cascade and
of its layers, and the arrays `CascadeDeform.arrays()` hands out under the
keys `layer<k>.<class>` and `d_*`, are views into that buffer; `views` lays
any buffer of the same layout out the same way (a gradient, for Adam and for
naming a non-finite entry).

The covariance factorization inside the cascade is gauge-continuous: the
eigenbasis is expressed relative to R_casc * R_prev, where R_casc = R_K ... R_1
is the product of the Gaussian's layer rotations, and rounded to it through a
signed permutation. With a flat scaling field (c = 0), J_k = sigma_k R_k and
R_casc is exactly polar(J), so every orientation co-rotates instead of
snapping to a sorted-eigenvalue convention; R_casc is a proper rotation even
where J is singular or reflecting. The scaling field moves polar(J) away from
R_casc (under a degree in fitted sequences, where both round to the same axes;
a strong field can label the axes of the same covariance differently). The
reference rotation and permutation only fix the gauge — near a given reference
the factored output does not depend on it — so treating them as constants of
the backward pass leaves gradients exact.

One differentiable evaluation (`trace_cascade`) makes one leaf per class,
over the class's block of `flat`, and gives each leaf the same block of one
zeroed gradient buffer with the layout of `flat`, which the backward pass adds
into. It then builds a short tape of fused nodes with closed-form VJPs; their
forwards are the original op chains, op for op, so only the summation order of
the backward differs from a chain of generic ops:

  * one `quat_normalize_t` and one `quat_to_mat_t` on the sum L cluster
    rotations of all layers;
  * the centre path, one two-output node for every layer and the centre
    delta, -> (centers, J = J_K ... J_1), which looks up the four
    per-cluster rows per Gaussian through the hierarchy's RowIndex into the
    class rows and scatters every layer's gradients back through it at once;
  * the covariance: one node J -> B = Q^T (J A0)(J A0)^T Q, `autodiff.eigh3`
    (two outputs), one node (w, V) -> (R_dec, scales), and `mat_to_quat_t`;
  * the other per-Gaussian deltas: two `quat_normalize_t` and one
    `quat_multiply_t` for the orientations, and one node for the scales'
    factor exp(d_log_scales).

The constants of one previous frame (R_prev, A0 = R_prev diag(s_prev), each
layer's looked-up centroids) live in a `CascadeFrame`, which a frame's fit
builds once for all its evaluations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import geometry
from .core import GaussianSet
from .tapemath import mat_to_quat_t, quat_multiply_t, quat_normalize_t, quat_to_mat_t

_IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])

# the row each parameter class holds in the identity cascade: the d_* classes
# are CascadeDeform fields (per Gaussian), the rest DeformLayer fields (per cluster)
IDENTITY_ROWS = {
    "rotations": _IDENTITY_QUAT,
    "translations": np.zeros(3),
    "scale_dirs": np.zeros(3),
    "scale_biases": np.zeros(()),
    "d_centers": np.zeros(3),
    "d_rotations": _IDENTITY_QUAT,
    "d_log_scales": np.zeros(3),
}
_LAYER_CLASSES = tuple(name for name in IDENTITY_ROWS if not name.startswith("d_"))
_GAUSSIAN_CLASSES = tuple(name for name in IDENTITY_ROWS if name.startswith("d_"))
_QUATERNION_CLASSES = tuple(name for name, row in IDENTITY_ROWS.items() if row.shape == (4,))
# the classes' order in the flat buffer: the two quaternion classes next to
# each other, so that one (sum L + N, 4) view renormalizes both
_BUFFER_ORDER = (
    *(name for name in _LAYER_CLASSES if name not in _QUATERNION_CLASSES),
    *_QUATERNION_CLASSES,
    *(name for name in _GAUSSIAN_CLASSES if name not in _QUATERNION_CLASSES),
)


class _Field:
    """A parameter field: reading it gives the array, assigning copies into
    it, so the fields of a cascade stay views of its buffer."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        return self if obj is None else obj._arrays[self.name]

    def __set__(self, obj, value):
        obj._arrays[self.name][...] = value


class DeformLayer:
    """Struct-of-arrays parameters for every cluster of one layer, over given views."""

    rotations = _Field()  # (L, 4)
    translations = _Field()  # (L, 3)
    scale_dirs = _Field()  # (L, 3)
    scale_biases = _Field()  # (L,)

    def __init__(self, arrays):
        self._arrays = arrays


class CascadeDeform:
    """K cluster layers (coarsest first) plus per-Gaussian deltas.

    `CascadeDeform(hierarchy, n)` is the identity cascade on `hierarchy` for n
    Gaussians, the fixed point of cascade_apply. Every parameter lives in one
    flat float64 buffer, `flat`. Each class is one block of it: a layer class
    holds the clusters of every layer (sum L rows, layer by layer), a d_*
    class the N Gaussians. The fields of the cascade and of its layers are
    views into that buffer, and assigning one copies into it.
    """

    d_centers = _Field()  # (N, 3)
    d_rotations = _Field()  # (N, 4)
    d_log_scales = _Field()  # (N, 3)

    def __init__(self, hierarchy, n):
        self.hierarchy = hierarchy
        sizes = tuple(hierarchy.layer_sizes)
        rows = {name: sum(sizes) if name in _LAYER_CLASSES else n for name in IDENTITY_ROWS}
        self._blocks = {}  # class -> (its slice of the buffer, its shape)
        start = 0
        for name in _BUFFER_ORDER:
            shape = (rows[name],) + IDENTITY_ROWS[name].shape
            self._blocks[name] = (slice(start, start + math.prod(shape)), shape)
            start += math.prod(shape)
        first, last = (self._blocks[name][0] for name in _QUATERNION_CLASSES)
        self.quaternions = slice(first.start, last.stop)  # both classes, (sum L + N) x 4
        self.flat = np.empty(start)
        self.classes = self.class_views(self.flat)
        for name, block in self.classes.items():
            block[...] = IDENTITY_ROWS[name]
        ends = np.cumsum((0,) + sizes)
        self._layer_rows = list(zip(ends[:-1], ends[1:]))
        self._arrays = {name: self.classes[name] for name in _GAUSSIAN_CLASSES}
        self.layers = [DeformLayer({name: self.classes[name][a:b] for name in _LAYER_CLASSES})
                       for a, b in self._layer_rows]

    def class_views(self, buffer):
        """{class: its block of `buffer`} in table order, for a buffer laid out
        like `flat`."""
        return {name: buffer[self._blocks[name][0]].reshape(self._blocks[name][1])
                for name in IDENTITY_ROWS}

    def views(self, buffer):
        """{key: view of `buffer`}, for a buffer laid out like `flat` (the
        parameters, or a gradient of them), keyed and ordered like arrays()."""
        classes = self.class_views(buffer)
        views = {f"layer{k}.{name}": classes[name][a:b]
                 for k, (a, b) in enumerate(self._layer_rows) for name in _LAYER_CLASSES}
        views.update((name, classes[name]) for name in _GAUSSIAN_CLASSES)
        return views

    def arrays(self):
        """{key: live parameter array}: `layer<k>.<class>` for every layer, then
        the d_* classes."""
        return self.views(self.flat)

    def is_zero(self):
        """Whether every class block equals its identity row (-0.0 does, NaN never)."""
        return all(np.all(block == IDENTITY_ROWS[name]) for name, block in self.classes.items())


# ---------------------------------------------------------------------------
# gauge rounding


def _proper_signed_permutations():
    """The 24 signed permutation matrices with det +1, the identity first."""
    table = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            P = np.zeros((3, 3))
            P[range(3), perm] = signs
            if np.linalg.det(P) > 0.0:
                table.append(P)
    return np.array(table)


_SIGNED_PERMUTATIONS = _proper_signed_permutations()  # (24, 3, 3)
# trace(V @ P) = sum_ij V_ij P_ji: one row of P^T per candidate, flattened
_SIGNED_PERMUTATION_SCORES = np.swapaxes(_SIGNED_PERMUTATIONS, 1, 2).reshape(24, 9).T


def _nearest_signed_permutation(V):
    """Signed permutation P with V @ P closest to the identity, det(P) = +1.

    For orthogonal V, |V P - I|_F^2 = 6 - 2 trace(V P), so the nearest of the
    24 proper signed permutations is the one of largest trace; ties go to the
    first in table order.
    """
    V = np.asarray(V, dtype=np.float64)
    best = np.argmax(V.reshape(-1, 9) @ _SIGNED_PERMUTATION_SCORES, axis=1)
    return np.take(_SIGNED_PERMUTATIONS, best, axis=0)


# ---------------------------------------------------------------------------
# cascade forward (traced)


@dataclass
class CascadeTrace:
    """Tape handles for one cascade application."""

    centers: ad.Tensor  # (N, 3)
    orientations: ad.Tensor  # (N, 4)
    scales: ad.Tensor  # (N, 3)
    jacobians: ad.Tensor  # (N, 3, 3) accumulated spatial Jacobian
    covariances: np.ndarray  # (N, 3, 3) propagated, exactly symmetric; None if off
    grad: np.ndarray  # the parameters' gradients, laid out like `flat`; None on constants


class CascadeFrame:
    """The cascade's constants on one previous frame: its rotations R_prev,
    A0 = R_prev diag(s_prev), and each layer's centroids looked up per
    Gaussian. Each is computed on first use and then shared by every
    evaluation of the frame; the hierarchy's centroids must be the frame's
    before then."""

    def __init__(self, prev_set, hierarchy):
        self.prev_set = prev_set
        self.hierarchy = hierarchy

    @cached_property
    def prev_R(self):
        return geometry.quat_to_matrix(self.prev_set.orientations)

    @cached_property
    def A0(self):
        return self.prev_R * self.prev_set.scales[:, None, :]

    @cached_property
    def centroids(self):
        hier = self.hierarchy
        return [c[a] for c, a in zip(hier.centroids, hier.assignments)]


def _cascade_t(x, R, t, c, s, d_centers, index, centroids):
    """The cascade's centre path as one tape node: every layer, coarsest
    first, then the centre delta, (R, t, c, s, d_centers) -> (centers, J).

    x are the previous centres and `centroids` each layer's centroids looked
    up per Gaussian (constants); R, t, c, s hold every layer's cluster rows,
    which row k of the RowIndex `index` looks up for layer k. Layer k maps
    (x, J) to (x_next, J_k J), so J = J_K ... J_1. Also returns the looked-up
    rotations composed, R_K ... R_1, as an array. The VJP runs the layers'
    adjoints from last to first on their sigma, sigma', d and `moved`, and
    scatters every layer's four per-Gaussian gradients in one sparse product.
    """
    n = x.shape[0]
    saved = []  # per layer: its forward arrays and its input J
    J = R_casc = None
    for cid, pc in zip(index.idx, centroids):
        # np.take copies rows of the (L, 3) and (L, 3, 3) arrays faster than a[cid]
        Rg, tg, cg = (np.take(a.value, cid, axis=0) for a in (R, t, c))
        sg = s.value[cid]
        d = x - pc
        th = np.tanh(geometry.sum_last(cg * d) + sg)  # (N,)
        sig = th + 1.0
        moved = np.einsum("...ij,...j->...i", Rg, d) + tg
        # written as x + (sigma*moved - d) so the zero cascade is an exact
        # identity in floating point
        x = x + (moved * sig.reshape(n, 1) - d)
        sigp = 1.0 - th * th
        cs = cg * sigp.reshape(n, 1)
        Jk = Rg * sig.reshape(n, 1, 1) + np.einsum("...i,...j->...ij", moved, cs)
        saved.append((Rg, cg, d, th, sig, sigp, moved, cs, Jk, J))
        J = Jk if J is None else Jk @ J
        R_casc = Rg if R_casc is None else Rg @ R_casc

    def vjp(gx, gJ):
        if gx is None:
            gx = np.zeros((n, 3))
        else:
            ad._accum(d_centers, gx)
        per_gaussian = np.empty((len(saved), n, 16))
        for k in reversed(range(len(saved))):
            Rg, cg, d, th, sig, sigp, moved, cs, Jk, J = saved[k]
            # x_next = x + sigma moved - d and J_k = sigma R + moved (sigma' c)^T
            g_moved = gx * sig[:, None]
            g_sig = geometry.sum_last(gx * moved)
            # Without J's gradient its terms are zeros, left out. Adding them
            # only turned -0.0 into +0.0, and every row below reaches the
            # parameters through the scatter, whose sums start from +0.0.
            if gJ is None:
                g_u = g_sig * sigp
                g_R = g_moved[:, :, None] * d[:, None, :]
                g_c = g_u[:, None] * d
            else:
                gK = gJ
                if J is not None:
                    gJ = ad._transposed(Jk) @ gJ
                    gK = gK @ ad._transposed(J)
                g_moved = g_moved + np.einsum("...ij,...j->...i", gK, cs)
                g_cs = np.einsum("...ij,...i->...j", gK, moved)
                g_sig = g_sig + (gK * Rg).sum(axis=(-2, -1))
                g_u = (g_sig - 2.0 * th * geometry.sum_last(g_cs * cg)) * sigp
                g_R = gK * sig[:, None, None] + g_moved[:, :, None] * d[:, None, :]
                g_c = g_cs * sigp[:, None] + g_u[:, None] * d
            if k:  # d = x - pc, and x_next's own x cancels -d's; the first x is constant
                gx = g_u[:, None] * cg + np.einsum("...ij,...i->...j", Rg, g_moved)
            np.concatenate([g_R.reshape(n, 9), g_moved, g_c, g_u[:, None]],
                           axis=1, out=per_gaussian[k])
        per_cluster = index.scatter(per_gaussian)
        ad._accum(R, per_cluster[:, :9].reshape(R.shape))
        ad._accum(t, per_cluster[:, 9:12])
        ad._accum(c, per_cluster[:, 12:15])
        ad._accum(s, per_cluster[:, 15])

    centers, J = ad._make_multi((x + d_centers.value, J), (R, t, c, s, d_centers), vjp)
    return centers, J, R_casc


def _covariance_t(J, A0, Q):
    """J -> B = Q^T M Q with M = (J A0)(J A0)^T, as one tape node.

    Both products are symmetrized bit-exactly, (X + X^T) * 0.5, in the
    association of the original op chain. Returns (B, M as an array).
    """
    A = J.value @ A0
    M = A @ np.swapaxes(A, -1, -2)
    M = (M + np.swapaxes(M, -1, -2)) * 0.5
    B = (np.swapaxes(Q, -1, -2) @ M) @ Q
    B = (B + np.swapaxes(B, -1, -2)) * 0.5

    def vjp(gB):
        gB = 0.5 * (gB + np.swapaxes(gB, -1, -2))
        gM = Q @ (gB @ ad._transposed(Q))
        gA = (gM + np.swapaxes(gM, -1, -2)) @ A
        ad._accum(J, gA @ ad._transposed(A0))

    return ad._make(B, (J,), vjp), M


def _factored_t(evals, evecs, Q, P):
    """(w, V) -> (R_dec = Q (V P), scales = sqrt(|P|^T w)) as one tape node."""
    R_dec = Q @ (evecs.value @ P)
    perm = np.abs(np.swapaxes(P, -1, -2))
    scales = np.sqrt(np.einsum("...ij,...j->...i", perm, evals.value))

    def vjp(gR, gs):
        if gR is not None:
            ad._accum(evecs, (ad._transposed(Q) @ gR) @ ad._transposed(P))
        if gs is not None:
            ad._accum(evals, np.einsum("...ij,...i->...j", perm, gs * (0.5 / scales)))

    return ad._make_multi((R_dec, scales), (evals, evecs), vjp)


def _scaled_t(scales, d_log_scales):
    """The scale deltas, scales * exp(d_log_scales), as one node."""
    factor = np.exp(d_log_scales.value)

    def vjp(g):
        if scales.requires_grad:
            ad._accum(scales, g * factor)
        ad._accum(d_log_scales, (g * scales.value) * factor)

    return ad._make(scales.value * factor, (scales, d_log_scales), vjp)


def trace_cascade(cascade, frame, propagate_covariance=True, differentiable=True):
    """Run the cascade on the CascadeFrame `frame`'s prev_set, building the autodiff graph.

    With differentiable=False the same code path runs on constants (no graph),
    which keeps the evaluation and training forwards numerically identical.
    A frame's fit shares one `frame` between its evaluations. Raises ValueError,
    naming the first such Gaussian, on a propagated covariance that is not
    positive definite, and then on one the eigensolver did not converge on
    (a non-finite one passes the first check).
    """
    gset = frame.prev_set
    if differentiable:
        grad = np.zeros_like(cascade.flat)
        grads = cascade.class_views(grad)
        leaves = {name: ad.leaf(a, grad=grads[name]) for name, a in cascade.classes.items()}
    else:
        grad = None
        leaves = {name: ad.constant(a) for name, a in cascade.classes.items()}

    # every layer's cluster rotations, converted at once; the centre path looks
    # each layer's rows up through its row of the hierarchy's RowIndex
    R = quat_to_mat_t(quat_normalize_t(leaves["rotations"]))  # (sum L, 3, 3)
    centers_out, J, R_casc = _cascade_t(gset.centers, R, leaves["translations"],
                                        leaves["scale_dirs"], leaves["scale_biases"],
                                        leaves["d_centers"], cascade.hierarchy.row_index,
                                        frame.centroids)

    cov = None
    if propagate_covariance:
        # gauge reference: constants of the backward pass (see module docstring)
        Q = R_casc @ frame.prev_R
        B, cov = _covariance_t(J, frame.A0, Q)
        evals, evecs, converged = ad.eigh3(B)
        if np.any(evals.value <= geometry._PD_FLOOR):
            idx = int(np.argmax(np.min(evals.value, axis=-1) <= geometry._PD_FLOOR))
            raise ValueError(
                f"propagated covariance is not positive definite for Gaussian {idx}"
                " (degenerate deformation Jacobian)"
            )
        if not np.all(converged):
            idx = int(np.argmin(converged))
            raise ValueError(f"the eigensolver did not converge on the propagated covariance"
                             f" of Gaussian {idx} (non-finite or too few sweeps)")
        R_dec, scales_prop = _factored_t(evals, evecs, Q, _nearest_signed_permutation(evecs.value))
        q_prop = mat_to_quat_t(R_dec)
    else:
        q_prop = ad.constant(gset.orientations)
        scales_prop = ad.constant(gset.scales)

    dq = quat_normalize_t(leaves["d_rotations"])
    orientations_out = quat_normalize_t(quat_multiply_t(dq, q_prop))
    scales_out = _scaled_t(scales_prop, leaves["d_log_scales"])

    return CascadeTrace(
        centers=centers_out,
        orientations=orientations_out,
        scales=scales_out,
        jacobians=J,
        covariances=cov,
        grad=grad,
    )


def cascade_apply(cascade, gset, propagate_covariance=True, trace=None):
    """Deform a GaussianSet; returns a new set with frame_index + 1.

    The all-zero cascade short-circuits to an exact copy (identity map).
    `trace` is the cascade's `trace_cascade` on `gset` on constants, when the
    caller has it already; otherwise it is traced here.
    """
    if cascade.is_zero():
        out = gset.copy()
        out.frame_index = gset.frame_index + 1
        return out
    if trace is None:
        trace = trace_cascade(cascade, CascadeFrame(gset, cascade.hierarchy),
                              propagate_covariance=propagate_covariance, differentiable=False)
    return GaussianSet(
        centers=trace.centers.value,
        orientations=trace.orientations.value,
        scales=trace.scales.value,
        frame_index=gset.frame_index + 1,
    )


def cascade_jacobians(cascade, gset):
    """Accumulated spatial Jacobian J = J_K ... J_1 per Gaussian, (N, 3, 3)."""
    trace = trace_cascade(cascade, CascadeFrame(gset, cascade.hierarchy),
                          propagate_covariance=False, differentiable=False)
    return trace.jacobians.value


def propagated_covariances(cascade, gset):
    """J Sigma J^T per Gaussian (exactly symmetric), without the refactoring."""
    trace = trace_cascade(cascade, CascadeFrame(gset, cascade.hierarchy), differentiable=False)
    return trace.covariances


# ---------------------------------------------------------------------------
# serialization (bit-exact via hex floats)


def _arr_to_hex(a):
    return {"shape": list(a.shape), "data": list(map(float.hex, a.ravel().tolist()))}


def _hex_shape(payload, key):
    """The checkpoint array `payload`'s shape, as a tuple; a shape that is not
    a list of non-negative ints (bools are not) whose product is the data
    length raises ValueError naming `key`."""
    shape = payload["shape"]
    if not (isinstance(shape, list)
            and all(type(s) is int and s >= 0 for s in shape)
            and math.prod(shape) == len(payload["data"])):
        raise ValueError(f"parameter {key} has shape {shape!r}, which does not hold"
                         f" its {len(payload['data'])} data values")
    return tuple(shape)


def _arr_from_hex(payload, key):
    data = np.array(list(map(float.fromhex, payload["data"])), dtype=np.float64)
    return data.reshape(_hex_shape(payload, key))


def cascade_to_payload(cascade):
    return {
        "layers": [{name: _arr_to_hex(getattr(layer, name)) for name in _LAYER_CLASSES}
                   for layer in cascade.layers],
        **{name: _arr_to_hex(getattr(cascade, name)) for name in _GAUSSIAN_CLASSES},
    }


def cascade_from_payload(payload, hierarchy):
    """The checkpoint `payload`'s cascade on `hierarchy`; a key that
    `cascade_to_payload` does not write (at the top level, where the fit's
    `frame_index` may stand too, or in a layer), a layer count or an array
    shape that the hierarchy does not have, or a `shape` that does not hold
    its array's data, raises ValueError naming it."""
    layers = payload["layers"]
    unknown = [("checkpoint", set(payload) - {"layers", "frame_index", *_GAUSSIAN_CLASSES})]
    unknown += [(f"checkpoint layer {k}", set(layer) - set(_LAYER_CLASSES))
                for k, layer in enumerate(layers)]
    for where, keys in unknown:
        if keys:
            raise ValueError(f"unknown key(s) in {where}: {sorted(keys)}")
    if len(layers) != len(hierarchy.layer_sizes):
        raise ValueError(f"checkpoint has {len(layers)} layers, the hierarchy"
                         f" {len(hierarchy.layer_sizes)}")
    shape = _hex_shape(payload["d_centers"], "d_centers")
    cascade = CascadeDeform(hierarchy, shape[0] if shape else 0)  # () fails the check below
    given = [*(layer[name] for layer in layers for name in _LAYER_CLASSES),
             *(payload[name] for name in _GAUSSIAN_CLASSES)]  # in the order of arrays()
    for (key, view), entry in zip(cascade.arrays().items(), given):
        array = _arr_from_hex(entry, key)
        if array.shape != view.shape:
            raise ValueError(f"parameter {key} has shape {array.shape}, expected {view.shape}")
        view[...] = array
    return cascade
