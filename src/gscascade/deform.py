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
them once, with the row each holds in the identity cascade; `cascade_zero`,
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
  * per layer, one two-output node (x, J) -> (x_next, J_k J), which looks up
    the four per-cluster rows per Gaussian through the layer's RowIndex into
    the class rows and scatters their gradients back through it;
  * the covariance: one node J -> B = Q^T (J A0)(J A0)^T Q, `autodiff.eigh3`
    (two outputs), one node (w, V) -> (R_dec, scales), and `mat_to_quat_t`;
  * the per-Gaussian deltas: one node for the centers' shift, two
    `quat_normalize_t` and one `quat_multiply_t` for the orientations, and one
    node for the scales' factor exp(d_log_scales).

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
    """Struct-of-arrays parameters for every cluster of one layer."""

    rotations = _Field()  # (L, 4)
    translations = _Field()  # (L, 3)
    scale_dirs = _Field()  # (L, 3)
    scale_biases = _Field()  # (L,)

    def __init__(self, rotations, translations, scale_dirs, scale_biases):
        self._arrays = {"rotations": rotations, "translations": translations,
                        "scale_dirs": scale_dirs, "scale_biases": scale_biases}

    @property
    def size(self):
        return self.rotations.shape[0]


class CascadeDeform:
    """K cluster layers (coarsest first) plus per-Gaussian deltas.

    Every parameter lives in one flat float64 buffer, `flat`. Each class is
    one block of it: a layer class holds the clusters of every layer (sum L
    rows, layer by layer), a d_* class the N Gaussians. The fields of the
    cascade and of its layers are views into that buffer, and assigning one
    copies into it. The given arrays are copied in.
    """

    d_centers = _Field()  # (N, 3)
    d_rotations = _Field()  # (N, 4)
    d_log_scales = _Field()  # (N, 3)

    def __init__(self, layers, d_centers, d_rotations, d_log_scales, hierarchy):
        sizes = tuple(layer.size for layer in layers)
        if sizes != tuple(hierarchy.layer_sizes):
            raise ValueError(
                f"layer sizes {sizes} do not match hierarchy {tuple(hierarchy.layer_sizes)}"
            )
        self.hierarchy = hierarchy
        n = np.shape(d_centers)[0]
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
        ends = np.cumsum((0,) + sizes)
        self._layer_rows = list(zip(ends[:-1], ends[1:]))
        self._arrays = {name: self.classes[name] for name in _GAUSSIAN_CLASSES}
        self.layers = [DeformLayer(**{name: self.classes[name][a:b] for name in _LAYER_CLASSES})
                       for a, b in self._layer_rows]
        given = [*(getattr(layer, name) for layer in layers for name in _LAYER_CLASSES),
                 d_centers, d_rotations, d_log_scales]  # in the order of arrays()
        for (key, view), array in zip(self.arrays().items(), given):
            if np.shape(array) != view.shape:
                raise ValueError(f"parameter {key} has shape {np.shape(array)},"
                                 f" expected {view.shape}")
            view[...] = array

    @property
    def n(self):
        return self.d_centers.shape[0]

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
        zero = cascade_zero(self.hierarchy, self.n).arrays()
        return all(np.array_equal(a, zero[key]) for key, a in self.arrays().items())


def _identity_rows(names, count):
    return {name: np.repeat(IDENTITY_ROWS[name][None], count, axis=0) for name in names}


def cascade_zero(hierarchy, n_gaussians):
    """Identity cascade bound to `hierarchy` (fixed point of cascade_apply)."""
    return CascadeDeform(
        layers=[DeformLayer(**_identity_rows(_LAYER_CLASSES, size))
                for size in hierarchy.layer_sizes],
        **_identity_rows(_GAUSSIAN_CLASSES, n_gaussians),
        hierarchy=hierarchy,
    )


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
    leaves: dict  # parameter class -> leaf Tensor over the class's block of `flat`
    grad: np.ndarray  # the leaves' gradients, laid out like `flat`; None on constants


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


def _cascade_layer_t(x, J, R, t, c, s, index, pc):
    """One cascade layer as one tape node: (x, J) -> (x_next, J_next = J_k J).

    R, t, c, s hold the rows of every layer's clusters; the RowIndex `index`
    looks this layer's rows up per Gaussian. pc are the looked-up centroids
    (constant).
    J is None on the first layer. Returns (x_next, J_next, the looked-up
    rotations as an array). The VJP needs only sigma, sigma', d and `moved`
    from the forward, and scatters the four per-Gaussian gradients back to
    the clusters in one sparse product.
    """
    n = x.shape[0]
    cid = index.idx
    # np.take copies rows of the (L, 3) and (L, 3, 3) arrays faster than a[cid]
    Rg, tg, cg = (np.take(a.value, cid, axis=0) for a in (R, t, c))
    sg = s.value[cid]
    d = x.value - pc
    th = np.tanh(geometry.sum_last(cg * d) + sg)  # (N,)
    sig = th + 1.0
    moved = np.einsum("...ij,...j->...i", Rg, d) + tg
    # written as x + (sigma*moved - d) so the zero cascade is an exact
    # identity in floating point
    x_next = x.value + (moved * sig.reshape(n, 1) - d)
    sigp = 1.0 - th * th
    cs = cg * sigp.reshape(n, 1)
    Jk = Rg * sig.reshape(n, 1, 1) + np.einsum("...i,...j->...ij", moved, cs)
    J_next = Jk if J is None else Jk @ J.value

    def vjp(gx, gJ):
        gx = np.zeros((n, 3)) if gx is None else gx
        gK = np.zeros((n, 3, 3)) if gJ is None else gJ
        if J is not None:
            if J.requires_grad and gJ is not None:
                ad._accum(J, ad._transposed(Jk) @ gJ)
            gK = gK @ ad._transposed(J.value)
        # x_next = x + sigma moved - d and J_k = sigma R + moved (sigma' c)^T
        g_moved = gx * sig[:, None] + np.einsum("...ij,...j->...i", gK, cs)
        g_cs = np.einsum("...ij,...i->...j", gK, moved)
        g_sig = geometry.sum_last(gx * moved) + (gK * Rg).sum(axis=(-2, -1))
        g_u = (g_sig - 2.0 * th * geometry.sum_last(g_cs * cg)) * sigp
        g_d = g_u[:, None] * cg + np.einsum("...ij,...i->...j", Rg, g_moved)
        if x.requires_grad:  # d = x - pc, and x_next's own x cancels -d's
            ad._accum(x, g_d)
        per_gaussian = np.concatenate([
            (gK * sig[:, None, None] + g_moved[:, :, None] * d[:, None, :]).reshape(n, 9),
            g_moved,
            g_cs * sigp[:, None] + g_u[:, None] * d,
            g_u[:, None],
        ], axis=1)
        per_cluster = index.scatter(per_gaussian)
        ad._accum(R, per_cluster[:, :9].reshape(R.shape))
        ad._accum(t, per_cluster[:, 9:12])
        ad._accum(c, per_cluster[:, 12:15])
        ad._accum(s, per_cluster[:, 15])

    parents = (x, R, t, c, s) if J is None else (x, R, t, c, s, J)
    x_next, J_next = ad._make_multi((x_next, J_next), parents, vjp)
    return x_next, J_next, Rg


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


def _shifted_t(x, d_centers):
    """The center deltas, x + d_centers, as one node (d_centers's leaf buffer adds g in)."""

    def vjp(g):
        ad._accum(x, g.copy())  # g is the sum's own gradient
        ad._accum(d_centers, g)

    return ad._make(x.value + d_centers.value, (x, d_centers), vjp)


def _scaled_t(scales, d_log_scales):
    """The scale deltas, scales * exp(d_log_scales), as one node."""
    factor = np.exp(d_log_scales.value)

    def vjp(g):
        ad._accum(scales, g * factor)
        ad._accum(d_log_scales, (g * scales.value) * factor)

    return ad._make(scales.value * factor, (scales, d_log_scales), vjp)


def trace_cascade(cascade, gset, propagate_covariance=True, differentiable=True, frame=None):
    """Run the cascade on `gset`, building the autodiff graph.

    With differentiable=False the same code path runs on constants (no graph),
    which keeps the evaluation and training forwards numerically identical.
    `frame` is the CascadeFrame of `gset` that a frame's fit shares between its
    evaluations; without it one is built for this call. Raises ValueError,
    naming the first such Gaussian, on a propagated covariance that is not
    positive definite, and then on one the eigensolver did not converge on
    (a non-finite one passes the first check).
    """
    hier = cascade.hierarchy
    if frame is None:
        frame = CascadeFrame(gset, hier)
    if differentiable:
        grad = np.zeros_like(cascade.flat)
        grads = cascade.class_views(grad)
        leaves = {name: ad.leaf(a, grad=grads[name]) for name, a in cascade.classes.items()}
    else:
        grad = None
        leaves = {name: ad.constant(a) for name, a in cascade.classes.items()}

    x = ad.constant(gset.centers)
    J = None
    R_casc = None  # composed layer rotations R_K ... R_1, the gauge reference
    # every layer's cluster rotations, converted at once; each layer node
    # looks its rows up through the layer's RowIndex into the class rows
    R = quat_to_mat_t(quat_normalize_t(leaves["rotations"]))  # (sum L, 3, 3)
    for index, pc in zip(hier.row_indices, frame.centroids):
        x, J, Rg = _cascade_layer_t(x, J, R, leaves["translations"], leaves["scale_dirs"],
                                    leaves["scale_biases"], index, pc)
        R_casc = Rg if R_casc is None else Rg @ R_casc

    centers_out = _shifted_t(x, leaves["d_centers"])

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
        leaves=leaves,
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
        trace = trace_cascade(
            cascade, gset, propagate_covariance=propagate_covariance, differentiable=False
        )
    return GaussianSet(
        centers=trace.centers.value,
        orientations=trace.orientations.value,
        scales=trace.scales.value,
        colors=gset.colors.copy(),
        frame_index=gset.frame_index + 1,
    )


def cascade_jacobians(cascade, gset):
    """Accumulated spatial Jacobian J = J_K ... J_1 per Gaussian, (N, 3, 3)."""
    trace = trace_cascade(cascade, gset, propagate_covariance=False, differentiable=False)
    return trace.jacobians.value


def propagated_covariances(cascade, gset):
    """J Sigma J^T per Gaussian (exactly symmetric), without the refactoring."""
    trace = trace_cascade(cascade, gset, propagate_covariance=True, differentiable=False)
    return trace.covariances


# ---------------------------------------------------------------------------
# serialization (bit-exact via hex floats)


def _arr_to_hex(a):
    return {"shape": list(a.shape), "data": list(map(float.hex, a.ravel().tolist()))}


def _arr_from_hex(payload):
    data = np.array(list(map(float.fromhex, payload["data"])), dtype=np.float64)
    return data.reshape(payload["shape"])


def cascade_to_payload(cascade):
    return {
        "layers": [{name: _arr_to_hex(getattr(layer, name)) for name in _LAYER_CLASSES}
                   for layer in cascade.layers],
        **{name: _arr_to_hex(getattr(cascade, name)) for name in _GAUSSIAN_CLASSES},
    }


def cascade_from_payload(payload, hierarchy):
    # checkpoints may carry an "anchored" flag; the map below is the anchored one
    if payload.get("anchored", True) is not True:
        raise ValueError("checkpoint field 'anchored' is not true: only the anchored"
                         " cascade map can be replayed")
    return CascadeDeform(
        layers=[DeformLayer(**{name: _arr_from_hex(layer[name]) for name in _LAYER_CLASSES})
                for layer in payload["layers"]],
        **{name: _arr_from_hex(payload[name]) for name in _GAUSSIAN_CLASSES},
        hierarchy=hierarchy,
    )
