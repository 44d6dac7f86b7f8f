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
them once, with the row each holds in the identity cascade, and
`CascadeDeform.arrays()` hands out the live arrays under the keys of
`CascadeTrace.leaves`. `cascade_zero`, `is_zero`, `trace_cascade` and the
checkpoint payload all iterate that table.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry
from .core import GaussianSet
from .tapemath import mat_to_quat_t, quat_multiply_t, quat_normalize_t, quat_to_mat_t

_IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
_PD_FLOOR = 1e-12

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


@dataclass
class DeformLayer:
    """Struct-of-arrays parameters for every cluster of one layer."""

    rotations: np.ndarray  # (L, 4)
    translations: np.ndarray  # (L, 3)
    scale_dirs: np.ndarray  # (L, 3)
    scale_biases: np.ndarray  # (L,)

    @property
    def size(self):
        return self.rotations.shape[0]


@dataclass
class CascadeDeform:
    """K cluster layers (coarsest first) plus per-Gaussian deltas."""

    layers: list  # list[DeformLayer]
    d_centers: np.ndarray  # (N, 3)
    d_rotations: np.ndarray  # (N, 4)
    d_log_scales: np.ndarray  # (N, 3)
    hierarchy: object  # ClusterHierarchy this cascade is bound to

    def __post_init__(self):
        sizes = tuple(layer.size for layer in self.layers)
        if sizes != tuple(self.hierarchy.layer_sizes):
            raise ValueError(
                f"layer sizes {sizes} do not match hierarchy {tuple(self.hierarchy.layer_sizes)}"
            )

    @property
    def n(self):
        return self.d_centers.shape[0]

    def arrays(self):
        """{key: live parameter array}, keyed and ordered like CascadeTrace.leaves:
        `layer<k>.<class>` for every layer, then the d_* classes."""
        out = {f"layer{k}.{name}": getattr(layer, name)
               for k, layer in enumerate(self.layers) for name in _LAYER_CLASSES}
        out.update((name, getattr(self, name)) for name in _GAUSSIAN_CLASSES)
        return out

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
    return _SIGNED_PERMUTATIONS[best]


# ---------------------------------------------------------------------------
# cascade forward (traced)


@dataclass
class CascadeTrace:
    """Tape handles for one cascade application."""

    centers: ad.Tensor  # (N, 3)
    orientations: ad.Tensor  # (N, 4)
    scales: ad.Tensor  # (N, 3)
    jacobians: ad.Tensor  # (N, 3, 3) accumulated spatial Jacobian
    covariances: ad.Tensor  # (N, 3, 3) propagated, exactly symmetric; None if off
    leaves: dict  # parameter name -> leaf Tensor


def trace_cascade(cascade, gset, propagate_covariance=True, differentiable=True):
    """Run the cascade on `gset`, building the autodiff graph.

    With differentiable=False the same code path runs on constants (no graph),
    which keeps the evaluation and training forwards numerically identical.
    """
    hier = cascade.hierarchy
    n = gset.n
    mk = ad.leaf if differentiable else ad.constant
    leaves = {key: mk(a) for key, a in cascade.arrays().items()}

    x = ad.constant(gset.centers)
    J = None
    R_casc = None  # composed layer rotations R_K ... R_1, the gauge reference
    for k in range(len(cascade.layers)):
        layer = {name: leaves[f"layer{k}.{name}"] for name in _LAYER_CLASSES}
        cid = hier.assignments[k]
        # convert the layer's L rotations once, then look them up per Gaussian
        R = ad.gather(quat_to_mat_t(quat_normalize_t(layer["rotations"])), cid)  # (N, 3, 3)
        t = ad.gather(layer["translations"], cid)
        c = ad.gather(layer["scale_dirs"], cid)
        s = ad.gather(layer["scale_biases"], cid)
        pc = ad.constant(hier.centroids[k][cid])

        d = x - pc
        u = ad.tsum(ad.mul(c, d), axis=-1) + s  # (N,)
        th = ad.tanh(u)
        sig = th + 1.0
        moved = ad.matvec(R, d) + t
        # written as x + (sigma*moved - d) so the zero cascade is an exact
        # identity in floating point
        x = x + (ad.mul(moved, ad.reshape(sig, (n, 1))) - d)
        sigp = 1.0 - ad.mul(th, th)
        Jk = ad.mul(R, ad.reshape(sig, (n, 1, 1))) + ad.outer(
            moved, ad.mul(c, ad.reshape(sigp, (n, 1)))
        )
        J = Jk if J is None else ad.matmul(Jk, J)
        R_casc = R.value if R_casc is None else R.value @ R_casc

    centers_out = x + leaves["d_centers"]

    cov = None
    if propagate_covariance:
        prev_R = geometry.quat_to_matrix(gset.orientations)
        A0 = ad.constant(prev_R * gset.scales[:, None, :])  # R_prev diag(s_prev)
        A = ad.matmul(J, A0)
        M = ad.matmul(A, ad.transpose_last2(A))
        M = ad.mul(M + ad.transpose_last2(M), 0.5)  # bitwise-exact symmetry
        cov = M

        # gauge reference: constants of the backward pass (see module docstring)
        Q = R_casc @ prev_R
        B = ad.matmul(ad.matmul(ad.constant(np.swapaxes(Q, -1, -2)), M), ad.constant(Q))
        B = ad.mul(B + ad.transpose_last2(B), 0.5)
        evals, evecs = ad.eigh3(B)
        if np.any(evals.value <= _PD_FLOOR):
            idx = int(np.argmax(np.min(evals.value, axis=-1) <= _PD_FLOOR))
            raise ValueError(
                f"propagated covariance is not positive definite for Gaussian {idx}"
                " (degenerate deformation Jacobian)"
            )
        P = _nearest_signed_permutation(evecs.value)
        R_dec = ad.matmul(ad.constant(Q), ad.matmul(evecs, ad.constant(P)))
        perm = np.abs(np.swapaxes(P, -1, -2))
        scales_prop = ad.sqrt(ad.matvec(ad.constant(perm), evals))
        q_prop = mat_to_quat_t(R_dec)
    else:
        q_prop = ad.constant(gset.orientations)
        scales_prop = ad.constant(gset.scales)

    dq = quat_normalize_t(leaves["d_rotations"])
    orientations_out = quat_normalize_t(quat_multiply_t(dq, q_prop))
    scales_out = ad.mul(scales_prop, ad.exp(leaves["d_log_scales"]))

    return CascadeTrace(
        centers=centers_out,
        orientations=orientations_out,
        scales=scales_out,
        jacobians=J,
        covariances=cov,
        leaves=leaves,
    )


def cascade_apply(cascade, gset, propagate_covariance=True):
    """Deform a GaussianSet; returns a new set with frame_index + 1.

    The all-zero cascade short-circuits to an exact copy (identity map).
    """
    if cascade.is_zero():
        out = gset.copy()
        out.frame_index = gset.frame_index + 1
        return out
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
    return trace.covariances.value


# ---------------------------------------------------------------------------
# serialization (bit-exact via hex floats)


def _arr_to_hex(a):
    return {"shape": list(a.shape), "data": [float(v).hex() for v in a.ravel()]}


def _arr_from_hex(payload):
    data = np.array([float.fromhex(v) for v in payload["data"]], dtype=np.float64)
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
