"""Quaternion / rotation kernels and the floored norm as fused tape primitives.

Each quaternion kernel's forward is the plain-numpy function in `geometry`;
this module holds only the tape wrappers, so gradients flow through them.
Each kernel is a single tape node whose backward pass is a closed-form
vector-Jacobian product:

  * quat_to_mat_t: R(q) is quadratic in q, so the VJP is 2 K(G) q with K a
    symmetric 4x4 matrix read off the upstream (3, 3) gradient G;
  * quat_multiply_t: the Hamilton product is bilinear, so the VJPs are
    g * conj(b) and conj(a) * g;
  * quat_normalize_t: (g - n (n . g)) / |q| above the norm floor; below it
    the norm is the constant floor;
  * mat_to_quat_t: the chosen Shepperd branch's 4x9 Jacobian after the
    normalize VJP;
  * safe_norm: x / |x| above the norm floor and 0 below it, where the norm
    is the constant floor. Its forward and VJP are the numpy helpers
    `geometry.floored_norm` and `floored_norm_adjoint`, which the fused
    neighbour terms in `losses` share.

Piecewise definitions (branch selection, hemisphere signs, norm floors)
take their branch from the forward values and treat it as constant, which is
the correct almost-everywhere derivative.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry


def floored_norm_adjoint(g, x, norm, above):
    """The gradient w.r.t. x of `geometry.floored_norm`, given the norms'
    gradient g: (g * 0.5 / norm)[..., None] * 2x above the floor, one
    component at a time as in the forward."""
    scale = (g * (0.5 / norm)) * above
    gx = 2.0 * x
    for c in range(x.shape[-1]):
        gx[..., c] *= scale
    return gx


def safe_norm(x):
    """Euclidean norm over the last axis, floored; gradient 0 below the floor.

    One node over `geometry.floored_norm`; the neighbour graph's rest lengths
    are its forward of the frame-0 edges.
    """
    x = ad._wrap(x)
    v, above = geometry.floored_norm(x.value)

    def vjp(g):
        ad._accum(x, floored_norm_adjoint(g, x.value, v, above))

    return ad._make(v, (x,), vjp)


def _normalize_vjp(g, unit, inv, above):
    radial = np.where(above, geometry.sum_last(unit * g), 0.0)
    return (g - unit * radial[..., None]) * inv[..., None]


def quat_normalize_t(q):
    """q / |q| over the last axis, with the norm floored at 1e-12."""
    q = ad._wrap(q)
    unit, inv, above = geometry._normalize(q.value)

    def vjp(g):
        ad._accum(q, _normalize_vjp(g, unit, inv, above))

    return ad._make(unit, (q,), vjp)


def quat_multiply_t(a, b):
    """Hamilton product a * b on the tape, for operands of one shape (N, 4)."""
    a, b = ad._wrap(a), ad._wrap(b)
    v = geometry.quat_multiply(a.value, b.value)

    def vjp(g):
        if a.requires_grad:
            ad._accum(a, geometry.quat_multiply(g, geometry.quat_conjugate(b.value)))
        if b.requires_grad:
            ad._accum(b, geometry.quat_multiply(geometry.quat_conjugate(a.value), g))

    return ad._make(v, (a, b), vjp)


def quat_to_mat_t(q):
    """Unit quaternion (..., 4) -> rotation matrix (..., 3, 3) on the tape.

    The input is not renormalized: callers pass unit quaternions.
    """
    q = ad._wrap(q)
    qv = q.value

    def vjp(g):
        # d/dq <G, R(q)> = 2 K q, with K symmetric in the entries of G
        K = np.empty(g.shape[:-2] + (4, 4))
        K[..., 0, 0] = 0.0
        K[..., 0, 1] = K[..., 1, 0] = g[..., 2, 1] - g[..., 1, 2]
        K[..., 0, 2] = K[..., 2, 0] = g[..., 0, 2] - g[..., 2, 0]
        K[..., 0, 3] = K[..., 3, 0] = g[..., 1, 0] - g[..., 0, 1]
        K[..., 1, 1] = -2.0 * (g[..., 1, 1] + g[..., 2, 2])
        K[..., 2, 2] = -2.0 * (g[..., 0, 0] + g[..., 2, 2])
        K[..., 3, 3] = -2.0 * (g[..., 0, 0] + g[..., 1, 1])
        K[..., 1, 2] = K[..., 2, 1] = g[..., 0, 1] + g[..., 1, 0]
        K[..., 1, 3] = K[..., 3, 1] = g[..., 0, 2] + g[..., 2, 0]
        K[..., 2, 3] = K[..., 3, 2] = g[..., 1, 2] + g[..., 2, 1]
        ad._accum(q, 2.0 * np.einsum("...ij,...j->...i", K, qv))

    return ad._make(geometry.unit_quat_to_matrix(qv), (q,), vjp)


def mat_to_quat_t(R):
    """Rotation matrix -> unit quaternion with w >= 0, on the tape.

    The forward is `geometry.shepperd`; the chosen branch and hemisphere
    sign are constants of the backward pass.
    """
    R = ad._wrap(R)
    q, branch = geometry.shepperd(R.value)
    dominant, D, Nb, s, open_, cand, (unit, inv, above), hemi = branch

    def vjp(g):
        gc = _normalize_vjp(g * hemi, unit, inv, above)
        g_num = np.where(dominant, 0.0, gc / s[..., None])
        g_s = geometry.sum_last(np.where(dominant, 0.25 * gc, -g_num * cand))
        g_t = np.where(open_, g_s * (2.0 / s), 0.0)
        g_flat = np.einsum("...i,...ij->...j", g_num, Nb)
        g_flat[..., ::4] += g_t[..., None] * D
        ad._accum(R, g_flat.reshape(R.value.shape))

    return ad._make(q, (R,), vjp)
