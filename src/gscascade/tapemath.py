"""Quaternion / rotation kernels as fused autodiff-tape primitives.

These mirror the plain-numpy functions in `geometry` (which double as their
test oracles) but operate on `autodiff.Tensor`s so gradients flow through
them. Each quaternion kernel is a single tape node whose backward pass is a
closed-form vector-Jacobian product:

  * quat_to_mat_t: R(q) is quadratic in q, so the VJP is 2 K(G) q with K a
    symmetric 4x4 matrix read off the upstream (3, 3) gradient G;
  * quat_multiply_t: the Hamilton product is bilinear, so the VJPs are
    g * conj(b) and conj(a) * g;
  * quat_normalize_t: (g - n (n . g)) / |q| above the norm floor; below it
    the norm is the constant floor;
  * mat_to_quat_t: the chosen Shepperd branch's 4x9 Jacobian after the
    normalize VJP.

Piecewise definitions (branch selection, hemisphere signs, norm floors)
take their branch from the forward values and treat it as constant, which is
the correct almost-everywhere derivative.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry

_NORM_FLOOR = 1e-12

# Shepperd's method: branch b is chosen where (trace, R00, R11, R22)[b] is
# largest. Its dominant component b is 0.25 s with s = 2 sqrt(1 + D_b . diag R),
# and every other component i is (N[b, i] . vec R) / s.
_SHEPPERD_DIAG = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)


def _shepperd_numerators():
    """N[b, i]: 4 q_b q_i = R[e] + sign R[f] over vec R (index 3 row + col)."""
    terms = {(0, 1): (7, 5, -1.0), (0, 2): (2, 6, -1.0), (0, 3): (3, 1, -1.0),
             (1, 2): (1, 3, 1.0), (1, 3): (2, 6, 1.0), (2, 3): (5, 7, 1.0)}
    N = np.zeros((4, 4, 9))
    for (i, j), (e, f, sign) in terms.items():
        N[i, j, e] = N[j, i, e] = 1.0
        N[i, j, f] = N[j, i, f] = sign
    return N


_SHEPPERD_NUM = _shepperd_numerators()


def safe_norm(x, floor=_NORM_FLOOR):
    """Euclidean norm over the last axis; gradient 0 below the floor."""
    ssq = ad.tsum(ad.square(x), axis=-1)
    return ad.sqrt(ad.clamp_min(ssq, floor * floor))


def _normalize(q):
    """q / max(|q|, floor) plus what its VJP needs: (unit, 1/norm, above-floor mask)."""
    ssq = (q * q).sum(axis=-1)
    above = ssq > _NORM_FLOOR * _NORM_FLOOR
    inv = 1.0 / np.sqrt(np.where(above, ssq, _NORM_FLOOR * _NORM_FLOOR))
    return q * inv[..., None], inv, above


def _normalize_vjp(g, unit, inv, above):
    radial = np.where(above, (unit * g).sum(axis=-1), 0.0)
    return (g - unit * radial[..., None]) * inv[..., None]


def quat_normalize_t(q):
    """q / |q| over the last axis, with the norm floored at 1e-12."""
    q = ad._wrap(q)
    unit, inv, above = _normalize(q.value)

    def vjp(g):
        ad._accum(q, _normalize_vjp(g, unit, inv, above))

    return ad._make(unit, (q,), vjp)


def quat_multiply_t(a, b):
    """Hamilton product a * b on the tape; operands broadcast over leading axes."""
    a, b = ad._wrap(a), ad._wrap(b)
    v = geometry.quat_multiply(a.value, b.value)

    def vjp(g):
        if a.requires_grad:
            ga = geometry.quat_multiply(g, geometry.quat_conjugate(b.value))
            ad._accum(a, ad._unbroadcast(ga, a.value.shape))
        if b.requires_grad:
            gb = geometry.quat_multiply(geometry.quat_conjugate(a.value), g)
            ad._accum(b, ad._unbroadcast(gb, b.value.shape))

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

    Same Shepperd branch selection as geometry.matrix_to_quat; the chosen
    branch and hemisphere sign are constants of the backward pass.
    """
    R = ad._wrap(R)
    batch = R.value.shape[:-2]
    flat = R.value.reshape(batch + (9,))
    diag = flat[..., ::4]
    tr = diag[..., 0] + diag[..., 1] + diag[..., 2]
    pick = np.argmax(np.stack([tr, diag[..., 0], diag[..., 1], diag[..., 2]], axis=-1), axis=-1)
    dominant = np.eye(4, dtype=bool)[pick]  # (..., 4), True at component `pick`
    D = _SHEPPERD_DIAG[pick]  # (..., 3)
    Nb = _SHEPPERD_NUM[pick]  # (..., 4, 9)

    t_raw = 1.0 + (D * diag).sum(axis=-1)
    open_ = t_raw > 1e-12
    s = np.sqrt(np.where(open_, t_raw, 1e-12)) * 2.0
    num = np.einsum("...ij,...j->...i", Nb, flat)
    cand = np.where(dominant, 0.25 * s[..., None], num / s[..., None])
    unit, inv, above = _normalize(cand)
    hemi = np.where(unit[..., :1] < 0.0, -1.0, 1.0)

    def vjp(g):
        gc = _normalize_vjp(g * hemi, unit, inv, above)
        g_num = np.where(dominant, 0.0, gc / s[..., None])
        g_s = np.where(dominant, 0.25 * gc, -g_num * cand).sum(axis=-1)
        g_t = np.where(open_, g_s * (2.0 / s), 0.0)
        g_flat = np.einsum("...i,...ij->...j", g_num, Nb)
        g_flat[..., ::4] += g_t[..., None] * D
        ad._accum(R, g_flat.reshape(R.value.shape))

    return ad._make(unit * hemi, (R,), vjp)
