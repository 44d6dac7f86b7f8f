"""Quaternion / rotation / covariance primitives (plain numpy, batched).

Quaternions are stored (w, x, y, z) and interpreted in the Hamilton
convention; rotation matrices act on column vectors. All functions broadcast
over leading axes.
"""

from __future__ import annotations

import numpy as np

_NORM_FLOOR = 1e-12


def quat_normalize(q):
    """Scale to unit length. Raises ValueError on (near-)zero input."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1)
    if np.any(n < _NORM_FLOOR):
        raise ValueError("cannot normalize a zero-length quaternion")
    return q / n[..., None]


def quat_multiply(a, b):
    """Hamilton product a*b (compose rotations: a after b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conjugate(q):
    q = np.asarray(q, dtype=np.float64)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_inverse(q):
    """Inverse for unit quaternions (== conjugate); normalizes defensively."""
    return quat_conjugate(quat_normalize(q))


def quat_to_matrix(q):
    """Quaternion -> rotation matrix, shape (..., 3, 3); normalizes first."""
    return unit_quat_to_matrix(quat_normalize(q))


def unit_quat_to_matrix(q):
    """Rotation matrix of quaternions already of unit length (not renormalized)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def matrix_to_quat(R):
    """Rotation matrix -> unit quaternion with w >= 0.

    Shepperd branch selection: pick the largest of (trace, R00, R11, R22) so
    the division is always well conditioned.
    """
    R = np.asarray(R, dtype=np.float64)
    batch = R.shape[:-2]
    r00, r11, r22 = R[..., 0, 0], R[..., 1, 1], R[..., 2, 2]
    tr = r00 + r11 + r22

    cand = np.empty(batch + (4, 4), dtype=np.float64)
    # branch 0: trace dominant
    t0 = 1.0 + tr
    s0 = np.sqrt(np.maximum(t0, 1e-300)) * 2.0
    cand[..., 0, 0] = 0.25 * s0
    cand[..., 0, 1] = (R[..., 2, 1] - R[..., 1, 2]) / s0
    cand[..., 0, 2] = (R[..., 0, 2] - R[..., 2, 0]) / s0
    cand[..., 0, 3] = (R[..., 1, 0] - R[..., 0, 1]) / s0
    # branch 1: R00 dominant
    t1 = 1.0 + r00 - r11 - r22
    s1 = np.sqrt(np.maximum(t1, 1e-300)) * 2.0
    cand[..., 1, 0] = (R[..., 2, 1] - R[..., 1, 2]) / s1
    cand[..., 1, 1] = 0.25 * s1
    cand[..., 1, 2] = (R[..., 0, 1] + R[..., 1, 0]) / s1
    cand[..., 1, 3] = (R[..., 0, 2] + R[..., 2, 0]) / s1
    # branch 2: R11 dominant
    t2 = 1.0 - r00 + r11 - r22
    s2 = np.sqrt(np.maximum(t2, 1e-300)) * 2.0
    cand[..., 2, 0] = (R[..., 0, 2] - R[..., 2, 0]) / s2
    cand[..., 2, 1] = (R[..., 0, 1] + R[..., 1, 0]) / s2
    cand[..., 2, 2] = 0.25 * s2
    cand[..., 2, 3] = (R[..., 1, 2] + R[..., 2, 1]) / s2
    # branch 3: R22 dominant
    t3 = 1.0 - r00 - r11 + r22
    s3 = np.sqrt(np.maximum(t3, 1e-300)) * 2.0
    cand[..., 3, 0] = (R[..., 1, 0] - R[..., 0, 1]) / s3
    cand[..., 3, 1] = (R[..., 0, 2] + R[..., 2, 0]) / s3
    cand[..., 3, 2] = (R[..., 1, 2] + R[..., 2, 1]) / s3
    cand[..., 3, 3] = 0.25 * s3

    scores = np.stack([tr, r00, r11, r22], axis=-1)
    pick = np.argmax(scores, axis=-1)
    q = np.take_along_axis(cand, pick[..., None, None].repeat(4, axis=-1), axis=-2)
    q = q.reshape(batch + (4,))
    q = quat_normalize(q)
    # canonical hemisphere: w >= 0
    flip = q[..., 0] < 0.0
    q = np.where(flip[..., None], -q, q)
    return q


def rotation_angle(q):
    """Rotation angle in radians of a unit quaternion, in [0, pi]."""
    q = quat_normalize(q)
    w = np.clip(np.abs(q[..., 0]), 0.0, 1.0)
    return 2.0 * np.arccos(w)


def relative_rotation_angle(a, b):
    """Angle in radians of the rotation taking b to a."""
    return rotation_angle(quat_multiply(quat_normalize(a), quat_inverse(b)))


def compose_covariance(q, scales):
    """Sigma = R diag(s^2) R^T for orientation q and per-axis scales s > 0.

    Computed as A A^T with A = R diag(s): entries (i,j) and (j,i) are then
    sums of two-factor products that commute exactly in IEEE arithmetic, so
    the result is bitwise symmetric.
    """
    scales = np.asarray(scales, dtype=np.float64)
    if np.any(scales <= 0.0):
        raise ValueError("scales must be strictly positive")
    A = quat_to_matrix(q) * scales[..., None, :]
    C = np.einsum("...ik,...jk->...ij", A, A)
    return 0.5 * (C + np.swapaxes(C, -1, -2))


_EVAL_FLOOR = 1e-12


def decompose_covariance(sigma):
    """Inverse of compose_covariance up to axis permutation / sign gauge.

    Returns (q, scales) with scales sorted in descending order (ties keep the
    original eigenvector order) and the orientation a proper rotation with
    w >= 0. Raises ValueError if any eigenvalue falls at or below 1e-12, i.e.
    the matrix is not usably positive definite.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    sym_err = np.abs(sigma - np.swapaxes(sigma, -1, -2)).max()
    if sym_err > 1e-9:
        raise ValueError("covariance must be symmetric")
    from .autodiff import jacobi_eigh3

    w, V = jacobi_eigh3(sigma)
    if np.any(w <= _EVAL_FLOOR):
        raise ValueError("covariance is not positive definite")
    # stable descending sort (mergesort keeps tied axes in sweep order)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    V = np.take_along_axis(V, order[..., None, :], axis=-1)
    # restore det +1 if the permutation was odd
    det = np.linalg.det(V)
    V = np.where(det[..., None, None] < 0.0, -V, V)
    return matrix_to_quat(V), np.sqrt(w)
