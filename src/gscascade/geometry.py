"""Quaternion / rotation / covariance numerics (plain numpy, batched).

Quaternions are stored (w, x, y, z) and interpreted in the Hamilton
convention; rotation matrices act on column vectors. All functions broadcast
over leading axes.

This module is the one implementation of each rotation kernel: the norm
floor and floored normalize, Shepperd's matrix -> quaternion table and the
cyclic Jacobi 3x3 eigensolver. The tape primitives in `tapemath` and
`autodiff.eigh3` call these as their forwards and add only the VJPs. Sums
over a short last axis (3 or 4 components) go through `sum_last`, which
gives np.sum's bits without its per-row loops.

The Jacobi solver works on a batch of n matrices laid out by entry, not by
matrix: the three diagonal and the three off-diagonal entries are six
contiguous length-n vectors and the eigenvectors three (3, n) columns, so
each rotation step is a few passes over n numbers. It reports which
matrices did not converge.
"""

from __future__ import annotations

import numpy as np

_NORM_FLOOR = 1e-12
_PD_FLOOR = 1e-12  # the eigenvalues of a usable covariance are above it


def sum_last(x):
    """x.sum(axis=-1) for a last axis of 2 to 7 entries, bit for bit, one
    whole component at a time instead of numpy's per-row reduction loops.
    numpy adds fewer than 8 entries in order, starting from +0.0; the final
    + 0.0 does what that start does (it turns an all -0.0 sum into +0.0)."""
    out = x[..., 0] + x[..., 1]
    for c in range(2, x.shape[-1]):
        out += x[..., c]
    out += 0.0
    return out


def floored_norm(x):
    """(sqrt(where(|x|^2 > f^2, |x|^2, f^2)), |x|^2 > f^2), f = `_NORM_FLOOR`, over
    the last axis of a numpy array: the norm of `_normalize`, of `tapemath.safe_norm`
    and of the fused neighbour terms, which the rest lengths are compared to."""
    # the squares added in order, bit for bit what np.sum does over a short
    # last axis, but one whole component at a time: numpy's per-row loops
    # over 3 or 4 elements cost several times more at the terms' sizes
    ssq = x[..., 0] * x[..., 0]
    for c in range(1, x.shape[-1]):
        ssq += x[..., c] * x[..., c]
    above = ssq > _NORM_FLOOR * _NORM_FLOOR
    return np.sqrt(np.where(above, ssq, _NORM_FLOOR * _NORM_FLOOR)), above


def quat_normalize(q):
    """Scale to unit length. Raises ValueError on a (near-)zero or overflowing norm."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1)
    if np.any((n < _NORM_FLOOR) | (n == np.inf)):
        raise ValueError("cannot normalize a quaternion of zero or overflowing length")
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


# Shepperd's method (J. Guidance & Control 1(3), 1978): branch b is chosen
# where (trace, R00, R11, R22)[b] is largest, so the division is always well
# conditioned. Its dominant component b is 0.25 s with
# s = 2 sqrt(1 + D_b . diag R), and every other component i is (N[b, i] . vec R) / s.
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


def _normalize(q):
    """q / max(|q|, floor) plus what its VJP needs: (unit, 1/norm, above-floor mask)."""
    norm, above = floored_norm(q)
    inv = 1.0 / norm
    return q * inv[..., None], inv, above


def shepperd(R):
    """Rotation matrix -> (unit quaternion with w >= 0, branch data), batched.

    The branch data are the forward values that `tapemath.mat_to_quat_t`'s
    VJP holds constant.
    """
    R = np.asarray(R, dtype=np.float64)
    flat = R.reshape(R.shape[:-2] + (9,))
    diag = flat[..., ::4]
    tr = diag[..., 0] + diag[..., 1] + diag[..., 2]
    pick = np.argmax(np.stack([tr, diag[..., 0], diag[..., 1], diag[..., 2]], axis=-1), axis=-1)
    dominant = pick[..., None] == np.arange(4)  # (..., 4), True at component `pick`
    D = np.take(_SHEPPERD_DIAG, pick, axis=0)  # (..., 3)
    Nb = np.take(_SHEPPERD_NUM, pick, axis=0)  # (..., 4, 9)

    t_raw = 1.0 + sum_last(D * diag)
    open_ = t_raw > 1e-12
    s = np.sqrt(np.where(open_, t_raw, 1e-12)) * 2.0
    num = np.einsum("...ij,...j->...i", Nb, flat)
    cand = np.where(dominant, 0.25 * s[..., None], num / s[..., None])
    norm = _normalize(cand)
    hemi = np.where(norm[0][..., :1] < 0.0, -1.0, 1.0)
    return norm[0] * hemi, (dominant, D, Nb, s, open_, cand, norm, hemi)


def matrix_to_quat(R):
    """Rotation matrix -> unit quaternion with w >= 0 (Shepperd's method)."""
    return shepperd(R)[0]


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


# Relative off-diagonal Frobenius residual at which the cyclic Jacobi sweep
# stops; also the documented accuracy of the factorization.
eigh3_offdiag_tol = 1e-10


def jacobi_eigh3(S, max_sweeps=30):
    """Batched cyclic Jacobi diagonalization of symmetric 3x3 matrices.

    Returns (evals, evecs, converged) with S = V diag(w) V^T, V a proper
    rotation, and `converged` a boolean per matrix. Eigenvalues come out
    unsorted, in whatever axis order the sweep leaves them; callers that need
    a canonical order sort on top. Convergence is declared when the
    off-diagonal Frobenius mass drops below eigh3_offdiag_tol times the norm.
    A matrix still above it after `max_sweeps` sweeps, or one with a
    non-finite entry, is reported unconverged; its last iterate is returned.

    Every sweep rotates all matrices until all have converged. A's entries
    are held as six length-n vectors (see the module docstring): the first
    rotation reads A[2, 0] and A[2, 1] from the lower triangle of S, and after
    it A is symmetric. A pivot |a_pq| at or below 1e-300 (or NaN) gets no
    rotation: its t is masked to 0 after tau and t are computed unguarded.
    """
    S = np.asarray(S, dtype=np.float64)
    batch = S.shape[:-2]
    flat = S.reshape(-1, 9)
    diag = [flat[:, 0].copy(), flat[:, 4].copy(), flat[:, 8].copy()]
    # off[p + q - 1] is A[p, q] = A[q, p]: (0, 1), (0, 2), (1, 2)
    off = [flat[:, 1].copy(), flat[:, 2].copy(), flat[:, 5].copy()]
    zero = np.zeros(flat.shape[0])  # never written in place
    V = list(np.eye(3)[:, :, None] * np.ones(flat.shape[0]))  # V[p][i] is V_ip, (3, n)
    norm = np.sqrt(np.einsum("...ij,...ij->...", S, S)).reshape(-1)
    thresh = eigh3_offdiag_tol * np.maximum(norm, 1e-300)

    # |tau| can be ~1/eps when the off-diagonal is tiny; tau*tau then
    # overflows to inf, which still yields the correct t -> 0 limit. A zero
    # pivot divides by zero (0/0 on an equal diagonal); its t is masked out.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sweep in range(max_sweeps + 1):
            converged = np.sqrt(off[0] ** 2 + off[1] ** 2 + off[2] ** 2) <= thresh
            if sweep == max_sweeps or np.all(converged):
                break
            if sweep == 0:  # the first rotation reads A[2, 0] and A[2, 1]
                off[1] = flat[:, 6].copy()
                off[2] = flat[:, 7].copy()
            for p, q in ((0, 1), (0, 2), (1, 2)):
                apq, app, aqq = off[p + q - 1], diag[p], diag[q]
                tau = (aqq - app) / (2.0 * apq)
                sign_tau = np.where(tau >= 0.0, 1.0, -1.0)
                t = sign_tau / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t = np.where(np.abs(apq) > 1e-300, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                r = 3 - p - q  # the untouched index
                rp, rq = r + p - 1, r + q - 1  # A[r, p] and A[r, q]
                arp, arq = off[rp], off[rq]
                t_apq = t * apq
                diag[p] = app - t_apq
                diag[q] = aqq + t_apq
                off[p + q - 1] = zero
                off[rp] = c * arp - s * arq
                off[rq] = s * arp + c * arq

                vp, vq = V[p], V[q]
                V[p] = c * vp - s * vq
                V[q] = s * vp + c * vq

    evals = np.stack(diag, axis=-1).reshape(batch + (3,))
    evecs = np.stack(V, axis=-1).transpose(1, 0, 2).copy().reshape(batch + (3, 3))
    return evals, evecs, (converged & np.isfinite(norm)).reshape(batch)


def decompose_covariance(sigma):
    """Inverse of compose_covariance up to axis permutation / sign gauge.

    Returns (q, scales) with scales sorted in descending order (ties keep the
    original eigenvector order) and the orientation a proper rotation with
    w >= 0. Raises ValueError if any eigenvalue falls at or below 1e-12, i.e.
    the matrix is not usably positive definite, and if the eigensolver does
    not converge (a non-finite matrix passes both other checks).
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    sym_err = np.abs(sigma - np.swapaxes(sigma, -1, -2)).max()
    if sym_err > 1e-9:
        raise ValueError("covariance must be symmetric")
    w, V, converged = jacobi_eigh3(sigma)
    if np.any(w <= _PD_FLOOR):
        raise ValueError("covariance is not positive definite")
    if not np.all(converged):
        raise ValueError("the eigensolver did not converge on the covariance")
    # stable descending sort (mergesort keeps tied axes in sweep order)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    V = np.take_along_axis(V, order[..., None, :], axis=-1)
    # restore det +1 if the permutation was odd
    det = np.linalg.det(V)
    V = np.where(det[..., None, None] < 0.0, -V, V)
    return matrix_to_quat(V), np.sqrt(w)
