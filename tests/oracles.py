"""Plain reference implementations that the tests check shipped code against.

None of these run in the pipeline. Each one restates a shipped computation in
its simplest form, or measures one: a sign-insensitive quaternion distance,
an SVD polar factor (the gauge reference that the cascade's own composed
rotation is checked against), the 24 cube rotations and an exhaustive
nearest-signed-permutation search, one cluster layer in plain numpy for the
traced cascade, value-and-gradient wrappers around single loss terms, a
brute-force Chamfer term, the inverse camera map, the per-candidate loop of
track selection, and Procrustes subset checks for the rigid-subpart rotation
property.
"""

from dataclasses import dataclass

import numpy as np

from gscascade import autodiff as ad
from gscascade import geometry
from gscascade.losses import data_loss_t, isometry_loss_t, rigidity_loss_t, rotation_loss_t
from gscascade.segmentation import procrustes_rotation
from gscascade.tracking import CANDIDATE_RADIUS_PX, mte, project, project_track

# ---------------------------------------------------------------------------
# geometry


def quat_distance(a, b):
    """Sign-insensitive chordal distance min(|a-b|, |a+b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d1 = np.linalg.norm(a - b, axis=-1)
    d2 = np.linalg.norm(a + b, axis=-1)
    return np.minimum(d1, d2)


def polar_rotation(M):
    """Closest rotation (orthogonal polar factor, det +1) to matrices M."""
    M = np.asarray(M, dtype=np.float64)
    U, _, Vt = np.linalg.svd(M)
    det = np.linalg.det(U @ Vt)
    # flip the least significant singular direction when det == -1
    U2 = U.copy()
    U2[..., :, -1] *= np.where(det < 0.0, -1.0, 1.0)[..., None]
    return U2 @ Vt


def cube_rotations():
    """The 24 rotations that map the cube onto itself (the proper signed
    permutation matrices), generated as the closure of quarter turns about x
    and about z."""
    turns = (np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
             np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]))
    group = [np.eye(3, dtype=int)]
    for g in group:  # grows while it is walked
        for turn in turns:
            h = turn @ g
            if not any(np.array_equal(h, k) for k in group):
                group.append(h)
    return np.array(group, dtype=np.float64)


def nearest_signed_permutation(V):
    """Per basis V, the cube rotation P minimising |V P - I|_F, by trying all."""
    V = np.asarray(V, dtype=np.float64)
    rots = cube_rotations()
    dist = np.linalg.norm(V[:, None] @ rots[None] - np.eye(3), axis=(-2, -1))
    return rots[np.argmin(dist, axis=1)]


# ---------------------------------------------------------------------------
# one cluster layer of the cascade


@dataclass
class ClusterDeformParams:
    """One cluster's deformation: rotation, translation, and the scaling field."""

    rotation: np.ndarray  # (4,) unit quaternion
    translation: np.ndarray  # (3,)
    scale_dir: np.ndarray  # (3,) direction of the scaling-factor gradient
    scale_bias: float  # scalar offset inside the tanh

    @classmethod
    def zero(cls):
        return cls(
            rotation=np.array([1.0, 0.0, 0.0, 0.0]),
            translation=np.zeros(3),
            scale_dir=np.zeros(3),
            scale_bias=0.0,
        )


def scaling_factor(params, centroid, x):
    """sigma(x) = tanh(c . (x - p_c) + s) + 1, always in (0, 2)."""
    x = np.asarray(x, dtype=np.float64)
    d = x - np.asarray(centroid, dtype=np.float64)
    u = d @ np.asarray(params.scale_dir, dtype=np.float64) + params.scale_bias
    return np.tanh(u) + 1.0


def layer_apply(params, centroid, x):
    """Apply one cluster deformation to point(s) x of shape (..., 3)."""
    x = np.asarray(x, dtype=np.float64)
    centroid = np.asarray(centroid, dtype=np.float64)
    d = x - centroid
    R = geometry.quat_to_matrix(params.rotation)
    moved = d @ R.T + params.translation
    sig = scaling_factor(params, centroid, x)
    return x + (sig[..., None] * moved - d)


def layer_jacobian(params, centroid, x):
    """Spatial Jacobian of layer_apply at x."""
    x = np.asarray(x, dtype=np.float64)
    centroid = np.asarray(centroid, dtype=np.float64)
    d = x - centroid
    R = geometry.quat_to_matrix(params.rotation)
    moved = d @ R.T + params.translation
    u = d @ np.asarray(params.scale_dir, dtype=np.float64) + params.scale_bias
    th = np.tanh(u)
    sig = th + 1.0
    sigp = 1.0 - th * th
    return sig[..., None, None] * R + np.einsum(
        "...i,...j->...ij", moved, sigp[..., None] * np.broadcast_to(params.scale_dir, x.shape)
    )


# ---------------------------------------------------------------------------
# single loss terms: value and gradient w.r.t. the state arrays


def scale_loss(gset, max_scale):
    """Hinge value and its (N, 3) gradient w.r.t. scales."""
    if max_scale <= 0.0:
        raise ValueError("max_scale must be positive")
    over = gset.scales - max_scale
    mask = over > 0.0
    value = float(np.where(mask, over, 0.0).sum() / gset.n)
    return value, mask.astype(np.float64) / gset.n


def eval_with_grads(build, leaves):
    loss = build()
    loss.backward()
    grads = {
        name: (np.zeros_like(t.value) if t.grad is None else t.grad) for name, t in leaves.items()
    }
    return float(loss.value), grads


def rigidity_loss(prev_set, curr_set, graph):
    c = ad.leaf(curr_set.centers)
    q = ad.leaf(curr_set.orientations)
    return eval_with_grads(
        lambda: rigidity_loss_t(prev_set, c, q, graph), {"centers": c, "orientations": q}
    )


def isometry_loss(frame0_set, curr_set, graph):
    c = ad.leaf(curr_set.centers)
    return eval_with_grads(lambda: isometry_loss_t(frame0_set.centers, c, graph), {"centers": c})


def rotation_loss(prev_set, curr_set, graph):
    q = ad.leaf(curr_set.orientations)
    return eval_with_grads(lambda: rotation_loss_t(prev_set, q, graph), {"orientations": q})


def data_loss(curr_set, obs, workers=1):
    c = ad.leaf(curr_set.centers)
    return eval_with_grads(lambda: data_loss_t(c, obs, workers=workers), {"centers": c})


def chamfer_loss(centers, points):
    """Symmetric Chamfer value (mean squared nearest distance each way, halved)
    and its (N, 3) gradient w.r.t. centers, from the full distance matrix."""
    centers = np.asarray(centers, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    n, m = centers.shape[0], points.shape[0]
    d2 = np.sum((centers[:, None, :] - points[None, :, :]) ** 2, axis=-1)  # (N, M)
    nn_c = np.argmin(d2, axis=1)
    nn_o = np.argmin(d2, axis=0)
    value = 0.5 * (d2[np.arange(n), nn_c].mean() + d2[nn_o, np.arange(m)].mean())
    grad = (centers - points[nn_c]) / n
    for j in range(m):
        grad[nn_o[j]] += (centers[nn_o[j]] - points[j]) / m
    return float(value), grad


# ---------------------------------------------------------------------------
# camera


def unproject(camera, pixels, depth):
    """Inverse of tracking.project given per-pixel depth."""
    pixels = np.asarray(pixels, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    x = (pixels[..., 0] - camera.cx) / camera.fx * depth
    y = (pixels[..., 1] - camera.cy) / camera.fy * depth
    cam = np.stack([x, y, depth], axis=-1)
    R = geometry.quat_to_matrix(camera.rotation)
    return (cam - camera.translation) @ R


def select_candidate_loop(centers_traj, camera, gt_track):
    """tracking.select_candidate as one projection and one median per candidate.

    Keeps the first candidate whose MTE is strictly below the best so far, so
    a tie goes to the lowest index and a NaN or inf MTE never wins; returns -1
    when no candidate's MTE is finite.
    """
    centers_traj = np.asarray(centers_traj, dtype=np.float64)
    pix0, _, valid0 = project(camera, centers_traj[0])
    d0 = np.linalg.norm(pix0 - gt_track.pixels[0], axis=-1)
    cand = np.nonzero(valid0 & (d0 <= CANDIDATE_RADIUS_PX))[0]
    if cand.size == 0:
        raise ValueError("no Gaussian projects within 10 px of the track start")
    best_idx = -1
    best_err = np.inf
    for i in cand:
        err = mte(project_track(camera, centers_traj[:, i]), gt_track, camera.image_diagonal)
        if err < best_err:
            best_err = err
            best_idx = int(i)
    return best_idx


# ---------------------------------------------------------------------------
# rigid-subpart rotation property of procrustes_rotation


def _rotations_agree(qs, tol):
    return all(quat_distance(a, b) <= tol for a, b in qs)


def rigid_subpart_rotation_check(subset_a, subset_b, rotation, translation=None, tol=1e-7):
    """Do two subsets of a rigidly moving body recover the same rotation?

    Moves the union of both subsets by (rotation, translation), Procrustes-fits
    each subset and the union independently, and returns True when all three
    rotations agree within `tol` quaternion distance.
    """
    subset_a = np.asarray(subset_a, dtype=np.float64)
    subset_b = np.asarray(subset_b, dtype=np.float64)
    rotation = np.asarray(rotation, dtype=np.float64)
    R = geometry.quat_to_matrix(rotation) if rotation.shape == (4,) else rotation
    t = np.zeros(3) if translation is None else np.asarray(translation, dtype=np.float64)

    union = np.concatenate([subset_a, subset_b])
    moved = union @ R.T + t
    q_union = geometry.matrix_to_quat(procrustes_rotation(union, moved))
    q_a = geometry.matrix_to_quat(procrustes_rotation(subset_a, moved[: len(subset_a)]))
    q_b = geometry.matrix_to_quat(procrustes_rotation(subset_b, moved[len(subset_a):]))
    return _rotations_agree([(q_a, q_union), (q_b, q_union), (q_a, q_b)], tol)


def fitted_subpart_check(points_before, points_after, split, tol=1e-7):
    """Same property on observed before/after point sets with a given split."""
    points_before = np.asarray(points_before, dtype=np.float64)
    points_after = np.asarray(points_after, dtype=np.float64)
    split = np.asarray(split, dtype=bool)
    q_a, q_b, q_union = (
        geometry.matrix_to_quat(procrustes_rotation(points_before[mask], points_after[mask]))
        for mask in (split, ~split, np.ones_like(split))
    )
    return _rotations_agree([(q_a, q_union), (q_b, q_union)], tol)
