"""Plain reference implementations that the tests check shipped code against.

None of these run in the pipeline. Each one restates a shipped computation in
its simplest form, or measures one: the floored normalize with its own sum of
squares, as it was before it shared `geometry.floored_norm`, a
sign-insensitive quaternion distance,
an SVD polar factor (the gauge reference that the cascade's own composed
rotation is checked against), the 24 cube rotations and an exhaustive
nearest-signed-permutation search, one cluster layer in plain numpy for the
traced cascade, the per-layer tape nodes and the centre shift node that the
cascade's one-node centre path replaced, k-means and agglomeration with the per-cluster loops that
their fixed-op-count kernels replaced, the squared-distance grid added into
zeros and the member means as one CSR product (the forms those kernels had
before), the seeding's rows of squared distances as np.sum over (N, D)
differences, a count of the squared distances that k-means computes, the
nodes each backward pass walks,
value-and-gradient wrappers around single loss terms, the generic
broadcasting tape ops that every fused primitive replaced (add, sub, mul,
tsum, tmean, exp, square, relu), the three neighbour terms as chains of
generic tape ops (with the sqrt, transpose, reshape, matvec, matmul and
absval ops that only they use) and as the short tapes that their one-node
forms replaced, the row lookup node `gather`, the bincount scatter, the
broadcast edge subtract, the slice-by-slice edge row sum and the two-node
eigh3 that the shipped tape replaced, the row-wise
Jacobi eigensolver, the correspondence term, the Chamfer term, the scale
hinge and the weighted total as the chains of generic nodes their one-node
forms replaced, Adam on separate per-class arrays and the per-layer
checkpoint payload that the flat parameter buffer replaced, the per-cell
writers of the CSV and PLY tables and the per-element checkpoint hex that the
row formatters replaced, a brute-force Chamfer term, the inverse camera map,
the projection that rebuilt the camera matrix on every call, track selection
over the whole projected trajectory and as a per-candidate loop, and
Procrustes subset checks for the rigid-subpart rotation property.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from gscascade import autodiff as ad
from gscascade import clustering, geometry
from gscascade.losses import (_RIGID_NOISE_ULPS, _TERM_WEIGHTS, FrameConstants, data_loss_t,
                              isometry_loss_t, rigidity_loss_t, rotation_loss_t)
from gscascade.segmentation import procrustes_rotation
from gscascade.tapemath import quat_multiply_t, quat_to_mat_t, safe_norm
from gscascade.tracking import (_MIN_DEPTH, CANDIDATE_RADIUS_PX, _median_error, mte, project,
                                project_track)

# ---------------------------------------------------------------------------
# geometry


def normalize_sum_last(q):
    """(unit, 1/norm, above-floor mask) of `geometry._normalize`, from np.sum's
    bits of the squares (`geometry.sum_last`) and the norm floor."""
    ssq = geometry.sum_last(q * q)
    above = ssq > geometry._NORM_FLOOR * geometry._NORM_FLOOR
    inv = 1.0 / np.sqrt(np.where(above, ssq, geometry._NORM_FLOOR * geometry._NORM_FLOOR))
    return q * inv[..., None], inv, above


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
# the cascade's centre path as the per-layer tape nodes and the centre shift
# node that `deform._cascade_t` replaced


def cascade_layer_t(x, J, R, t, c, s, index, pc):
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
    Rg, tg, cg = (np.take(a.value, cid, axis=0) for a in (R, t, c))
    sg = s.value[cid]
    d = x.value - pc
    th = np.tanh(geometry.sum_last(cg * d) + sg)  # (N,)
    sig = th + 1.0
    moved = np.einsum("...ij,...j->...i", Rg, d) + tg
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
        g_moved = gx * sig[:, None] + np.einsum("...ij,...j->...i", gK, cs)
        g_cs = np.einsum("...ij,...i->...j", gK, moved)
        g_sig = geometry.sum_last(gx * moved) + (gK * Rg).sum(axis=(-2, -1))
        g_u = (g_sig - 2.0 * th * geometry.sum_last(g_cs * cg)) * sigp
        g_d = g_u[:, None] * cg + np.einsum("...ij,...i->...j", Rg, g_moved)
        if x.requires_grad:
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


def shifted_t(x, d_centers):
    """The center deltas, x + d_centers, as one node (d_centers's leaf buffer adds g in)."""

    def vjp(g):
        ad._accum(x, g.copy())  # g is the sum's own gradient
        ad._accum(d_centers, g)

    return ad._make(x.value + d_centers.value, (x, d_centers), vjp)


def cascade_chain_t(x, R, t, c, s, d_centers, index, centroids, shift=None):
    """`deform._cascade_t` as the chain it replaced: one `cascade_layer_t`
    per layer, each with its own RowIndex (row k of the (K, N) `index`), then
    the centre delta as `shift` (the generic `add` unless given, or
    `shifted_t`). Returns (centers, J, R_K ... R_1)."""
    x, J, R_casc = ad.constant(x), None, None
    for cid, pc in zip(index.idx, centroids):
        x, J, Rg = cascade_layer_t(x, J, R, t, c, s, ad.RowIndex(cid, index.rows), pc)
        R_casc = Rg if R_casc is None else Rg @ R_casc
    return (shift or add)(x, d_centers), J, R_casc


# ---------------------------------------------------------------------------
# k-means and agglomeration with per-cluster loops, as `clustering` had them
# before its fixed-op-count kernels: a mean per cluster, a scan of every
# cluster for emptiness, and a masked copy of the distance matrix per merge

_LLOYD_TOL = 1e-7
_LLOYD_MAX_ITERS = 300


def farthest_point_seeds(points, k, rng):
    """k-means++-style seeding: random first pick, then greedy farthest points.
    Returns the (k, D) seeds and their (k, N) squared distances to every point."""
    n = points.shape[0]
    seeds = np.empty(k, dtype=np.int64)
    seeds[0] = rng.integers(n)
    grid_t = [np.sum((points - points[seeds[0]]) ** 2, axis=-1)]
    d2 = grid_t[0]
    for i in range(1, k):
        seeds[i] = int(np.argmax(d2))
        grid_t.append(np.sum((points - points[seeds[i]]) ** 2, axis=-1))
        d2 = np.minimum(d2, grid_t[-1])
    return points[seeds].copy(), np.array(grid_t).reshape(k, n)


def assign_broadcast(points, centroids):
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=1), d2


def kmeans_loop(points, k, seed=0):
    """Lloyd k-means on (N, D) data. Returns (assignments (N,), centroids (k, D))."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points ({n})")
    rng = np.random.default_rng(seed)
    centroids, _ = farthest_point_seeds(points, k, rng)

    for _ in range(_LLOYD_MAX_ITERS):
        assign, d2 = assign_broadcast(points, centroids)
        repair_empty_loop(assign, d2, k)
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            new_centroids[j] = points[assign == j].mean(axis=0)
        shift = np.max(np.linalg.norm(new_centroids - centroids, axis=-1))
        centroids = new_centroids
        if shift <= _LLOYD_TOL:
            break
    assign, d2 = assign_broadcast(points, centroids)
    repair_empty_loop(assign, d2, k)
    return assign, centroids


def repair_empty_loop(assign, d2, k):
    """Give every empty cluster the farthest member of the largest cluster."""
    for j in range(k):
        if not np.any(assign == j):
            counts = np.bincount(assign, minlength=k)
            big = int(np.argmax(counts))
            members_big = np.nonzero(assign == big)[0]
            far = members_big[int(np.argmax(d2[members_big, big]))]
            assign[far] = j


def sq_dists_zeroed(points, centroids):
    """`clustering._sq_dists` as it was before it wrote the first column in
    place: a zeroed grid, each block of rows added into, below D = 8 one
    coordinate column's squares at a time, from D = 8 up as np.sum."""
    n, dim = points.shape
    d2 = np.zeros((n, centroids.shape[0]))
    for start in range(0, n, clustering._ROW_BLOCK):
        block = points[start:start + clustering._ROW_BLOCK]
        out = d2[start:start + clustering._ROW_BLOCK]
        if dim >= clustering._PAIRWISE_FROM:
            out[...] = np.sum((block[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
            continue
        for a in range(dim):
            d = block[:, a, None] - centroids[None, :, a]
            d *= d
            out += d
    return d2


def member_means_csr(points, assign, counts):
    """(k, D) member means as one product with a fresh `RowIndex`'s CSR
    transpose, as `clustering._member_means` had them before its bincount."""
    return ad.RowIndex(assign, counts.size).scatter(points) / counts[:, None]


def distance_entries(call):
    """The squared-distance entries that `call()` computes through
    `clustering._sq_dists` and `clustering._sq_dists_to`, the only places
    k-means computes them."""
    entries = []
    sq_dists, sq_dists_to = clustering._sq_dists, clustering._sq_dists_to

    def counted(points, centroids):
        entries.append(points.shape[0] * centroids.shape[0])
        return sq_dists(points, centroids)

    def counted_to(coords, point, out, work):
        entries.append(out.size)
        sq_dists_to(coords, point, out, work)

    clustering._sq_dists, clustering._sq_dists_to = counted, counted_to
    try:
        call()
    finally:
        clustering._sq_dists, clustering._sq_dists_to = sq_dists, sq_dists_to
    return sum(entries)


def record_walks(monkeypatch):
    """Patch `Tensor.backward` to append, on each call, the nodes it walks: the
    root and its ancestors that need a gradient, each once (leaves too, whose
    gradients it fills), listed by their parent links before it runs. The
    walk is checked once it returns: every listed node that had a VJP has
    run it, or dropped it unreached, and has freed its links."""
    walks = []
    backward = ad.Tensor.backward

    def walked(root):
        seen = {id(root): root}
        stack = [root]
        while stack:
            for parent in stack.pop()._parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen[id(parent)] = parent
                    stack.append(parent)
        backward(root)
        assert all(node._vjp is None and node._parents == () for node in seen.values())
        walks.append(list(seen.values()))

    monkeypatch.setattr(ad.Tensor, "backward", walked)
    return walks


def agglomerate_masked(points, target_k):
    """Average-linkage agglomeration of (M, D) points down to target_k groups."""
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if target_k < 1:
        raise ValueError("target_k must be >= 1")
    if target_k > m:
        raise ValueError(f"target_k={target_k} exceeds number of points ({m})")

    d = np.sqrt(np.maximum(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1), 0.0))
    np.fill_diagonal(d, np.inf)
    sizes = np.ones(m)
    alive = np.ones(m, dtype=bool)
    parent = np.arange(m)

    for _ in range(m - target_k):
        masked = np.where(alive[:, None] & alive[None, :], d, np.inf)
        flat = int(np.argmin(masked))  # ties: lowest flat index == lowest (i, j)
        i, j = divmod(flat, m)
        if i > j:
            i, j = j, i
        # average linkage: d(i∪j, l) = (n_i d_il + n_j d_jl) / (n_i + n_j)
        ni, nj = sizes[i], sizes[j]
        newd = (ni * d[i] + nj * d[j]) / (ni + nj)
        d[i] = newd
        d[:, i] = newd
        d[i, i] = np.inf
        alive[j] = False
        sizes[i] = ni + nj
        parent[parent == j] = i

    roots = np.unique(parent)  # sorted -> labels ordered by smallest member
    labels = np.searchsorted(roots, parent)
    return labels


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
        lambda: rigidity_loss_t(FrameConstants(prev_set, None, None, graph), c, q,
                                ad.edge_values(c.value, graph.index)),
        {"centers": c, "orientations": q},
    )


def isometry_loss(curr_set, graph):
    c = ad.leaf(curr_set.centers)
    return eval_with_grads(
        lambda: isometry_loss_t(c, graph, ad.edge_values(c.value, graph.index)), {"centers": c})


def rotation_loss(prev_set, curr_set, graph):
    q = ad.leaf(curr_set.orientations)
    frame = FrameConstants(prev_set, None, None, graph)
    return eval_with_grads(lambda: rotation_loss_t(frame, q), {"orientations": q})


# ---------------------------------------------------------------------------
# generic tape ops the fused primitives replaced, kept for the chain oracles:
# broadcasting arithmetic, reductions and elementwise nonlinearities


def _accum_shared(t, g):
    """autodiff._accum for a g that someone else holds (an upstream gradient,
    a read-only broadcast): the first such g to reach t is copied."""
    ad._accum(t, np.array(g) if t.grad is None else g)


def unbroadcast(g, shape):
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


def add(a, b):
    a, b = ad._wrap(a), ad._wrap(b)

    def vjp(g):
        if a.requires_grad:
            _accum_shared(a, unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accum_shared(b, unbroadcast(g, b.value.shape))

    return ad._make(a.value + b.value, (a, b), vjp)


def sub(a, b):
    a, b = ad._wrap(a), ad._wrap(b)

    def vjp(g):
        if a.requires_grad:
            _accum_shared(a, unbroadcast(g, a.value.shape))
        if b.requires_grad:
            ad._accum(b, unbroadcast(-g, b.value.shape))

    return ad._make(a.value - b.value, (a, b), vjp)


def mul(a, b):
    a, b = ad._wrap(a), ad._wrap(b)

    def vjp(g):
        if a.requires_grad:
            ad._accum(a, unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            ad._accum(b, unbroadcast(g * a.value, b.value.shape))

    return ad._make(a.value * b.value, (a, b), vjp)


def tsum(a, axis=None, keepdims=False):
    a = ad._wrap(a)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum_shared(a, np.broadcast_to(g, a.value.shape))

    return ad._make(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    a = ad._wrap(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def exp(a):
    a = ad._wrap(a)
    v = np.exp(a.value)

    def vjp(g):
        ad._accum(a, g * v)

    return ad._make(v, (a,), vjp)


def square(a):
    a = ad._wrap(a)

    def vjp(g):
        ad._accum(a, g * (2.0 * a.value))

    return ad._make(a.value * a.value, (a,), vjp)


def relu(a):
    """max(a, 0) with subgradient 0 at the kink."""
    a = ad._wrap(a)
    mask = a.value > 0.0

    def vjp(g):
        ad._accum(a, g * mask)

    return ad._make(np.where(mask, a.value, 0.0), (a,), vjp)


def sqrt_t(a):
    v = np.sqrt(a.value)

    def vjp(g):
        ad._accum(a, g * (0.5 / v))

    return ad._make(v, (a,), vjp)


def transpose_last2_t(a):
    def vjp(g):
        _accum_shared(a, np.swapaxes(g, -1, -2))

    return ad._make(np.swapaxes(a.value, -1, -2), (a,), vjp)


def reshape_t(a, shape):
    old = a.value.shape

    def vjp(g):
        _accum_shared(a, g.reshape(old))

    return ad._make(a.value.reshape(shape), (a,), vjp)


def matmul_t(a, b):
    """Batched a @ b (operand batch shapes must match)."""
    a, b = ad._wrap(a), ad._wrap(b)

    def vjp(g):
        if a.requires_grad:
            ad._accum(a, unbroadcast(g @ ad._transposed(b.value), a.value.shape))
        if b.requires_grad:
            ad._accum(b, unbroadcast(ad._transposed(a.value) @ g, b.value.shape))

    return ad._make(a.value @ b.value, (a, b), vjp)


def absval_t(a):
    """|a| with subgradient 0 at a == 0."""

    def vjp(g):
        ad._accum(a, g * np.sign(a.value))

    return ad._make(np.abs(a.value), (a,), vjp)


def matvec_t(a, x):
    """(..., m, n) @ (..., n) -> (..., m)."""
    a, x = ad._wrap(a), ad._wrap(x)
    v = np.einsum("...ij,...j->...i", a.value, x.value)

    def vjp(g):
        if a.requires_grad:
            ad._accum(a, unbroadcast(np.einsum("...i,...j->...ij", g, x.value), a.value.shape))
        if x.requires_grad:
            ad._accum(x, unbroadcast(np.einsum("...ij,...i->...j", a.value, g), x.value.shape))

    return ad._make(v, (a, x), vjp)


def gather_t(a, idx):
    """Row lookup a[idx] along axis 0 as one node (idx a RowIndex, or
    nonnegative ints of any shape); the VJP scatters through the RowIndex."""
    a = ad._wrap(a)
    index = idx if isinstance(idx, ad.RowIndex) else ad.RowIndex(idx, a.value.shape[0])

    def vjp(g):
        ad._accum(a, index.scatter(g))

    return ad._make(a.value[index.idx], (a,), vjp)


def edge_adjoint_slices(g, index, signs=None):
    """autodiff.edge_adjoint with each row's sum over its k edges formed by
    adding whole (N, C) slices in turn, as before the row-sum product."""
    out = index.scatter(g if signs is None else g * signs)
    rows = g[:, 0].copy()
    for j in range(1, g.shape[1]):
        rows += g[:, j]
    out -= rows
    return out


def subtract_rows_broadcast(v, a):
    """autodiff.subtract_rows as the broadcast subtract v -= a[:, None]."""
    v -= a[:, None]
    return v


def edge_diff_t(a, idx, signs=None):
    """Edge vectors a[idx] * signs - a[:, None] of a neighbour graph as one
    generic node over autodiff's subtract_rows and edge_adjoint."""
    index = idx if isinstance(idx, ad.RowIndex) else ad.RowIndex(idx, a.value.shape[0])
    v = np.take(a.value, index.idx, axis=0)
    if signs is not None:
        v *= signs

    def vjp(g):
        ad._accum(a, ad.edge_adjoint(g, index, signs))

    return ad._make(ad.subtract_rows(v, a.value), (a,), vjp)


def bincount_scatter(g, idx, rows):
    """The rows of g summed by index, one np.bincount per trailing column:
    the scatter a RowIndex's sparse transpose replaced."""
    width = int(np.prod(g.shape[idx.ndim:]))
    flat = idx.ravel()
    cols = g.reshape(flat.size, width)
    out = np.empty((rows, width))
    for c in range(width):
        out[:, c] = np.bincount(flat, weights=cols[:, c], minlength=rows)
    return out.reshape((rows,) + g.shape[idx.ndim:])


def eigh3_two_nodes(S):
    """autodiff.eigh3 as two single-output nodes, each forming the whole
    adjoint V M V^T from its own output's gradient."""
    w, V, _ = geometry.jacobi_eigh3(S.value)

    def backprop(gw, gV):
        M = np.zeros(V.shape)
        if gw is not None:
            for i in range(3):
                M[..., i, i] = gw[..., i]
        if gV is not None:
            gap = w[..., None, :] - w[..., :, None]
            F = gap / (gap * gap + ad._EIG_GAP_EPS * ad._EIG_GAP_EPS)
            for i in range(3):
                F[..., i, i] = 0.0
            M = M + F * (np.swapaxes(V, -1, -2) @ gV)
        gS = V @ M @ np.swapaxes(V, -1, -2)
        ad._accum(S, 0.5 * (gS + np.swapaxes(gS, -1, -2)))

    return (ad._make(w, (S,), lambda g: backprop(g, None)),
            ad._make(V, (S,), lambda g: backprop(None, g)))


def clamp_min_t(a, floor):
    """max(a, floor) for a constant floor; gradient passes only where a > floor."""
    mask = a.value > floor

    def vjp(g):
        ad._accum(a, g * mask)

    return ad._make(np.where(mask, a.value, floor), (a,), vjp)


def safe_norm_chain_t(x, floor=geometry._NORM_FLOOR):
    """tapemath.safe_norm as the square, sum, clamp and sqrt nodes it replaced."""
    ssq = tsum(square(x), axis=-1)
    return sqrt_t(clamp_min_t(ssq, floor * floor))


# The three neighbour terms as chains of generic tape ops (gather, reshape,
# sub, the broadcast matvec), which the shipped terms replace with an edge lookup,
# one batched matmul and the one-node safe_norm.


def rigidity_loss_chain_t(prev_set, centers_t, orientations_t, graph):
    n = prev_set.n
    idx = graph.indices
    rot_prev = geometry.quat_to_matrix(prev_set.orientations)  # constant
    rot_curr = quat_to_mat_t(orientations_t)
    # R_prev R_curr^-1 maps current-frame offsets back to the previous frame
    rel = matmul_t(ad.constant(rot_prev), transpose_last2_t(rot_curr))
    d_prev = prev_set.centers[idx] - prev_set.centers[:, None, :]  # constant (N,k,3)
    d_curr = sub(gather_t(centers_t, idx), reshape_t(centers_t, (n, 1, 3)))
    pred = matvec_t(reshape_t(rel, (n, 1, 3, 3)), d_curr)
    per_edge = safe_norm_chain_t(sub(ad.constant(d_prev), pred))
    return tmean(mul(ad.constant(graph.weights), per_edge))


def isometry_loss_chain_t(centers_t, graph):
    n = centers_t.shape[0]
    idx = graph.indices
    frame0_centers = graph.centers
    # mirror safe_norm's formula bit-for-bit so unmoved centers give
    # d0 - dt == 0.0 exactly and the absval subgradient is 0, not fp noise
    diff0 = frame0_centers[idx] - frame0_centers[:, None, :]
    d0 = np.sqrt(np.maximum(np.sum(diff0 * diff0, axis=-1), 1e-24))
    dt = safe_norm_chain_t(sub(gather_t(centers_t, idx), reshape_t(centers_t, (n, 1, 3))))
    # a rigidly moved edge still differs from d0 by the rounding of its
    # endpoint coordinates; within that dead zone take d0 = dt, so absval's
    # sign(0) = 0 gives it no gradient instead of a sign drawn from noise
    coord = max(np.abs(frame0_centers).max(), np.abs(centers_t.value).max())
    d0 = np.where(np.abs(d0 - dt.value) <= _RIGID_NOISE_ULPS * np.spacing(coord), dt.value, d0)
    return tmean(absval_t(sub(ad.constant(d0), dt)))


def rotation_loss_chain_t(prev_set, orientations_t, graph):
    n = prev_set.n
    idx = graph.indices
    prev_inv = geometry.quat_conjugate(geometry.quat_normalize(prev_set.orientations))
    rel = quat_multiply_t(orientations_t, ad.constant(prev_inv))  # (N, 4) increments
    rel_j = gather_t(rel, idx)  # (N, k, 4)
    rel_i = reshape_t(rel, (n, 1, 4))
    # q and -q are the same rotation: align signs before differencing
    dots = np.sum(rel_j.value * rel_i.value, axis=-1)
    signs = np.where(dots < 0.0, -1.0, 1.0)[..., None]
    per_edge = safe_norm_chain_t(sub(mul(rel_j, ad.constant(signs)), rel_i))
    return tmean(mul(ad.constant(graph.weights), per_edge))


# The three neighbour terms as the short tapes of generic nodes that the
# one-node terms replaced: an edge node, a batched matmul, the one-node
# safe_norm, a weighting and tmean.


def rigidity_loss_short_tape_t(frame, centers_t, orientations_t):
    rot_curr = quat_to_mat_t(orientations_t)
    back = matmul_t(rot_curr, ad.constant(frame.prev_R_T))
    pred = matmul_t(edge_diff_t(centers_t, frame.graph.index), back)  # (N,k,3) @ (N,3,3)
    per_edge = safe_norm(sub(ad.constant(frame.d_prev), pred))
    return tmean(mul(ad.constant(frame.graph.weights), per_edge))


def isometry_loss_short_tape_t(centers_t, graph):
    dt = safe_norm(edge_diff_t(centers_t, graph.index))
    d0 = graph.rest_lengths
    coord = max(graph.max_abs_coord, np.abs(centers_t.value).max())
    d0 = np.where(np.abs(d0 - dt.value) <= _RIGID_NOISE_ULPS * np.spacing(coord), dt.value, d0)
    return tmean(absval_t(sub(ad.constant(d0), dt)))


def rotation_loss_short_tape_t(frame, orientations_t):
    graph = frame.graph
    rel = quat_multiply_t(orientations_t, ad.constant(frame.prev_inv))
    dots = np.sum(np.take(rel.value, graph.indices, axis=0) * rel.value[:, None], axis=-1)
    signs = np.where(dots < 0.0, -1.0, 1.0)[..., None]
    per_edge = safe_norm(edge_diff_t(rel, graph.index, signs))
    return tmean(mul(ad.constant(graph.weights), per_edge))


def matched_loss_chain_t(centers_t, frame):
    """The correspondence data term as the six generic nodes that its one
    node replaced: gather, sub, square, a component tsum and tmean's two."""
    matched = gather_t(centers_t, frame.correspondence)
    return tmean(tsum(square(sub(matched, ad.constant(frame.obs.points))), axis=-1))


def chamfer_loss_chain_t(centers_t, frame, workers=1):
    """The Chamfer branch of losses.data_loss_t as the twelve generic nodes its
    one node replaced: sub, square, a component tsum and tmean's two for the
    set-to-scan mean; sub, square, mul, tsum and add for the scan-to-set
    moment form; an add and a mul by 0.5."""
    obs = frame.obs
    centers = centers_t.value
    n, m = centers.shape[0], obs.points.shape[0]
    nn_c = frame.scan_tree.query(centers, workers=workers)[1]
    nn_o = cKDTree(centers).query(obs.points, workers=workers)[1]
    to_obs = tmean(tsum(square(sub(centers_t, ad.constant(obs.points[nn_c]))), axis=-1))
    counts = np.bincount(nn_o, minlength=n)
    sums = np.stack([np.bincount(nn_o, weights=obs.points[:, a], minlength=n) for a in range(3)],
                    axis=-1)
    mu = sums / np.maximum(counts, 1)[:, None]
    spread = np.sum(np.square(obs.points - mu[nn_o]))
    to_set = add(tsum(mul(square(sub(centers_t, ad.constant(mu))),
                          ad.constant((counts / m)[:, None]))), spread / m)
    return mul(add(to_obs, to_set), 0.5)


def scale_loss_chain_t(scales_t, max_scale):
    """losses.scale_loss_t as the sub, relu, tsum and mul nodes it replaced."""
    return mul(tsum(relu(sub(scales_t, max_scale))), 1.0 / scales_t.shape[0])


def weighted_total_chain_t(terms, weights):
    """The weighted total of losses.total_loss as the five muls and four adds
    it replaced, in _TERM_WEIGHTS order."""
    total = None
    for name, weight_field in _TERM_WEIGHTS.items():
        piece = mul(terms[name], getattr(weights, weight_field))
        total = piece if total is None else add(total, piece)
    return total


def data_loss(curr_set, obs, workers=1):
    c = ad.leaf(curr_set.centers)
    frame = FrameConstants(curr_set, obs, None, None)
    return eval_with_grads(lambda: data_loss_t(c, frame, workers=workers), {"centers": c})


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
# eigensolver


def jacobi_eigh3_rowwise(S, tol=geometry.eigh3_offdiag_tol, max_sweeps=30):
    """geometry.jacobi_eigh3 on (..., 3, 3) arrays, entry by entry of A and V,
    with the zero-pivot guards on every step: (evals, evecs)."""
    S = np.asarray(S, dtype=np.float64)
    A = S.copy()
    V = np.zeros_like(A)
    V[..., 0, 0] = 1.0
    V[..., 1, 1] = 1.0
    V[..., 2, 2] = 1.0
    norm = np.sqrt(np.einsum("...ij,...ij->...", S, S))
    thresh = tol * np.maximum(norm, 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(A[..., 0, 1] ** 2 + A[..., 0, 2] ** 2 + A[..., 1, 2] ** 2)
        if np.all(off <= thresh):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = A[..., p, q]
            app = A[..., p, p]
            aqq = A[..., q, q]
            nonzero = np.abs(apq) > 1e-300
            tau = np.where(nonzero, (aqq - app) / np.where(nonzero, 2.0 * apq, 1.0), 0.0)
            sign_tau = np.where(tau >= 0.0, 1.0, -1.0)
            with np.errstate(over="ignore"):
                t = np.where(nonzero, sign_tau / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            r = 3 - p - q
            arp = A[..., r, p].copy()
            arq = A[..., r, q].copy()
            A[..., p, p] = app - t * apq
            A[..., q, q] = aqq + t * apq
            A[..., p, q] = 0.0
            A[..., q, p] = 0.0
            A[..., r, p] = c * arp - s * arq
            A[..., p, r] = A[..., r, p]
            A[..., r, q] = s * arp + c * arq
            A[..., q, r] = A[..., r, q]
            vp = V[..., :, p].copy()
            vq = V[..., :, q].copy()
            V[..., :, p] = c[..., None] * vp - s[..., None] * vq
            V[..., :, q] = s[..., None] * vp + c[..., None] * vq
    return np.stack([A[..., 0, 0], A[..., 1, 1], A[..., 2, 2]], axis=-1), V


# ---------------------------------------------------------------------------
# optimizer


def adam_step_per_class(arrays, grads, state, config):
    """optimize.adam_step on separate arrays: the gradients of every key
    concatenated in sorted key order, one update of the flat moments, then
    each key's slice subtracted from its array, and quaternion arrays
    renormalized. `arrays` and `grads` map the keys of CascadeDeform.arrays();
    `state` is a dict, empty before the first step, that holds the step
    count t, the moments m and v and the rates of the keys' classes."""
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    keys = sorted(grads)
    g = np.concatenate([grads[key].ravel() for key in keys])
    if not state:
        state.update(t=0, m=np.zeros_like(g), v=np.zeros_like(g), rates=np.concatenate([
            np.full(grads[key].size, config.resolved_lr(key.rpartition(".")[2]))
            for key in keys]))
    state["t"] += 1
    if not np.all(np.isfinite(g)):
        bad = next(key for key in keys if not np.all(np.isfinite(grads[key])))
        raise ValueError(f"non-finite gradient in parameter class '{bad}'")
    state["m"] = b1 * state["m"] + (1.0 - b1) * g
    state["v"] = b2 * state["v"] + (1.0 - b2) * g * g
    mhat = state["m"] / (1.0 - b1 ** state["t"])
    vhat = state["v"] / (1.0 - b2 ** state["t"])
    step = state["rates"] * mhat / (np.sqrt(vhat) + eps)
    start = 0
    for key in keys:
        arr = arrays[key]
        arr -= step[start:start + arr.size].reshape(arr.shape)
        start += arr.size
        if key.endswith("rotations"):
            arr[:] = geometry.quat_normalize(arr)


# ---------------------------------------------------------------------------
# checkpoint


def arr_to_hex_per_element(a):
    """deform._arr_to_hex with one `float(v).hex()` call per element."""
    return {"shape": list(a.shape), "data": [float(v).hex() for v in a.ravel()]}


def cascade_payload_per_layer(cascade):
    """deform.cascade_to_payload from a copy of every layer's arrays, each hex
    encoded on its own, as when each layer held separate arrays."""
    def hexed(a):
        return arr_to_hex_per_element(np.array(a))

    return {
        "layers": [{name: hexed(getattr(layer, name))
                    for name in ("rotations", "translations", "scale_dirs", "scale_biases")}
                   for layer in cascade.layers],
        **{name: hexed(getattr(cascade, name))
           for name in ("d_centers", "d_rotations", "d_log_scales")},
    }


# ---------------------------------------------------------------------------
# writers, one cell at a time


def write_csv_per_cell(path, header, rows):
    """io_formats.write_csv: floats (Python or numpy) through repr(float(v)),
    every other cell through str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_frame_table_per_cell(path, header, frames):
    """io_formats._write_frame_table as rows (t, i, *frames[t][i]) of numpy
    scalars through `write_csv_per_cell`."""
    write_csv_per_cell(path, header, ([t, i, *row] for t, frame in enumerate(frames)
                                      for i, row in enumerate(frame)))


def write_ply_per_cell(path, points, colors=None):
    """io_formats.write_ply with each vertex row formatted one cell at a time."""
    points = np.asarray(points, dtype=np.float64)
    lines = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}",
             "property double x", "property double y", "property double z"]
    if colors is not None:
        colors = np.asarray(colors)
        if colors.dtype != np.uint8:
            colors = np.clip(np.round(np.asarray(colors, dtype=np.float64) * 255.0), 0, 255
                             ).astype(np.uint8)
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    for i in range(points.shape[0]):
        row = " ".join(repr(float(v)) for v in points[i])
        if colors is not None:
            row += " " + " ".join(str(int(v)) for v in colors[i])
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# camera


def project_rebuilt(camera, points):
    """tracking.project with the camera matrix rebuilt from the quaternion on
    every call and the pixels assembled by np.stack and np.where."""
    points = np.asarray(points, dtype=np.float64)
    R = geometry.quat_to_matrix(camera.rotation)
    cam = points @ R.T + camera.translation
    depth = cam[..., 2]
    valid = depth > _MIN_DEPTH
    zsafe = np.where(valid, depth, 1.0)
    u = camera.fx * cam[..., 0] / zsafe + camera.cx
    v = camera.fy * cam[..., 1] / zsafe + camera.cy
    pix = np.stack([u, v], axis=-1)
    pix = np.where(valid[..., None], pix, np.nan)
    return pix, depth, valid


def mte_norm(pred, gt, image_diagonal):
    """tracking.mte with np.linalg.norm for the pixel distances."""
    both = pred.valid & gt.valid
    if not np.any(both):
        raise ValueError("tracks share no valid frames")
    d = np.linalg.norm(pred.pixels - gt.pixels, axis=-1)
    return float(_median_error(d[:, None], both[:, None], image_diagonal)[0])


def select_candidate_whole(centers_traj, camera, gt_track):
    """tracking.select_candidate from one projection of the whole (T, N, 3)
    trajectory (`project_rebuilt`) and np.linalg.norm distances."""
    centers_traj = np.asarray(centers_traj, dtype=np.float64)
    pix, _, valid = project_rebuilt(camera, centers_traj)
    d0 = np.linalg.norm(pix[0] - gt_track.pixels[0], axis=-1)
    cand = np.nonzero(valid[0] & (d0 <= CANDIDATE_RADIUS_PX))[0]
    if cand.size == 0:
        raise ValueError("no Gaussian projects within 10 px of the track start")
    dist = np.linalg.norm(pix[:, cand] - gt_track.pixels[:, None], axis=-1)
    shared = valid[:, cand] & gt_track.valid[:, None]
    errors = _median_error(dist, shared, camera.image_diagonal)
    finite = np.isfinite(errors)
    if not finite.any():
        u, v = gt_track.pixels[0]
        raise ValueError(f"no candidate for the track starting at pixel ({u:.6g}, {v:.6g})"
                         " has a finite error")
    return int(cand[np.argmin(np.where(finite, errors, np.inf))])


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
