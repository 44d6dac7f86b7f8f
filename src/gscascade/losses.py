"""Training objectives and their gradients.

Five terms, all reduced as means so weights are comparable across scene sizes:

  * scale hinge: per-axis max(0, scale - max_scale), averaged over Gaussians;
  * local rigidity: neighbor displacements should co-rotate with the Gaussian
    (prev-frame vs current-frame offsets compared in the rotated frame);
  * isometry: neighbor distances should match frame 0;
  * rotation: neighboring Gaussians should undergo similar frame-to-frame
    rotations (quaternion increments compared after sign alignment);
  * data: squared distance to observed points, matched by correspondence when
    available, else symmetric nearest-neighbor (Chamfer) distance.

What stays fixed while one frame transition is fitted lives in one
`FrameConstants` holder, the only way a frame's inputs reach `total_loss`:
`fit_frame` builds it once and every evaluation of the frame shares it. It
holds the previous set, the observation and the frame-0 neighbour graph, and
derives the cascade's R_prev, A0 and looked-up centroids, rigidity's R_prev^T
and previous-frame edges, rotation's inverse previous orientations, the
correspondence as a RowIndex and, for a scan, the k-d tree over its M points.
It is dropped when the frame is done.

The Chamfer term queries two k-d trees: the scan's, from the holder, and one
over the N moving centers, rebuilt per evaluation. The scan-to-set half is
evaluated on per-Gaussian moments: with n_i the number of points whose
nearest Gaussian is i and mu_i their mean,

    sum_m |c_nn(m) - p_m|^2 = sum_i n_i |c_i - mu_i|^2 + sum_m |p_m - mu_nn(m)|^2,

so the tape works on (N, 3) arrays instead of gathering and scattering M rows;
a Gaussian that no point matches contributes 0 and gets no gradient from it.

The three neighbour terms share one `NeighborGraph`: a k-NN graph frozen at
frame 0, with Gaussian falloff weights exp(-lambda * d^2). It carries the
frame-0 structure the isometry term compares against, derived once from the
frame-0 centers: the floored rest length of every edge (`safe_norm` itself)
and the largest absolute frame-0 coordinate, and its indices as a RowIndex
whose sparse transpose scatters every edge term's gradient for the whole
sequence. Each neighbour term is one tape node over its per-Gaussian input,
with a closed-form VJP: it looks the edges up (`autodiff.edge_values`; for
rotation, the sign-aligned rows less each row), takes their floored norms, weights
them and takes the mean, and its VJP runs those steps back and scatters
through the graph's RowIndex (`autodiff.edge_adjoint`). Rigidity and
isometry read the same (N, k, 3) edges of the centers: `total_loss` looks
them up once per evaluation and hands the array to both (each term still
scatters its own gradient); rotation forms its sign-aligned edges from the
rows it looks up for the sign dots. Rigidity's node takes
the current rotation matrices (one `quat_to_mat_t` before it) and maps its
edges back to the previous frame with one batched (N, k, 3) @ (N, 3, 3)
product; rotation's takes the quaternion increments (one `quat_multiply_t`
before it). The floored norm is `geometry.floored_norm`, the forward of
`safe_norm` too, so the rest lengths and the current lengths that the
isometry dead zone compares come out of the same arithmetic.

The other terms and the total are one node each too, every forward the
chain of generic nodes it replaced, op for op:

  * the scale hinge (four nodes), whose VJP passes g / N where it is open;
  * the correspondence data term (six): it looks each point's Gaussian up,
    subtracts the point, squares, sums the components and takes the mean; its
    VJP, (g / M) 2 diff, scatters through the correspondence's RowIndex;
  * the Chamfer data term (twelve), whose VJP adds its scan-to-set half into
    the centers before its set-to-scan half, as the chain's reverse walk did;
  * the weighted total (nine), summed in `_TERM_WEIGHTS` order.

So one evaluation's tape holds the cascade's nodes, the quaternion kernel in
front of rigidity and of rotation, a node per term and one for the total.
Norms use a small floor so the null cases (current ==
previous) produce zero gradients instead of NaNs; nearest-neighbor matches and
quaternion sign alignments are taken from forward values and held constant
during the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from . import geometry
from .deform import CascadeFrame, trace_cascade
from .geometry import floored_norm
from .tapemath import floored_norm_adjoint, quat_multiply_t, quat_to_mat_t, safe_norm

DEFAULT_NEIGHBOR_COUNT = 20
DEFAULT_LAMBDA_SCALE = 2000.0  # lambda_weight = 2000 / scene_scale**2
# isometry dead zone, in ulps of the largest center coordinate: rounding moves
# the lengths of rigidly moved edges by up to about 4 of them
_RIGID_NOISE_ULPS = 16


@dataclass
class LossWeights:
    """Weights for (rigidity, isometry, rotation, scale, data)."""

    w_rigid: float = 0.19
    w_iso: float = 0.10
    w_rot: float = 0.19
    w_scale: float = 0.48
    w_data: float = 1.0


# loss term -> the LossWeights field of its weight, in the order total_loss
# sums the weighted terms (which fixes the bits of the total)
_TERM_WEIGHTS = {"rigidity": "w_rigid", "isometry": "w_iso", "rotation": "w_rot",
                "scale": "w_scale", "data": "w_data"}


@dataclass
class NeighborGraph:
    """Frozen k-nearest-neighbor graph on the frame-0 centers.

    Holds the Gaussian falloff weights and, derived once from `centers`, the
    indices as a RowIndex (whose scatter every edge term shares for the whole
    sequence), the floored rest length of every edge and the largest absolute
    frame-0 coordinate (the scale of the isometry dead zone).
    """

    centers: np.ndarray  # (N, 3) frame-0 centers the graph is built on
    indices: np.ndarray  # (N, k) neighbor Gaussian indices
    weights: np.ndarray  # (N, k) in (0, 1]
    lambda_weight: float
    index: ad.RowIndex = field(init=False, repr=False)  # indices, with their scatter
    rest_lengths: np.ndarray = field(init=False, repr=False)  # (N, k)
    max_abs_coord: float = field(init=False)

    def __post_init__(self):
        self.index = ad.RowIndex(self.indices, self.centers.shape[0])
        self.rest_lengths = safe_norm(ad.edge_values(self.centers, self.index)).value
        self.max_abs_coord = np.abs(self.centers).max()

    @property
    def k(self):
        return self.indices.shape[1]


def build_neighbor_graph(centers, k=DEFAULT_NEIGHBOR_COUNT, lambda_weight=None,
                         scene_scale=1.0, workers=1):
    """k nearest neighbors (self excluded) of each center, plus edge weights."""
    centers = np.asarray(centers, dtype=np.float64)
    n = centers.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if lambda_weight is None:
        lambda_weight = DEFAULT_LAMBDA_SCALE / scene_scale**2
    tree = cKDTree(centers)
    _, idx = tree.query(centers, k=k + 1, workers=workers)
    # drop each point's own row (usually among the k+1 results; ties could put
    # it anywhere, so filter by identity rather than assuming column 0)
    keep = idx != np.arange(n)[:, None]
    excess = keep.sum(axis=1) - k  # 1 when duplicates crowded self out of the results
    for i in np.nonzero(excess > 0)[0]:
        kept_cols = np.nonzero(keep[i])[0]
        keep[i, kept_cols[-1]] = False  # drop the farthest
    neighbors = idx[keep].reshape(n, k).astype(np.int64)
    d2 = np.sum(ad.edge_values(centers, ad.RowIndex(neighbors, n)) ** 2, axis=-1)
    return NeighborGraph(
        centers=centers,
        indices=neighbors,
        weights=np.exp(-lambda_weight * d2),
        lambda_weight=float(lambda_weight),
    )


@dataclass
class DataObservation:
    """One frame's observed 3D points, optionally index-matched to Gaussians."""

    points: np.ndarray  # (M, 3)
    correspondence: np.ndarray = None  # (M,) Gaussian index per observed point

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (M, 3), got {self.points.shape}")
        if self.points.shape[0] == 0:
            raise ValueError("observation is empty")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite values")
        if self.correspondence is not None:
            self.correspondence = np.ascontiguousarray(self.correspondence, dtype=np.int64)
            if self.correspondence.shape != (self.points.shape[0],):
                raise ValueError("correspondence must have one Gaussian index per point")
            if np.any(self.correspondence < 0):
                raise ValueError("correspondence contains negative Gaussian indices")


# ---------------------------------------------------------------------------
# tape kernels (operate on Tensors; constants passed as numpy)


def scale_loss_t(scales_t, max_scale):
    """The scale hinge as one node over the scales (see the module docstring)."""
    n = scales_t.shape[0]
    over = scales_t.value - max_scale
    above = over > 0.0

    def vjp(g):
        ad._accum(scales_t, (g * (1.0 / n)) * above)

    return ad._make(np.where(above, over, 0.0).sum() * (1.0 / n), (scales_t,), vjp)


def _mean_adjoint(g, weighted):
    """The gradient of weighted.sum() * (1 / size) w.r.t. each entry, given
    the mean's gradient g, as a read-only broadcast of g * (1 / size)."""
    return np.broadcast_to(g * (1.0 / weighted.size), weighted.shape)


def rigidity_loss_t(frame, centers_t, orientations_t, edges):
    """`edges` are the centers' edges `ad.edge_values(centers, graph.index)`,
    which `total_loss` looks up once for isometry too."""
    return _rigidity_t(frame, centers_t, quat_to_mat_t(orientations_t), edges)


def _rigidity_t(frame, centers_t, rot_curr, edges):
    """Rigidity's weighted mean edge residual as one node over (centers,
    rotation matrices)."""
    graph = frame.graph
    # edge offsets are rows, so d (R_curr R_prev^T) = (R_prev R_curr^-1 d^T)^T
    # maps current-frame offsets back to the previous frame
    back = rot_curr.value @ frame.prev_R_T
    residual = frame.d_prev - edges @ back  # (N,k,3) @ (N,3,3)
    per_edge, above = floored_norm(residual)
    weighted = graph.weights * per_edge

    def vjp(g):
        g_pred = -floored_norm_adjoint(_mean_adjoint(g, weighted) * graph.weights, residual,
                                       per_edge, above)
        if centers_t.requires_grad:
            g_edges = g_pred @ ad._transposed(back)
            ad._accum(centers_t, ad.edge_adjoint(g_edges, graph.index))
        if rot_curr.requires_grad:
            g_back = ad._transposed(edges) @ g_pred
            ad._accum(rot_curr, g_back @ ad._transposed(frame.prev_R_T))

    return ad._make(weighted.sum() * (1.0 / weighted.size), (centers_t, rot_curr), vjp)


def isometry_loss_t(centers_t, graph, edges):
    """Isometry's mean absolute edge-length change as one node over the centers.
    `edges` are as in `rigidity_loss_t`."""
    # the rest lengths are floored_norm's too, so unmoved centers give
    # d0 - dt == 0.0 exactly and the absval subgradient is 0, not fp noise
    dt, above = floored_norm(edges)
    # a rigidly moved edge still differs from d0 by the rounding of its
    # endpoint coordinates; within that dead zone take d0 = dt, so absval's
    # sign(0) = 0 gives it no gradient instead of a sign drawn from noise
    d0 = graph.rest_lengths
    coord = max(graph.max_abs_coord, np.abs(centers_t.value).max())
    d0 = np.where(np.abs(d0 - dt) <= _RIGID_NOISE_ULPS * np.spacing(coord), dt, d0)
    change = d0 - dt
    absolute = np.abs(change)

    def vjp(g):
        g_dt = -(_mean_adjoint(g, absolute) * np.sign(change))
        g_edges = floored_norm_adjoint(g_dt, edges, dt, above)
        ad._accum(centers_t, ad.edge_adjoint(g_edges, graph.index))

    return ad._make(absolute.sum() * (1.0 / absolute.size), (centers_t,), vjp)


def rotation_loss_t(frame, orientations_t):
    rel = quat_multiply_t(orientations_t, ad.constant(frame.prev_inv))  # (N, 4) increments
    return _rotation_t(frame.graph, rel)


def _rotation_t(graph, rel):
    """Rotation's weighted mean increment difference as one node over the
    quaternion increments."""
    # q and -q are the same rotation: align signs before differencing. The
    # dot products add their four component products in order, bit for bit
    # what np.sum does over the last axis, without its per-row loops.
    # The aligned edges are the same looked-up rows times the signs, less each row.
    r = rel.value
    nb = np.take(r, graph.indices, axis=0)
    dots = nb[..., 0] * r[:, None, 0]
    for c in range(1, 4):
        dots += nb[..., c] * r[:, None, c]
    signs = np.where(dots < 0.0, -1.0, 1.0)[..., None]
    nb *= signs
    edges = ad.subtract_rows(nb, r)
    per_edge, above = floored_norm(edges)
    weighted = graph.weights * per_edge

    def vjp(g):
        g_edges = floored_norm_adjoint(_mean_adjoint(g, weighted) * graph.weights, edges,
                                       per_edge, above)
        ad._accum(rel, ad.edge_adjoint(g_edges, graph.index, signs))

    return ad._make(weighted.sum() * (1.0 / weighted.size), (rel,), vjp)


class FrameConstants(CascadeFrame):
    """Everything that stays fixed while one frame transition is fitted.

    Built once per frame by `fit_frame` and shared by all of that frame's
    evaluations. Besides the cascade's constants of `CascadeFrame`, it holds
    the frame's observation and the frame-0 neighbour graph, and derives on
    first use:

      * `scan_tree`: the k-d tree over the scan's points (for a scan only);
      * `correspondence`: the observation's correspondence as a RowIndex;
      * `prev_R_T`, `d_prev`: rigidity's R_prev^T and previous-frame edges;
      * `prev_inv`: rotation's inverse previous orientations.
    """

    def __init__(self, prev_set, obs, hierarchy, graph):
        super().__init__(prev_set, hierarchy)
        self.obs = obs
        self.graph = graph

    @cached_property
    def scan_tree(self):
        return cKDTree(self.obs.points)

    @cached_property
    def correspondence(self):
        return ad.RowIndex(self.obs.correspondence, self.prev_set.n)

    @cached_property
    def prev_R_T(self):
        return np.swapaxes(self.prev_R, -1, -2)

    @cached_property
    def d_prev(self):
        return ad.edge_values(self.prev_set.centers, self.graph.index)  # (N, k, 3)

    @cached_property
    def prev_inv(self):
        return geometry.quat_conjugate(geometry.quat_normalize(self.prev_set.orientations))


def _matched_t(centers_t, frame):
    """The correspondence term, mean_m |c_corr(m) - p_m|^2, as one node over
    the centers: the chain of a lookup, a subtraction, a square, a sum over
    the components and a mean, op for op; its VJP, (g / M) 2 diff, scatters
    through the correspondence's RowIndex."""
    index = frame.correspondence
    diff = np.take(centers_t.value, index.idx, axis=0)
    diff -= frame.obs.points
    sq = diff * diff
    per_point = sq[:, 0] + sq[:, 1]  # np.sum's order over the components
    per_point += sq[:, 2]

    def vjp(g):
        ad._accum(centers_t, index.scatter((g * (1.0 / diff.shape[0])) * (2.0 * diff)))

    return ad._make(per_point.sum() * (1.0 / diff.shape[0]), (centers_t,), vjp)


def data_loss_t(centers_t, frame, workers=1):
    """The data term: `_matched_t` for an observation with a correspondence,
    else the symmetric Chamfer term as one node over the centers, half the
    set-to-scan mean plus the scan-to-set moment form above, with the
    forward's nearest-neighbour matches held fixed."""
    obs = frame.obs
    if obs.correspondence is not None:
        return _matched_t(centers_t, frame)
    centers = centers_t.value
    n, m = centers.shape[0], obs.points.shape[0]
    nn_c = frame.scan_tree.query(centers, workers=workers)[1]
    nn_o = cKDTree(centers).query(obs.points, workers=workers)[1]
    to_scan = centers - obs.points[nn_c]
    set_to_scan = (to_scan * to_scan).sum(axis=-1).sum() * (1.0 / n)
    # scan-to-set on the count and mean of each Gaussian's matched points;
    # a Gaussian that no point matches has a share of 0
    counts = np.bincount(nn_o, minlength=n)
    sums = np.stack([np.bincount(nn_o, weights=obs.points[:, a], minlength=n) for a in range(3)],
                    axis=-1)
    mu = sums / np.maximum(counts, 1)[:, None]
    # each point's offset from its Gaussian's mean, squared in place in one (M, 3) array
    offsets = np.take(mu, nn_o, axis=0)
    np.subtract(obs.points, offsets, out=offsets)
    spread = np.sum(np.square(offsets, out=offsets))
    to_mean = centers - mu
    share = (counts / m)[:, None]
    scan_to_set = ((to_mean * to_mean) * share).sum() + spread / m

    def vjp(g):
        half = g * 0.5
        ad._accum(centers_t, (half * share) * (2.0 * to_mean))
        ad._accum(centers_t, (half * (1.0 / n)) * (2.0 * to_scan))

    return ad._make((set_to_scan + scan_to_set) * 0.5, (centers_t,), vjp)


def _weighted_total_t(terms, weights):
    """sum_k w_k term_k as one node over the five terms; term k's gradient is g w_k."""
    weighted = [(terms[name], getattr(weights, field)) for name, field in _TERM_WEIGHTS.items()]
    total = weighted[0][0].value * weighted[0][1]
    for term, weight in weighted[1:]:
        total = total + term.value * weight

    def vjp(g):
        for term, weight in weighted:
            ad._accum(term, g * weight)

    return ad._make(total, [term for term, _ in weighted], vjp)


# ---------------------------------------------------------------------------
# the full objective over cascade parameters


def total_loss(cascade, frame, weights, max_scale, propagate_covariance=True, workers=1,
               with_grads=True):
    """Weighted objective through cascade_apply, on the FrameConstants `frame`.

    Returns (total, components, trace): components maps each term name to its
    unweighted value and trace is the cascade's `trace_cascade` on the
    frame's previous set. Its `grad` is the gradient of the total w.r.t. the
    cascade's flat parameter buffer, laid out like `cascade.flat` (whose
    `views` names its parts). With with_grads=False the forward runs on
    constants, the trace is what `cascade_apply` takes, and its grad is None.
    """
    trace = trace_cascade(
        cascade, frame.prev_set,
        propagate_covariance=propagate_covariance,
        differentiable=with_grads,
        frame=frame,
    )
    graph = frame.graph
    edges = ad.edge_values(trace.centers.value, graph.index)  # shared by two terms
    terms = {
        "rigidity": rigidity_loss_t(frame, trace.centers, trace.orientations, edges),
        "isometry": isometry_loss_t(trace.centers, graph, edges),
        "rotation": rotation_loss_t(frame, trace.orientations),
        "scale": scale_loss_t(trace.scales, max_scale),
        "data": data_loss_t(trace.centers, frame, workers=workers),
    }
    total = _weighted_total_t(terms, weights)
    components = {name: float(term.value) for name, term in terms.items()}

    if with_grads:
        total.backward()
    return float(total.value), components, trace
