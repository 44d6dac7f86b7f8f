"""Optimizer mechanics and the per-frame fitting loop.

Adam has a closed form for the first step (m-hat/sqrt(v-hat) = sign(g)), which
pins the update magnitudes exactly; the sequence-level checks use scenes whose
correct answer is known by construction (static scene, uniform shift), or
by symmetry (a scene turned or shifted exactly in floating point).
"""

import gc
import json
import sys
import tracemalloc

import numpy as np
import pytest

from gscascade import autodiff, deform, geometry, losses, scenegen
from gscascade.clustering import build_hierarchy
from gscascade.config import ConfigError, check_section
from gscascade.core import GaussianSet
from gscascade.deform import CascadeDeform, cascade_apply, cascade_to_payload, trace_cascade
from gscascade.losses import DataObservation
from gscascade.optimize import (
    AdamState,
    TrainConfig,
    adam_step,
    fit_frame,
    fit_sequence,
    mean_center_error,
)
from oracles import (adam_step_per_class, edge_adjoint_slices, jacobi_eigh3_rowwise,
                     matched_loss_chain_t, subtract_rows_broadcast)


def scene(rng, n=25, spread=1.0):
    return GaussianSet(
        centers=rng.normal(size=(n, 3)) * spread,
        orientations=rng.normal(size=(n, 4)),
        scales=rng.uniform(0.008, 0.015, size=(n, 3)),
    )


def frame0_graph(gset, cfg):
    """The neighbour graph fit_sequence builds on `gset` as frame 0."""
    return losses.build_neighbor_graph(gset.centers, k=min(cfg.k_neighbors, gset.n - 1),
                                       scene_scale=cfg.scene_scale)


def zero_grads(cascade):
    """A zero gradient laid out like cascade.flat, and its views by key."""
    grad = np.zeros_like(cascade.flat)
    return grad, cascade.views(grad)


# ---------------------------------------------------------------------------
# TrainConfig


def test_config_validation_and_learning_rates():
    # TrainConfig checks nothing; its options' rules are rows of config.OPTIONS
    with pytest.raises(ConfigError, match="train.iters_per_frame must be >= 1, got 0"):
        check_section("train", {"iters_per_frame": 0}, "the config")
    with pytest.raises(ConfigError, match="train.lr_rot must be > 0.0, got 0.0"):
        check_section("train", {"lr_rot": 0.0}, "the config")
    cfg = TrainConfig(scene_scale=2.0)
    assert cfg.resolved_lr("translations") == pytest.approx(1.6e-2 * 2.0)
    assert cfg.resolved_lr("rotations") == cfg.lr_rot
    assert cfg.resolved_lr("scale_dirs") == cfg.lr_scaledir
    assert cfg.resolved_lr("scale_biases") == cfg.lr_sbias
    assert cfg.resolved_lr("d_centers") == pytest.approx(0.1 * 1.6e-2 * 2.0)
    assert cfg.resolved_lr("d_rotations") == pytest.approx(0.1 * cfg.lr_rot)
    assert cfg.resolved_lr("d_log_scales") == pytest.approx(0.1 * cfg.lr_scaledir)
    assert TrainConfig(lr_trans=0.5).resolved_lr("translations") == 0.5
    for name in ("bogus", "layer0.translations"):  # classes only, not arrays() keys
        with pytest.raises(KeyError):
            cfg.resolved_lr(name)


# ---------------------------------------------------------------------------
# adam_step


def test_arrays_are_the_leaves_and_gradients_adam_steps():
    """arrays() names every parameter like the loss's gradients, in the same
    order, and hands out the live arrays, which the trace takes as its leaves."""
    rng = np.random.default_rng(11)
    gset = scene(rng, n=20)
    h = build_hierarchy(gset.centers, (2, 6), seed=0)
    casc = CascadeDeform(h, 20)
    obs = DataObservation(points=gset.centers + 0.01, correspondence=np.arange(20))
    graph = losses.build_neighbor_graph(gset.centers, k=5)
    keys = list(casc.arrays())
    assert len(keys) == 2 * 4 + 3
    frame = losses.FrameConstants(gset, obs, h, graph)
    assert all(np.shares_memory(a, casc.flat) for a in casc.arrays().values())
    grads = casc.views(losses.total_loss(casc, frame, losses.LossWeights(), 0.02)[2].grad)
    assert keys == list(grads)
    casc.arrays()["layer1.translations"][3] = [0.5, 0.0, 0.0]
    assert casc.layers[1].translations[3, 0] == 0.5
    casc.arrays()["d_log_scales"] += 0.25
    assert np.all(casc.d_log_scales == 0.25)
    assert not casc.is_zero()


def test_first_adam_step_has_closed_form():
    rng = np.random.default_rng(0)
    gset = scene(rng, n=20)
    h = build_hierarchy(gset.centers, (2, 6), seed=0)
    casc = CascadeDeform(h, 20)
    cfg = TrainConfig(scene_scale=1.0)
    grad, grads = zero_grads(casc)
    g = np.array([[0.3, -2.0, 0.0], [0.0, 0.0, 1e-4]])
    grads["layer0.translations"][...] = g
    adam_step(casc, grad, AdamState(casc, cfg), cfg)
    # bias corrections cancel at t=1: step = -lr * g / (|g| + eps)
    lr = cfg.resolved_lr("translations")
    want = -lr * g / (np.abs(g) + cfg.adam_eps)
    np.testing.assert_allclose(casc.layers[0].translations, want, atol=1e-12)
    # untouched classes stay exactly zero
    assert not casc.d_centers.any()
    assert not casc.layers[1].translations.any()


def test_constant_gradient_steps_accumulate_linearly():
    rng = np.random.default_rng(1)
    gset = scene(rng, n=15)
    h = build_hierarchy(gset.centers, (3,), seed=0)
    casc = CascadeDeform(h, 15)
    cfg = TrainConfig()
    state = AdamState(casc, cfg)
    assert state.t == 0 and not state.m.any() and not state.v.any()
    np.testing.assert_array_equal(casc.views(state.rates)["layer0.scale_biases"], cfg.lr_sbias)
    g = np.full((3,), 0.7)
    for _ in range(4):
        grad, grads = zero_grads(casc)
        grads["layer0.scale_biases"][...] = g
        assert adam_step(casc, grad, state, cfg) is None  # the cascade and state change in place
    # for constant g the bias-corrected ratio is g/|g| every step
    want = -4 * cfg.lr_sbias * 0.7 / (0.7 + cfg.adam_eps)
    np.testing.assert_allclose(casc.layers[0].scale_biases, want, rtol=1e-9)
    assert state.t == 4


def test_quaternions_renormalized_after_step():
    rng = np.random.default_rng(2)
    gset = scene(rng, n=12)
    h = build_hierarchy(gset.centers, (2,), seed=0)
    casc = CascadeDeform(h, 12)
    cfg = TrainConfig()
    grad, grads = zero_grads(casc)
    grads["layer0.rotations"][...] = rng.normal(size=(2, 4))
    grads["d_rotations"][...] = rng.normal(size=(12, 4))
    adam_step(casc, grad, AdamState(casc, cfg), cfg)
    np.testing.assert_allclose(np.linalg.norm(casc.layers[0].rotations, axis=-1), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(casc.d_rotations, axis=-1), 1.0, atol=1e-12)


def test_non_finite_gradient_raises_with_class_name():
    rng = np.random.default_rng(3)
    gset = scene(rng, n=10)
    h = build_hierarchy(gset.centers, (2,), seed=0)
    casc = CascadeDeform(h, 10)
    cfg = TrainConfig()
    grad, grads = zero_grads(casc)
    grads["layer0.scale_dirs"][1, 2] = np.nan
    with pytest.raises(ValueError, match="layer0.scale_dirs"):
        adam_step(casc, grad, AdamState(casc, cfg), cfg)
    grad, grads = zero_grads(casc)
    grads["d_log_scales"][0, 0] = np.inf
    with pytest.raises(ValueError, match="d_log_scales"):
        adam_step(casc, grad, AdamState(casc, cfg), cfg)


def test_flat_adam_step_is_the_per_class_step_bit_for_bit():
    """One update over the flat buffer and one renormalization of its
    quaternion block give the per-class update of separate arrays exactly,
    step after step."""
    rng = np.random.default_rng(31)
    gset = scene(rng, n=18)
    h = build_hierarchy(gset.centers, (2, 4, 7), seed=0)
    cfg = TrainConfig(scene_scale=1.7)
    flat_casc, split_casc = CascadeDeform(h, 18), CascadeDeform(h, 18)
    split = {key: a.copy() for key, a in split_casc.arrays().items()}
    flat_state, split_state = AdamState(flat_casc, cfg), {}
    for _ in range(6):
        grad = rng.normal(size=flat_casc.flat.shape) * rng.choice([1e-6, 1.0, 1e3],
                                                                   size=flat_casc.flat.shape)
        adam_step(flat_casc, grad, flat_state, cfg)
        grads = {key: g.copy() for key, g in flat_casc.views(grad).items()}
        adam_step_per_class(split, grads, split_state, cfg)
        for key, a in flat_casc.arrays().items():
            assert np.array_equal(a, split[key]), key
    assert not flat_casc.is_zero()


# ---------------------------------------------------------------------------
# fit_frame


def test_fit_frame_reduces_loss_on_uniform_shift():
    rng = np.random.default_rng(4)
    gset = scene(rng, n=25)
    h = build_hierarchy(gset.centers, (2, 8), seed=0)
    shift = np.array([0.05, -0.03, 0.02])
    obs = DataObservation(points=gset.centers + shift, correspondence=np.arange(25))
    cfg = TrainConfig(iters_per_frame=80, layer_sizes=(2, 8), seed=0)
    new_set, cascade, report = fit_frame(gset, obs, h, cfg, frame0_graph(gset, cfg))
    assert new_set.frame_index == gset.frame_index + 1
    assert len(report.curve) == 80
    assert report.wall_time > 0.0
    assert report.final_losses["data"] < 0.2 * report.curve[0]["data"]
    err = np.linalg.norm(new_set.centers - (gset.centers + shift), axis=-1).mean()
    assert err < 0.02
    assert not cascade.is_zero()


def test_fit_frame_builds_the_scan_tree_once(monkeypatch):
    """One k-d tree over the scan serves every evaluation of the frame; the
    tree over the moving centers is rebuilt per evaluation."""
    rng = np.random.default_rng(5)
    gset = scene(rng, n=25)
    points = gset.centers[:, None, :] + rng.normal(size=(25, 4, 3)) * 0.01
    obs = DataObservation(points=points.reshape(-1, 3) + np.array([0.02, 0.0, 0.0]))
    built = []

    def counting_tree(data, *args, **kwargs):
        built.append(len(data))
        return tree_cls(data, *args, **kwargs)

    h = build_hierarchy(gset.centers, (2, 8), seed=0)
    cfg = TrainConfig(iters_per_frame=6, layer_sizes=(2, 8), seed=0)
    graph = losses.build_neighbor_graph(gset.centers, k=8)
    tree_cls = losses.cKDTree
    monkeypatch.setattr(losses, "cKDTree", counting_tree)
    fit_frame(gset, obs, h, cfg, graph)
    assert built.count(100) == 1
    assert built.count(25) == cfg.iters_per_frame + 1


def test_fit_frame_ends_on_one_forward(monkeypatch):
    """The converged cascade is traced once, on constants, for both the final
    losses and the new set, which are what the two calls give on their own."""
    rng = np.random.default_rng(8)
    gset = scene(rng, n=25)
    h = build_hierarchy(gset.centers, (2, 8), seed=0)
    obs = DataObservation(points=gset.centers + 0.02, correspondence=np.arange(25))
    cfg = TrainConfig(iters_per_frame=4, layer_sizes=(2, 8), seed=0)
    graph = frame0_graph(gset, cfg)
    traced = []

    def counted(*args, **kwargs):
        traced.append(kwargs.get("differentiable", True))
        return trace_cascade(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(losses, "trace_cascade", counted)
        patch.setattr(deform, "trace_cascade", counted)
        new_set, cascade, report = fit_frame(gset, obs, h, cfg, graph)
    assert traced == [True] * 4 + [False]
    value, components, _ = losses.total_loss(cascade, losses.FrameConstants(gset, obs, h, graph),
                                             cfg.weights, cfg.max_scale, with_grads=False)
    assert report.final_losses == dict(components, total=value)
    alone = cascade_apply(cascade, gset)
    for name in ("centers", "orientations", "scales", "colors"):
        assert getattr(new_set, name).tobytes() == getattr(alone, name).tobytes()


def _fit_bytes():
    """Every fitted set's arrays and every checkpoint payload of a small fit."""
    seq = scenegen.generate(scenegen.SceneSpec("two_link_arm", n_gaussians=60, n_frames=3,
                                               seed=2))
    cfg = TrainConfig(iters_per_frame=5, layer_sizes=(2, 4, 8), seed=0,
                      scene_scale=seq.scene_scale, k_neighbors=8)
    report = fit_sequence(seq.frame0, seq.observations, cfg,
                          build_hierarchy(seq.frame0.centers, cfg.layer_sizes, seed=0))
    return ([g.centers.tobytes() + g.orientations.tobytes() + g.scales.tobytes()
             for g in report.sets],
            [json.dumps(cascade_to_payload(c), sort_keys=True) for c in report.cascades])


def test_fit_with_the_replaced_kernels_is_bit_identical(monkeypatch):
    """The row-wise Jacobi, the slice-by-slice edge row sums, the broadcast
    edge subtract and the six-node correspondence chain fit the same bits."""
    want = _fit_bytes()
    calls = dict.fromkeys(("jacobi", "adjoint", "subtract", "matched"), 0)

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    def rowwise(S):
        return (*jacobi_eigh3_rowwise(S), np.ones(S.shape[:-2], dtype=bool))

    monkeypatch.setattr(autodiff, "jacobi_eigh3", counting("jacobi", rowwise))
    monkeypatch.setattr(autodiff, "edge_adjoint", counting("adjoint", edge_adjoint_slices))
    monkeypatch.setattr(autodiff, "subtract_rows", counting("subtract", subtract_rows_broadcast))
    monkeypatch.setattr(losses, "_matched_t", counting("matched", matched_loss_chain_t))
    assert _fit_bytes() == want
    assert min(calls.values()) > 0, calls


def _fit_regression_error(path):
    """Mean center error of a small two_link_arm fit on scan points without
    correspondences (`path="chamfer"`) or on the scene's own observations."""
    seq = scenegen.generate(scenegen.SceneSpec("two_link_arm", n_gaussians=100, n_frames=4,
                                               seed=3))
    obs = seq.observations
    if path == "chamfer":
        rng = np.random.default_rng(5)
        obs = [DataObservation(points=(c[:, None, :]
                                       + rng.normal(scale=0.005, size=(100, 16, 3)))
                               .reshape(-1, 3))
               for c in seq.gt_centers]
    cfg = TrainConfig(iters_per_frame=20, layer_sizes=(4, 16), seed=0,
                      scene_scale=seq.scene_scale, k_neighbors=8)
    report = fit_sequence(seq.frame0, obs, cfg,
                          build_hierarchy(seq.frame0.centers, cfg.layer_sizes, seed=0))
    return mean_center_error(report.sets, seq.gt_centers)


# Both fits are pinned at their measured values: the paper states no bound for
# either, so these tests show change, not quality.


def test_chamfer_fit_regression():
    np.testing.assert_allclose(_fit_regression_error("chamfer"), 0.024388595627535658,
                               rtol=1e-6)


def test_correspondence_fit_regression():
    np.testing.assert_allclose(_fit_regression_error("correspondence"), 0.0199037421880596,
                               rtol=1e-6)


def _sixth_iteration(monkeypatch, scan, switch, probe):
    """A two_link_arm fit, N = 60, that calls `switch(probe)` as the sixth
    iteration of frame 1 (one `total_loss` and one `adam_step`) begins and
    `switch(None)` as it ends. The cyclic garbage collector is off in that
    window, so no finalizer of garbage that an earlier test left lands in it."""
    seq = scenegen.generate(scenegen.SceneSpec("two_link_arm", n_gaussians=60, n_frames=2))
    obs = seq.observations
    if scan:
        rng = np.random.default_rng(0)
        obs = [DataObservation(points=(c[:, None, :] + rng.normal(scale=0.005, size=(60, 64, 3)))
                               .reshape(-1, 3))
               for c in seq.gt_centers]
    cfg = TrainConfig(iters_per_frame=6, layer_sizes=(2, 6, 20), seed=0,
                      scene_scale=seq.scene_scale)
    evaluations = 0

    def loss(*args, **kwargs):
        nonlocal evaluations
        evaluations += 1
        if evaluations == 6:
            gc.collect()
            gc.disable()
            switch(probe)
        return losses.total_loss(*args, **kwargs)

    def step(*args):
        adam_step(*args)
        if evaluations == 6:
            switch(None)
            gc.enable()

    monkeypatch.setattr("gscascade.optimize.total_loss", loss)
    monkeypatch.setattr("gscascade.optimize.adam_step", step)
    try:
        fit_sequence(seq.frame0, obs, cfg,
                     build_hierarchy(seq.frame0.centers, cfg.layer_sizes, seed=0))
    finally:
        gc.enable()


def _iteration_calls(monkeypatch, scan):
    """`sys.setprofile` `call` and `c_call` events over the sixth iteration.
    The two wrapper events that switch the profiler off are counted too."""
    events = dict.fromkeys(("call", "c_call"), 0)

    def count(frame, event, arg):
        if event in events:
            events[event] += 1

    try:
        _sixth_iteration(monkeypatch, scan, sys.setprofile, count)
    finally:
        sys.setprofile(None)
    return events["call"], events["c_call"]


@pytest.mark.parametrize("scan, measured", [(False, (856, 522)), (True, (904, 554))],
                         ids=["correspondences", "scan"])
def test_iteration_work_stays_within_its_measured_calls(monkeypatch, scan, measured):
    """The Python- and C-level calls of one iteration do not depend on N (the
    same counts at N = 400), so a change that adds per-iteration work fails here.
    A change that removes some lowers the bound with it."""
    calls = _iteration_calls(monkeypatch, scan)
    assert calls[0] <= measured[0] and calls[1] <= measured[1], calls


def _iteration_peak(monkeypatch, scan):
    """The tracemalloc peak, in bytes, of the memory allocated over the sixth
    iteration."""
    peaks = []

    def switch(probe):
        if probe:
            tracemalloc.start()
        else:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    try:
        _sixth_iteration(monkeypatch, scan, switch, True)
    finally:
        tracemalloc.stop()
    return peaks[0]


@pytest.mark.parametrize("scan, measured", [(False, 488_112), (True, 508_072)],
                         ids=["correspondences", "scan"])
def test_iteration_memory_stays_at_its_measured_peak(monkeypatch, scan, measured):
    """The peak of the memory one iteration allocates stays within 1 KB of its
    measured value, so a change that adds a temporary array of 128 float64s or
    more to the iteration's high point fails here. A change that lowers the
    peak re-measures it."""
    peak = _iteration_peak(monkeypatch, scan)
    assert abs(peak - measured) <= 1024, peak


# ---------------------------------------------------------------------------
# fit_sequence


def test_static_sequence_stays_put():
    rng = np.random.default_rng(6)
    gset = scene(rng, n=25)
    obs = [DataObservation(points=gset.centers.copy(), correspondence=np.arange(25))
           for _ in range(4)]
    cfg = TrainConfig(iters_per_frame=30, layer_sizes=(2, 8), seed=0)
    report = fit_sequence(gset, obs, cfg, build_hierarchy(gset.centers, cfg.layer_sizes, seed=0))
    assert len(report.sets) == 4 and len(report.cascades) == 3
    assert report.sets[0] is gset
    gt = np.broadcast_to(gset.centers, (4, 25, 3))
    assert mean_center_error(report.sets, gt) < 1e-4
    for s in report.sets[1:]:
        np.testing.assert_allclose(np.linalg.norm(s.orientations, axis=-1), 1.0, atol=1e-9)
        assert np.all(s.scales > 0.0)


def test_sequence_rejects_correspondence_past_last_gaussian():
    rng = np.random.default_rng(6)
    gset = scene(rng, n=25)
    obs = [DataObservation(points=gset.centers.copy(), correspondence=np.arange(25))
           for _ in range(3)]
    obs[2] = DataObservation(points=gset.centers.copy(), correspondence=np.arange(1, 26))
    with pytest.raises(ValueError, match="frame 2: correspondence index 25 .* 25 Gaussians"):
        fit_sequence(gset, obs, TrainConfig(iters_per_frame=2, layer_sizes=(2, 8)),
                     build_hierarchy(gset.centers, (2, 8), seed=0))


def test_sequence_tracks_a_uniform_drift():
    rng = np.random.default_rng(7)
    gset = scene(rng, n=25)
    drift = np.array([0.04, 0.0, -0.02])
    obs = [DataObservation(points=gset.centers + t * drift, correspondence=np.arange(25))
           for t in range(3)]
    cfg = TrainConfig(iters_per_frame=80, layer_sizes=(1,), seed=0)
    report = fit_sequence(gset, obs, cfg, build_hierarchy(gset.centers, cfg.layer_sizes, seed=0))
    gt = np.stack([gset.centers + t * drift for t in range(3)])
    assert mean_center_error(report.sets, gt) < 0.02
    assert len(report.frames) == 2
    # online fitting: each frame starts from the previous frame's result
    assert report.frames[0].frame_index == 1
    assert report.frames[1].frame_index == 2


# A 120-degree turn about (1, 1, 1), a cyclic permutation of the axes that
# floating point keeps exactly, and a dyadic translation, which rounds each
# coordinate at most once: a fit of the moved scene is the moved fit of the
# scene but for rounding. The worst gap measured over the cases below is
# 2.1e-10 (an orientation, pendulum, turned, with correspondences; centers
# reach 3.4e-11, scales 5.9e-13), so the tolerance is about 5 times it.
_TURN = np.array([0.5, 0.5, 0.5, 0.5])
_MOVES = {
    "turned": (lambda p: np.ascontiguousarray(p[..., [2, 0, 1]]),
               lambda q: geometry.quat_multiply(_TURN, q)),
    "shifted": (lambda p: p + np.array([0.25, -0.125, 0.0625]), lambda q: q),
}
_SYMMETRY_TOL = 1e-9


def _moved_fit(kind, scan, move=lambda p: p, turn=lambda q: q):
    """A 3-frame, 40-iteration fit of `kind` at N = 120, on identity
    correspondences or on 16 scan points per center, with every position of
    its input moved by `move` and every orientation turned by `turn`;
    returns (fitted sets, the hierarchy's assignments and parent maps)."""
    seq = scenegen.generate(scenegen.SceneSpec(kind, n_gaussians=120, n_frames=3))
    obs = seq.observations
    if scan:
        rng = np.random.default_rng(0)
        obs = [DataObservation(points=(c[:, None, :] + rng.normal(scale=0.005, size=(120, 16, 3)))
                               .reshape(-1, 3)) for c in seq.gt_centers]
    obs = [DataObservation(points=move(o.points), correspondence=o.correspondence) for o in obs]
    f0 = seq.frame0
    initial = GaussianSet(centers=move(f0.centers), orientations=turn(f0.orientations),
                          scales=f0.scales)
    cfg = TrainConfig(iters_per_frame=40, layer_sizes=(4, 20, 80), seed=0,
                      scene_scale=seq.scene_scale)
    h = build_hierarchy(initial.centers, cfg.layer_sizes, seed=0)
    return fit_sequence(initial, obs, cfg, h).sets[1:], h.assignments + h.parent_maps


@pytest.mark.parametrize("scan", [False, True], ids=["correspondences", "scan"])
@pytest.mark.parametrize("kind", scenegen.KINDS)
def test_fit_commutes_with_exact_moves_of_the_world(kind, scan):
    """A turned or shifted scene gets the same hierarchy and the turned or
    shifted fit, within rounding: no axis or origin is special to the fit."""
    base, base_labels = _moved_fit(kind, scan)
    for name, (move, turn) in _MOVES.items():
        sets, labels = _moved_fit(kind, scan, move, turn)
        assert all(np.array_equal(a, b) for a, b in zip(labels, base_labels)), name
        for want, got in zip(base, sets):
            np.testing.assert_allclose(got.centers, move(want.centers), rtol=0,
                                       atol=_SYMMETRY_TOL, err_msg=name)
            np.testing.assert_allclose(got.orientations, turn(want.orientations), rtol=0,
                                       atol=_SYMMETRY_TOL, err_msg=name)
            np.testing.assert_allclose(got.scales, want.scales, rtol=0, atol=_SYMMETRY_TOL,
                                       err_msg=name)


def test_mean_center_error_hand_value():
    rng = np.random.default_rng(10)
    gset = scene(rng, n=10)
    s1 = gset.copy()
    s1.centers = s1.centers + np.array([0.1, 0.0, 0.0])
    s2 = gset.copy()
    s2.centers = s2.centers + np.array([0.0, 0.3, 0.0])
    gt = np.stack([gset.centers] * 3)
    err = mean_center_error([gset, s1, s2], gt)
    np.testing.assert_allclose(err, (0.1 + 0.3) / 2.0, atol=1e-12)
