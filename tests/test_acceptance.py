"""Behavioral acceptance checks for the whole pipeline, one test per claim.

Each test pins a falsifiable end-to-end property: gradient/Jacobian agreement
with finite differences, covariance propagation guarantees, the accuracy gap
between deep and single-layer cascades, convergence plateaus, tracking and
segmentation quality on synthetic articulated scenes, scale-bound enforcement,
and byte determinism of the CLI. Tolerances are fixed here on purpose — they
are the contract, not tuning knobs.
"""

import shutil
import time

import numpy as np
import pytest

from gscascade import geometry
from gscascade.cli import main
from gscascade.clustering import build_hierarchy
from gscascade.core import GaussianSet
from gscascade.deform import (
    cascade_apply,
    cascade_jacobians,
    CascadeDeform,
    propagated_covariances,
)
from gscascade.losses import (DataObservation, FrameConstants, LossWeights, build_neighbor_graph,
                              total_loss)
from gscascade.optimize import TrainConfig, fit_sequence, mean_center_error
from gscascade.scenegen import SceneSpec, generate
from gscascade.segmentation import (
    adjusted_rand_index,
    build_features,
    procrustes_rotation,
    segment,
)
from gscascade.tracking import score_track
from oracles import ClusterDeformParams, layer_apply, layer_jacobian


# ---------------------------------------------------------------------------
# helpers


def random_set(rng, n):
    return GaussianSet(
        centers=rng.normal(size=(n, 3)),
        orientations=rng.normal(size=(n, 4)),
        scales=rng.uniform(0.005, 0.03, size=(n, 3)),
    )


def random_cascade(rng, gset, sizes, with_deltas=True):
    """Generic (kink-free) parameter point: every class perturbed off zero.

    Magnitudes are kept moderate so the tanh scaling field stays away from
    its saturated endpoints — a near-zero field collapses the Jacobian and
    the propagated covariance with it, which is a degenerate configuration,
    not a generic one.
    """
    h = build_hierarchy(gset.centers, sizes, seed=0)
    casc = CascadeDeform(h, gset.n)
    for layer in casc.layers:
        layer.rotations = layer.rotations + 0.05 * rng.normal(size=layer.rotations.shape)
        layer.translations = 0.02 * rng.normal(size=layer.translations.shape)
        layer.scale_dirs = 0.1 * rng.normal(size=layer.scale_dirs.shape)
        layer.scale_biases = 0.1 * rng.normal(size=layer.scale_biases.shape)
    if with_deltas:
        casc.d_centers = 0.01 * rng.normal(size=(gset.n, 3))
        casc.d_rotations = geometry.quat_normalize(
            casc.d_rotations + 0.02 * rng.normal(size=(gset.n, 4))
        )
        casc.d_log_scales = 0.05 * rng.normal(size=(gset.n, 3))
    return casc


def param_array(cascade, key):
    """The mutable leaf array behind a gradient-dict key."""
    if key.startswith("layer"):
        head, name = key.split(".")
        return getattr(cascade.layers[int(head[len("layer"):])], name)
    return getattr(cascade, key)


def fit_scene(seq, layer_sizes, iters, seed, max_scale=0.02, propagate_covariance=True):
    config = TrainConfig(
        iters_per_frame=iters,
        layer_sizes=tuple(layer_sizes),
        seed=seed,
        scene_scale=seq.scene_scale,
        max_scale=max_scale,
        propagate_covariance=propagate_covariance,
    )
    hierarchy = build_hierarchy(seq.frame0.centers, config.layer_sizes, seed=seed)
    report = fit_sequence(seq.frame0, seq.observations, config, hierarchy)
    return report, mean_center_error(report.sets, seq.gt_centers)


def median_orientation_deviation(sets, seq):
    """Median angle (deg) between each Gaussian's fitted orientation change
    since frame 0 and its part's ground-truth rotation, over all later frames."""
    q0 = sets[0].orientations
    devs = []
    for t in range(1, len(sets)):
        change = geometry.quat_multiply(sets[t].orientations, geometry.quat_inverse(q0))
        gt = seq.part_quats[t][seq.part_labels]
        devs.append(np.degrees(geometry.relative_rotation_angle(change, gt)))
    return float(np.median(np.concatenate(devs)))


def track_errors(seq, sets, n_tracks=12, seed=11):
    """Per-track MTE for randomly chosen ground-truth trajectories."""
    camera = seq.cameras[0]
    centers = np.stack([s.centers for s in sets])
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(seq.gt_centers.shape[1], size=n_tracks, replace=False))
    scores = (score_track(camera, seq.gt_centers[:, gi], centers) for gi in chosen)
    return np.asarray([score[3] for score in scores if score is not None])


# Shared across the K-ablation and tracking criteria: three articulated scenes
# fitted with a 3-layer cascade and with a single global cluster.
_ABLATION_SCENES = {
    "wheel": 40.0,
    "pendulum": 85.0,
    "two_link_arm": 20.0,
}


@pytest.fixture(scope="session")
def ablation_fits():
    t0 = time.perf_counter()
    out = {}
    for kind, magnitude in _ABLATION_SCENES.items():
        seq = generate(SceneSpec(kind, n_gaussians=400, n_frames=4,
                                 motion_magnitude=magnitude, seed=11))
        report_k3, err_k3 = fit_scene(seq, (8, 40, 160), 100, seed=11)
        _, err_k1 = fit_scene(seq, (1,), 100, seed=11)
        out[kind] = {"seq": seq, "sets": report_k3.sets,
                     "err_k3": err_k3, "err_k1": err_k1}
    out["elapsed"] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# 1. analytic gradients of the full objective match central differences


def test_criterion_1_gradient_finite_difference_agreement():
    t0 = time.perf_counter()
    weights = LossWeights()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(50, 90))
        gset = random_set(rng, n)
        casc = random_cascade(rng, gset, (2, 5, 12))
        obs = DataObservation(points=gset.centers + 0.05 * rng.normal(size=(n, 3)),
                              correspondence=np.arange(n))
        graph = build_neighbor_graph(gset.centers, k=8, lambda_weight=1.0)
        frame = FrameConstants(gset, obs, casc.hierarchy, graph)

        def value():
            return total_loss(casc, frame, weights, 0.02, with_grads=False)[0]

        grads = casc.views(total_loss(casc, frame, weights, 0.02)[2].grad)
        probe_rng = np.random.default_rng(2000 + seed)
        for key, grad in grads.items():
            flat = param_array(casc, key).reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for j in probe_rng.choice(flat.size, size=min(3, flat.size), replace=False):
                h = 1e-6 * max(1.0, abs(flat[j]))
                old = flat[j]
                flat[j] = old + h
                f_plus = value()
                flat[j] = old - h
                f_minus = value()
                flat[j] = old
                fd = (f_plus - f_minus) / (2.0 * h)
                err = abs(gflat[j] - fd)
                assert err <= 1e-8 + 1e-4 * abs(fd), (key, int(j), gflat[j], fd)
                worst = max(worst, err / max(1e-8, abs(fd)))
    elapsed = time.perf_counter() - t0
    print(f"\n[1] gradients: worst relative error {worst:.2e} over 20 instances "
          f"x 15 parameter classes ({elapsed:.1f}s)")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. spatial Jacobians, covariance propagation, decompose/compose round-trip


def test_criterion_2_jacobians_and_covariance_propagation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # single-layer Jacobian vs central differences
    worst_layer = 0.0
    for _ in range(20):
        params = ClusterDeformParams(
            rotation=geometry.quat_normalize(rng.normal(size=4)),
            translation=0.3 * rng.normal(size=3),
            scale_dir=0.5 * rng.normal(size=3),
            scale_bias=float(0.5 * rng.normal()),
        )
        pc = rng.normal(size=3)
        x = rng.normal(size=(12, 3))
        J = layer_jacobian(params, pc, x)
        num = np.empty_like(J)
        h = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            num[:, :, j] = (layer_apply(params, pc, x + step)
                            - layer_apply(params, pc, x - step)) / (2 * h)
        worst_layer = max(worst_layer, float(np.max(np.abs(J - num))))
    assert worst_layer < 1e-5

    # accumulated cascade Jacobian: each output depends only on its own input,
    # so one coordinate-j step on every center probes column j of every J_i
    worst_casc = 0.0
    for seed in range(10):
        rng2 = np.random.default_rng(100 + seed)
        gset = random_set(rng2, 30)
        casc = random_cascade(rng2, gset, (2, 6), with_deltas=False)
        J = cascade_jacobians(casc, gset)
        num = np.empty_like(J)
        h = 1e-6
        for j in range(3):
            plus, minus = gset.copy(), gset.copy()
            plus.centers[:, j] += h
            minus.centers[:, j] -= h
            num[:, :, j] = (cascade_apply(casc, plus, propagate_covariance=False).centers
                            - cascade_apply(casc, minus, propagate_covariance=False).centers
                            ) / (2 * h)
        worst_casc = max(worst_casc, float(np.max(np.abs(J - num))))
    assert worst_casc < 1e-5

    # 1000 propagated covariances: exactly symmetric, PD, and recoverable
    n_cases = 0
    worst_round = 0.0
    for seed in range(10):
        rng3 = np.random.default_rng(200 + seed)
        gset = random_set(rng3, 100)
        casc = random_cascade(rng3, gset, (2, 5, 12))
        sigma = propagated_covariances(casc, gset)
        assert np.array_equal(sigma, sigma.transpose(0, 2, 1))
        np.linalg.cholesky(sigma)  # raises if any case is not PD
        q, s = geometry.decompose_covariance(sigma)
        back = geometry.compose_covariance(q, s)
        rel = (np.linalg.norm(back - sigma, axis=(1, 2))
               / np.linalg.norm(sigma, axis=(1, 2)))
        worst_round = max(worst_round, float(rel.max()))
        n_cases += len(sigma)
    assert n_cases == 1000
    assert worst_round < 1e-7

    elapsed = time.perf_counter() - t0
    print(f"\n[2] jacobians: layer {worst_layer:.2e}, cascade {worst_casc:.2e}; "
          f"round-trip {worst_round:.2e} over {n_cases} covariances ({elapsed:.1f}s)")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. covariance coupling keeps orientations aligned with the rotating part


def test_criterion_3_orientation_tracking_needs_covariance_coupling():
    seq = generate(SceneSpec("wheel", n_gaussians=400, n_frames=4,
                             motion_magnitude=24.0, seed=11))
    report_on, err_on = fit_scene(seq, (8, 40, 160), 600, seed=11,
                                  propagate_covariance=True)
    report_off, err_off = fit_scene(seq, (8, 40, 160), 600, seed=11,
                                    propagate_covariance=False)
    dev_on = median_orientation_deviation(report_on.sets, seq)
    dev_off = median_orientation_deviation(report_off.sets, seq)
    print(f"\n[3] orientation deviation: coupled {dev_on:.2f} deg "
          f"(center err {err_on:.4f}), decoupled {dev_off:.2f} deg "
          f"(center err {err_off:.4f})")
    assert dev_on < 5.0
    assert dev_off > 20.0


# ---------------------------------------------------------------------------
# 4. three cascade layers beat a single global cluster by >= 1.5x


def test_criterion_4_cascade_depth_ablation(ablation_fits):
    lines = []
    for kind in _ABLATION_SCENES:
        err_k3 = ablation_fits[kind]["err_k3"]
        err_k1 = ablation_fits[kind]["err_k1"]
        ratio = err_k1 / err_k3
        lines.append(f"{kind}: K=1 {err_k1:.4f} vs K=3 {err_k3:.4f} ({ratio:.2f}x)")
        assert ratio >= 1.5, lines[-1]
    print("\n[4] " + "; ".join(lines) + f" ({ablation_fits['elapsed']:.0f}s)")
    assert ablation_fits["elapsed"] < 600.0


# ---------------------------------------------------------------------------
# 5. more iterations converge to the same error, monotonically


def test_criterion_5_convergence_plateau():
    seq = generate(SceneSpec("pendulum", n_gaussians=120, n_frames=4,
                             motion_magnitude=25.0, noise_sigma=0.02, seed=11))
    budgets = (10, 40, 100, 400, 2000)
    errs = {}
    for iters in budgets:
        _, errs[iters] = fit_scene(seq, (4, 20, 80), iters, seed=11)
    plateau = abs(errs[2000] - errs[100]) / errs[100]
    print("\n[5] errors " + ", ".join(f"{k}: {v:.5f}" for k, v in errs.items())
          + f"; plateau gap {plateau:.1%}")
    assert plateau < 0.20
    for a, b in zip(budgets, budgets[1:]):
        assert errs[b] <= errs[a] * 1.10, (a, b, errs[a], errs[b])


# ---------------------------------------------------------------------------
# 6. 2D tracking on fitted trajectories


def test_criterion_6_tracking_error(ablation_fits):
    medians = {}
    for kind in _ABLATION_SCENES:
        errs = track_errors(ablation_fits[kind]["seq"], ablation_fits[kind]["sets"])
        assert len(errs) >= 10
        medians[kind] = float(np.median(errs))
    print("\n[6] median MTE: " + ", ".join(f"{k} {v:.4%}" for k, v in medians.items()))
    assert medians["pendulum"] < 0.01
    assert medians["two_link_arm"] < 0.01
    # the rotationally symmetric scene is only held to the ambiguity bound
    assert medians["wheel"] < 0.20


# ---------------------------------------------------------------------------
# 7. motion segmentation quality and the rigid-subpart rotation property


def test_criterion_7_segmentation_and_rigid_subpart_rotation():
    aris = {}
    for kind, n, magnitude, sizes in (
        ("two_blobs", 200, 0.05, (2, 8, 32)),
        ("two_link_arm", 400, 25.0, (8, 40, 160)),
    ):
        seq = generate(SceneSpec(kind, n_gaussians=n, n_frames=6,
                                 motion_magnitude=magnitude, seed=11))
        report, _ = fit_scene(seq, sizes, 100, seed=11)
        feats = build_features(report.sets)
        labels = segment(feats, int(seq.part_labels.max()) + 1, seed=0)
        aris[kind] = adjusted_rand_index(labels, seq.part_labels)
    print("\n[7] ARI: " + ", ".join(f"{k} {v:.4f}" for k, v in aris.items()))
    for kind, ari in aris.items():
        assert ari >= 0.95, (kind, ari)

    # any subset of a rigidly moving body recovers the body's rotation exactly
    rng = np.random.default_rng(0)
    for _ in range(100):
        pts = rng.normal(size=(30, 3))
        R = geometry.quat_to_matrix(geometry.quat_normalize(rng.normal(size=4)))
        moved = pts @ R.T + rng.normal(size=3)
        subset = rng.choice(30, size=int(rng.integers(3, 16)), replace=False)
        R_sub = procrustes_rotation(pts[subset], moved[subset])
        assert np.max(np.abs(R_sub - R)) < 1e-7


# ---------------------------------------------------------------------------
# 8. the scale hinge bounds axis growth; without it axes blow up


def test_criterion_8_scale_bound_enforcement():
    seq = generate(SceneSpec("two_blobs", n_gaussians=120, n_frames=10,
                             motion_magnitude=2.0, seed=11))
    report_off, _ = fit_scene(seq, (1, 1, 1), 300, seed=11, max_scale=2.0)
    report_on, _ = fit_scene(seq, (2, 8, 32), 300, seed=11, max_scale=0.02)
    axis_off = max(float(s.scales.max()) for s in report_off.sets[1:])
    axis_on = max(float(s.scales.max()) for s in report_on.sets[1:])
    print(f"\n[8] max axis: enforced {axis_on:.4f} (bound 0.04), "
          f"unconstrained {axis_off:.4f} (blow-up bound 0.4)")
    assert axis_on <= 2 * 0.02
    assert axis_off > 10 * (2 * 0.02)


# ---------------------------------------------------------------------------
# 9. the repro pipeline is byte-deterministic across thread counts


def test_criterion_9_repro_byte_determinism(tmp_path):
    # two runs over the *same* output path (summaries record input paths as
    # provenance, so distinct directories would differ trivially)
    out = tmp_path / "repro"

    def run_and_snapshot(threads):
        assert main(["repro", "--out", str(out), "--seed", "1",
                     "--threads", str(threads)]) == 0
        snap = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.suffix in (".csv", ".json")
        }
        shutil.rmtree(out)
        return snap

    a = run_and_snapshot(1)
    b = run_and_snapshot(2)
    assert a and a.keys() == b.keys()
    differing = [rel for rel in a if a[rel] != b[rel]]
    assert differing == []
    print(f"\n[9] {len(a)} CSV/JSON files byte-identical across --threads 1 vs 2")
