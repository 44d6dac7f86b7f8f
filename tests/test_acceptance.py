"""Behavioral acceptance checks for the whole pipeline, one test per claim.

Each test pins a falsifiable end-to-end property: gradient/Jacobian agreement
with finite differences, covariance propagation guarantees, the accuracy gap
between deep and single-layer cascades, convergence plateaus, tracking and
segmentation quality on synthetic articulated scenes, scale-bound enforcement,
and byte determinism of the CLI. Criteria 3-8 measure with the functions of
`scripts/acceptance_margins.py` at seed 11 and assert against its BOUNDS,
which the script also reports over many seeds; criteria 1, 2 and 9, criterion
7's Procrustes property and the time limits are measured and bounded here.
Tolerances are fixed on purpose: they are the contract, not tuning knobs.
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
from gscascade.segmentation import procrustes_rotation
from conftest import load_script
from oracles import ClusterDeformParams, layer_apply, layer_jacobian

margins = load_script("acceptance_margins")
SEED = 11


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


def assert_within_bounds(criterion, values):
    """Each quantity that BOUNDS bounds for the criterion holds its bound."""
    for name, (op, bound) in margins.BOUNDS[criterion].items():
        assert margins.COMPARE[op](values[name], bound), (name, values[name], op, bound)


@pytest.fixture(scope="session")
def ablation_elapsed():
    """Criteria 4 and 6's shared fits at seed 11, run once and timed."""
    t0 = time.perf_counter()
    margins.ablation_fits(SEED)
    return time.perf_counter() - t0


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
    v = dict(margins.criterion_3(SEED))
    print(f"\n[3] orientation deviation: coupled {v['coupled deviation (deg)']:.2f} deg "
          f"(center err {v['coupled center error']:.4f}), decoupled "
          f"{v['decoupled deviation (deg)']:.2f} deg "
          f"(center err {v['decoupled center error']:.4f})")
    assert_within_bounds(3, v)


# ---------------------------------------------------------------------------
# 4. three cascade layers beat a single global cluster by >= 1.5x


def test_criterion_4_cascade_depth_ablation(ablation_elapsed):
    v = dict(margins.criterion_4(SEED))
    print("\n[4] " + "; ".join(
        f"{kind}: K=1 {v[f'{kind} K=1 error']:.4f} vs K=3 {v[f'{kind} K=3 error']:.4f} "
        f"({v[f'{kind} K=1/K=3']:.2f}x)" for kind in margins.ABLATION_SCENES)
        + f" ({ablation_elapsed:.0f}s)")
    assert_within_bounds(4, v)
    assert ablation_elapsed < 600.0


# ---------------------------------------------------------------------------
# 5. more iterations converge to the same error, monotonically


def test_criterion_5_convergence_plateau():
    v = dict(margins.criterion_5(SEED))
    print("\n[5] errors " + ", ".join(f"{k}: {v[f'error at {k}']:.5f}" for k in margins.BUDGETS)
          + f"; plateau gap {v['plateau gap']:.1%}")
    assert_within_bounds(5, v)


# ---------------------------------------------------------------------------
# 6. 2D tracking on fitted trajectories


def test_criterion_6_tracking_error():
    v = dict(margins.criterion_6(SEED))
    print("\n[6] median MTE: " + ", ".join(f"{k} {v[f'{k} median MTE']:.4%}"
                                         for k in margins.ABLATION_SCENES))
    assert_within_bounds(6, v)


# ---------------------------------------------------------------------------
# 7. motion segmentation quality and the rigid-subpart rotation property


def test_criterion_7_segmentation_and_rigid_subpart_rotation():
    v = dict(margins.criterion_7(SEED))
    print("\n[7] ARI: " + ", ".join(f"{k.removesuffix(' ARI')} {a:.4f}" for k, a in v.items()))
    assert_within_bounds(7, v)

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
    v = dict(margins.criterion_8(SEED))
    print(f"\n[8] max axis: enforced {v['enforced max axis']:.4f} (bound 0.04), "
          f"unconstrained {v['unconstrained max axis']:.4f} (blow-up bound 0.4)")
    assert_within_bounds(8, v)


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
