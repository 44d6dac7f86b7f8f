"""The layered deformation map, its Jacobians, and covariance propagation.

Oracles: central finite differences for every Jacobian claim, direct rigid
transformation of (centers, orientations, covariances) for the pure-rotation
case, and the analytic composition law for stacked single-cluster layers.
"""

import json
import re

import numpy as np
import pytest

from gscascade import autodiff as ad
from gscascade import geometry
from gscascade.clustering import build_hierarchy
from gscascade.core import GaussianSet
from gscascade.deform import (
    _arr_from_hex,
    _arr_to_hex,
    IDENTITY_ROWS,
    CascadeDeform,
    CascadeFrame,
    _cascade_t,
    _nearest_signed_permutation,
    _scaled_t,
    cascade_apply,
    cascade_from_payload,
    cascade_jacobians,
    cascade_to_payload,
    propagated_covariances,
    trace_cascade,
)
from oracles import (
    arr_to_hex_per_element,
    ClusterDeformParams,
    add,
    cascade_chain_t,
    cascade_payload_per_layer,
    cube_rotations,
    exp,
    layer_apply,
    layer_jacobian,
    mul,
    nearest_signed_permutation,
    polar_rotation,
    quat_distance,
    scaling_factor,
    shifted_t,
    square,
    sub,
    tsum,
)


def random_set(rng, n=40, spread=1.0):
    return GaussianSet(
        centers=rng.normal(size=(n, 3)) * spread,
        orientations=rng.normal(size=(n, 4)),
        scales=rng.uniform(0.01, 0.05, size=(n, 3)),
    )


def covariances(gset):
    return geometry.compose_covariance(gset.orientations, gset.scales)


def random_cascade(rng, gset, sizes=(2, 5, 12), mag=0.1):
    h = build_hierarchy(gset.centers, sizes, seed=0)
    casc = CascadeDeform(h, gset.n)
    for layer in casc.layers:
        layer.rotations = layer.rotations + rng.normal(scale=mag, size=layer.rotations.shape)
        layer.translations = rng.normal(scale=mag * 0.2, size=layer.translations.shape)
        layer.scale_dirs = rng.normal(scale=mag, size=layer.scale_dirs.shape)
        layer.scale_biases = rng.normal(scale=mag, size=layer.scale_biases.shape)
    return casc


def random_params(rng, mag=0.3):
    return ClusterDeformParams(
        rotation=geometry.quat_normalize(rng.normal(size=4)),
        translation=rng.normal(size=3) * mag,
        scale_dir=rng.normal(size=3) * mag,
        scale_bias=float(rng.normal() * mag),
    )


# ---------------------------------------------------------------------------
# single layer


def test_scaling_factor_range_and_centroid_value():
    rng = np.random.default_rng(0)
    params = random_params(rng, mag=2.0)
    x = rng.normal(size=(200, 3)) * 3.0
    pc = np.array([0.2, -0.1, 0.4])
    sig = scaling_factor(params, pc, x)
    # mathematically in (0, 2); float tanh saturates to the closed endpoints
    assert np.all(sig >= 0.0) and np.all(sig <= 2.0)
    mild = np.abs((x - pc) @ params.scale_dir + params.scale_bias) < 5.0
    assert np.all(sig[mild] > 0.0) and np.all(sig[mild] < 2.0)
    # at the centroid the offset vanishes: sigma = tanh(bias) + 1
    at_pc = scaling_factor(params, pc, pc[None])
    np.testing.assert_allclose(at_pc, np.tanh(params.scale_bias) + 1.0, atol=1e-15)


def test_layer_apply_identity_at_zero_params():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 3))
    out = layer_apply(ClusterDeformParams.zero(), x.mean(axis=0), x)
    np.testing.assert_array_equal(out, x)


def test_layer_apply_anchored_vs_plain_form():
    # with sigma == 1 (zero scaling field) and a rigid (R, t), the anchored
    # form x + (R(x - pc) + t - (x - pc)) equals the plain rigid motion about
    # the centroid, pc + R(x - pc) + t
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    pc = np.array([0.3, -0.1, 0.2])
    params = ClusterDeformParams(
        rotation=geometry.quat_normalize(rng.normal(size=4)),
        translation=rng.normal(size=3) * 0.1,
        scale_dir=np.zeros(3),
        scale_bias=0.0,
    )
    plain = pc + (x - pc) @ geometry.quat_to_matrix(params.rotation).T + params.translation
    np.testing.assert_allclose(layer_apply(params, pc, x), plain, atol=1e-12)


def test_layer_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 3))
    pc = np.array([0.1, 0.2, -0.3])
    params = random_params(rng)
    J = layer_jacobian(params, pc, x)
    eps = 1e-6
    for i in range(x.shape[0]):
        num = np.zeros((3, 3))
        for d in range(3):
            xp, xm = x[i].copy(), x[i].copy()
            xp[d] += eps
            xm[d] -= eps
            fp = layer_apply(params, pc, xp[None])[0]
            fm = layer_apply(params, pc, xm[None])[0]
            num[:, d] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(J[i], num, atol=1e-6)


def test_layer_jacobian_pure_rotation_is_rotation_matrix():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 3))
    q = geometry.quat_normalize(rng.normal(size=4))
    params = ClusterDeformParams(
        rotation=q, translation=np.zeros(3), scale_dir=np.zeros(3), scale_bias=0.0
    )
    J = layer_jacobian(params, np.zeros(3), x)
    R = geometry.quat_to_matrix(q)
    np.testing.assert_allclose(J, np.broadcast_to(R, J.shape), atol=1e-12)


# ---------------------------------------------------------------------------
# cascade basics


def test_cascade_zero_is_exact_identity():
    rng = np.random.default_rng(5)
    gset = random_set(rng)
    h = build_hierarchy(gset.centers, (2, 6), seed=0)
    casc = CascadeDeform(h, gset.n)
    assert casc.is_zero()
    out = cascade_apply(casc, gset)
    assert out.frame_index == gset.frame_index + 1
    assert np.array_equal(out.centers, gset.centers)
    assert np.array_equal(out.orientations, gset.orientations)
    assert np.array_equal(out.scales, gset.scales)
    # one changed entry of any class breaks it, a NaN never equals, and a
    # -0.0 for a 0.0 keeps it
    for name, block in casc.classes.items():
        for at in (0, block.size - 1):
            entry = np.unravel_index(at, block.shape)
            identity = block[entry]
            for value in (identity + 0.5, np.nan):
                block[entry] = value
                assert not casc.is_zero(), (name, at, value)
            block[entry] = -0.0 if identity == 0.0 else identity
            assert casc.is_zero(), (name, at)
    assert set(casc.classes) == set(IDENTITY_ROWS) and casc.is_zero()


def test_layer_size_mismatch_rejected():
    """A checkpoint made on other layer sizes, or another layer count, does
    not load on the hierarchy, naming the array or the count."""
    rng = np.random.default_rng(60)
    gset = random_set(rng, n=20)
    h = build_hierarchy(gset.centers, (2, 6), seed=0)
    other = CascadeDeform(build_hierarchy(gset.centers, (2, 7), seed=0), 20)
    with pytest.raises(ValueError, match=r"layer1\.rotations has shape \(7, 4\), expected \(6"):
        cascade_from_payload(cascade_to_payload(other), h)
    fewer = CascadeDeform(build_hierarchy(gset.centers, (2,), seed=0), 20)
    with pytest.raises(ValueError, match="checkpoint has 1 layers, the hierarchy 2"):
        cascade_from_payload(cascade_to_payload(fewer), h)


def test_single_cluster_translation_moves_everything():
    rng = np.random.default_rng(7)
    gset = random_set(rng, n=20)
    h = build_hierarchy(gset.centers, (1,), seed=0)
    casc = CascadeDeform(h, 20)
    casc.layers[0].translations[0] = [0.5, -0.25, 1.0]
    out = cascade_apply(casc, gset)
    np.testing.assert_allclose(out.centers, gset.centers + [0.5, -0.25, 1.0], atol=1e-12)
    np.testing.assert_allclose(out.scales, gset.scales, atol=1e-12)
    assert np.max(quat_distance(out.orientations, gset.orientations)) < 1e-9


def test_global_rotation_co_rotates_centers_orientations_covariances():
    """A coarsest-layer rigid rotation must co-rotate every Gaussian."""
    rng = np.random.default_rng(8)
    gset = random_set(rng, n=25)
    h = build_hierarchy(gset.centers, (1,), seed=0)
    casc = CascadeDeform(h, 25)
    q = geometry.quat_normalize(np.array([0.9, 0.2, -0.3, 0.1]))
    casc.layers[0].rotations[0] = q
    out = cascade_apply(casc, gset)

    pc = h.centroids[0][0]
    R = geometry.quat_to_matrix(q)
    d = gset.centers - pc
    np.testing.assert_allclose(out.centers, gset.centers + (d @ R.T - d), atol=1e-12)

    want_q = geometry.quat_multiply(np.broadcast_to(q, (25, 4)), gset.orientations)
    assert np.max(quat_distance(out.orientations, want_q)) < 1e-7
    want_cov = np.einsum("ij,njk,lk->nil", R, covariances(gset), R)
    np.testing.assert_allclose(covariances(out), want_cov, atol=1e-9)
    np.testing.assert_allclose(np.sort(out.scales, -1), np.sort(gset.scales, -1), atol=1e-9)


def test_stacked_rotations_compose():
    """Single-cluster layers share one frozen centroid, so pure rotations
    compose into their matrix product."""
    rng = np.random.default_rng(9)
    n = 30
    gset = GaussianSet(
        centers=rng.normal(size=(n, 3)) * 0.3,
        orientations=rng.normal(size=(n, 4)),
        scales=rng.uniform(0.01, 0.04, size=(n, 3)),
    )
    h = build_hierarchy(gset.centers, (1, 1, 1), seed=0)
    casc = CascadeDeform(h, n)
    qs = [geometry.quat_normalize(rng.normal(size=4)) for _ in range(3)]
    for k, q in enumerate(qs):
        casc.layers[k].rotations[0] = q
    out = cascade_apply(casc, gset)
    composed = geometry.quat_multiply(qs[2], geometry.quat_multiply(qs[1], qs[0]))
    want_q = geometry.quat_multiply(np.broadcast_to(composed, (n, 4)), gset.orientations)
    assert np.max(quat_distance(out.orientations, want_q)) < 1e-7
    np.testing.assert_allclose(np.sort(out.scales, -1), np.sort(gset.scales, -1), atol=1e-7)
    J = cascade_jacobians(casc, gset)
    Rc = geometry.quat_to_matrix(composed)
    np.testing.assert_allclose(J, np.broadcast_to(Rc, J.shape), atol=1e-12)


def test_per_gaussian_deltas_apply_after_cascade():
    rng = np.random.default_rng(10)
    gset = random_set(rng, n=12)
    h = build_hierarchy(gset.centers, (1,), seed=0)
    casc = CascadeDeform(h, 12)
    casc.d_centers = rng.normal(scale=0.01, size=(12, 3))
    dq = geometry.quat_normalize(
        np.concatenate([np.ones((12, 1)), rng.normal(scale=0.05, size=(12, 3))], axis=1)
    )
    casc.d_rotations = dq
    casc.d_log_scales = rng.normal(scale=0.1, size=(12, 3))
    out = cascade_apply(casc, gset)
    np.testing.assert_allclose(out.centers, gset.centers + casc.d_centers, atol=1e-12)
    want_q = geometry.quat_multiply(dq, gset.orientations)
    assert np.max(quat_distance(out.orientations, want_q)) < 1e-9
    np.testing.assert_allclose(out.scales, gset.scales * np.exp(casc.d_log_scales), atol=1e-12)


# ---------------------------------------------------------------------------
# cascade Jacobians and covariance propagation


def test_cascade_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    gset = random_set(rng, n=20)
    casc = random_cascade(rng, gset, sizes=(2, 6), mag=0.15)
    J = cascade_jacobians(casc, gset)
    eps = 1e-6

    def forward(x_all):
        probe = GaussianSet(centers=x_all, orientations=gset.orientations, scales=gset.scales)
        tr = trace_cascade(casc, CascadeFrame(probe, casc.hierarchy),
                           propagate_covariance=False, differentiable=False)
        return tr.centers.value

    # cluster assignments are frozen in the hierarchy, so probing nearby
    # positions differentiates the same smooth map
    for i in rng.choice(gset.n, size=6, replace=False):
        num = np.zeros((3, 3))
        for d in range(3):
            xp = gset.centers.copy()
            xm = gset.centers.copy()
            xp[i, d] += eps
            xm[i, d] -= eps
            num[:, d] = (forward(xp)[i] - forward(xm)[i]) / (2 * eps)
        np.testing.assert_allclose(J[i], num, atol=1e-5)


def test_propagated_covariances_exactly_symmetric_and_pd():
    rng = np.random.default_rng(12)
    gset = random_set(rng, n=200)
    casc = random_cascade(rng, gset, sizes=(3, 10, 30), mag=0.2)
    cov = propagated_covariances(casc, gset)
    assert np.array_equal(cov, np.swapaxes(cov, -1, -2))
    assert np.all(np.linalg.eigvalsh(cov) > 0.0)
    # oracle: J Sigma J^T from the independently computed Jacobians
    J = cascade_jacobians(casc, gset)
    want = np.einsum("nij,njk,nlk->nil", J, covariances(gset), J)
    np.testing.assert_allclose(cov, want, atol=1e-12)


def test_decomposed_state_recomposes_to_propagated_covariance():
    rng = np.random.default_rng(13)
    gset = random_set(rng, n=60)
    casc = random_cascade(rng, gset, sizes=(2, 8), mag=0.25)
    out = cascade_apply(casc, gset)
    want = propagated_covariances(casc, gset)
    got = covariances(out)
    assert np.abs(got - want).max() < 1e-7 * max(1.0, np.abs(want).max())


def _factor_against(Q, M):
    """Oracle factorization of each covariance M relative to the rotation Q:
    the eigenbasis E of M, signed-permuted to the proper basis E P nearest Q,
    and the scales that go with its columns."""
    evals, E = np.linalg.eigh(M)
    E[..., 2] *= np.sign(np.linalg.det(E))[:, None]  # a proper basis
    perms = cube_rotations()
    EP = np.einsum("nij,pjk->npik", E, perms)
    best = np.argmax(np.einsum("nij,npij->np", Q, EP), axis=1)
    P = perms[best]
    R = np.einsum("nij,njk->nik", E, P)
    scales = np.sqrt(np.einsum("nji,nj->ni", np.abs(P), evals))
    return R, scales


def test_nearest_signed_permutation_matches_exhaustive_oracle():
    """The rounding is the nearest of all 24 proper signed permutations, also
    for bases more than 45 degrees from the identity, where a choice made
    entry by entry can pick a farther one."""
    rng = np.random.default_rng(24)
    V = geometry.quat_to_matrix(rng.normal(size=(2000, 4)))
    P = _nearest_signed_permutation(V)
    want = nearest_signed_permutation(V)
    assert np.array_equal(P, want)
    far = _angle_deg(V @ want, np.broadcast_to(np.eye(3), V.shape)) > 45.0
    assert far.sum() >= 100
    assert np.array_equal(_nearest_signed_permutation(np.eye(3)[None]), np.eye(3)[None])


def _cascade_rotation(casc):
    """R_K ... R_1 per Gaussian, the product of its clusters' layer rotations."""
    Rc = np.eye(3)
    for layer, cid in zip(casc.layers, casc.hierarchy.assignments):
        Rc = geometry.quat_to_matrix(layer.rotations)[cid] @ Rc
    return Rc


def _angle_deg(A, B):
    cos = (np.einsum("nij,nij->n", A, B) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


@pytest.mark.parametrize("field", [1.0, 0.2])
def test_factorization_does_not_depend_on_the_gauge_reference(field):
    """The cascade rounds the eigenbasis to R_casc R_prev. Rounding it to the
    nearest rotation of the full Jacobian, polar(J) R_prev, instead must give
    the same orientations and scales wherever the rounding is decided.

    Signed permutations are at least 90 degrees apart, so a basis within alpha
    of its rounding under one reference rounds the same way under another
    reference theta away whenever alpha + theta < 45 degrees; the rounding is
    exact, so every such basis is checked. A strong scaling field (field = 1)
    moves R_casc up to 180 degrees from polar(J), and there the two references
    may label the axes of the same covariance differently."""
    rng = np.random.default_rng(18)
    gset = random_set(rng, n=200)
    casc = random_cascade(rng, gset, sizes=(3, 10, 30), mag=0.25)
    for layer in casc.layers:
        layer.scale_dirs = field * layer.scale_dirs
        assert np.abs(layer.scale_dirs).min() > 0.0
    J = cascade_jacobians(casc, gset)
    theta = _angle_deg(_cascade_rotation(casc), polar_rotation(J))
    assert theta.max() > 5.0  # a non-rigid J: the references differ
    out = cascade_apply(casc, gset)
    Q = polar_rotation(J) @ geometry.quat_to_matrix(gset.orientations)
    want_R, want_s = _factor_against(Q, propagated_covariances(casc, gset))
    decided = _angle_deg(want_R, Q) + theta < 45.0
    assert decided.sum() >= 10
    got_R = geometry.quat_to_matrix(out.orientations)
    np.testing.assert_allclose(got_R[decided], want_R[decided], atol=1e-10)
    np.testing.assert_allclose(out.scales[decided], want_s[decided], atol=1e-10)


def test_flat_scaling_field_co_rotates_by_the_cascade_rotation():
    """With c = 0 every layer Jacobian is sigma_k R_k: orientations co-rotate
    by R_casc and scales stretch by the product of the sigmas."""
    rng = np.random.default_rng(19)
    gset = random_set(rng, n=120)
    casc = random_cascade(rng, gset, sizes=(3, 10, 30), mag=0.25)
    sigma = np.ones(gset.n)
    for layer, cid in zip(casc.layers, casc.hierarchy.assignments):
        layer.scale_dirs = np.zeros_like(layer.scale_dirs)
        assert np.abs(layer.scale_biases).min() > 0.0
        sigma = sigma * (np.tanh(layer.scale_biases) + 1.0)[cid]
    out = cascade_apply(casc, gset)
    want_R = _cascade_rotation(casc) @ geometry.quat_to_matrix(gset.orientations)
    np.testing.assert_allclose(geometry.quat_to_matrix(out.orientations), want_R, atol=1e-12)
    np.testing.assert_allclose(out.scales, sigma[:, None] * gset.scales, rtol=1e-12)


def test_degenerate_jacobian_raises():
    rng = np.random.default_rng(14)
    gset = random_set(rng, n=10)
    h = build_hierarchy(gset.centers, (1,), seed=0)
    casc = CascadeDeform(h, 10)
    # saturate the tanh so sigma == 0: the map collapses and J is singular
    casc.layers[0].scale_biases[0] = -60.0
    with pytest.raises(ValueError, match="positive definite"):
        cascade_apply(casc, gset)


def test_an_eigenvalue_at_the_floor_raises_naming_the_gaussian(monkeypatch):
    rng = np.random.default_rng(23)
    gset = random_set(rng, n=30)
    casc = random_cascade(rng, gset)

    def floored(S):
        evals, evecs, converged = geometry.jacobi_eigh3(S)
        evals[7, 1] = geometry._PD_FLOOR
        return evals, evecs, converged

    monkeypatch.setattr(ad, "jacobi_eigh3", floored)
    with pytest.raises(ValueError, match=r"not positive definite for Gaussian 7 \("):
        cascade_apply(casc, gset)


def test_non_finite_covariance_raises_naming_the_gaussian():
    """A NaN covariance passes the positive-definiteness check (NaN <= floor
    is False); the eigensolver's report catches it, naming the first Gaussian."""
    rng = np.random.default_rng(21)
    gset = random_set(rng, n=30)
    casc = random_cascade(rng, gset)
    casc.layers[1].translations[2] = np.nan
    first = int(np.argmax(casc.hierarchy.assignments[1] == 2))
    with pytest.raises(ValueError, match=rf"did not converge .* Gaussian {first} \("):
        cascade_apply(casc, gset)


def test_too_few_sweeps_raise_naming_the_first_unconverged_gaussian(monkeypatch):
    rng = np.random.default_rng(22)
    gset = random_set(rng, n=30)
    casc = random_cascade(rng, gset, mag=0.3)
    reports = []

    def one_sweep(S):
        out = geometry.jacobi_eigh3(S)
        reports.append(out[2])
        return out

    monkeypatch.setattr(geometry, "_EIGH3_MAX_SWEEPS", 1)
    monkeypatch.setattr(ad, "jacobi_eigh3", one_sweep)
    with pytest.raises(ValueError, match="did not converge") as raised:
        cascade_apply(casc, gset)
    assert not reports[0].all()
    assert f"Gaussian {int(np.argmin(reports[0]))} (" in str(raised.value)


def test_apply_with_a_given_trace_is_the_apply_that_traces():
    """cascade_apply on a trace the caller made gives the set it traces
    itself, and still copies the set exactly for the zero cascade."""
    rng = np.random.default_rng(23)
    gset = random_set(rng, n=30)
    for casc in (random_cascade(rng, gset), CascadeDeform(random_cascade(rng, gset).hierarchy, 30)):
        trace = trace_cascade(casc, CascadeFrame(gset, casc.hierarchy), differentiable=False)
        given = cascade_apply(casc, gset, trace=trace)
        own = cascade_apply(casc, gset)
        for name in ("centers", "orientations", "scales"):
            assert getattr(given, name).tobytes() == getattr(own, name).tobytes()
        assert given.frame_index == own.frame_index == gset.frame_index + 1
    assert given.centers.tobytes() == gset.centers.tobytes()


def test_payload_roundtrip_bit_exact():
    rng = np.random.default_rng(16)
    gset = random_set(rng, n=14)
    casc = random_cascade(rng, gset, sizes=(2, 5), mag=0.3)
    casc.d_centers = rng.normal(scale=0.01, size=(14, 3))
    back = cascade_from_payload(cascade_to_payload(casc), casc.hierarchy)
    for la, lb in zip(casc.layers, back.layers):
        assert np.array_equal(la.rotations, lb.rotations)
        assert np.array_equal(la.translations, lb.translations)
        assert np.array_equal(la.scale_dirs, lb.scale_dirs)
        assert np.array_equal(la.scale_biases, lb.scale_biases)
    assert np.array_equal(casc.d_centers, back.d_centers)
    assert np.array_equal(casc.d_rotations, back.d_rotations)
    assert np.array_equal(casc.d_log_scales, back.d_log_scales)
    out_a = cascade_apply(casc, gset)
    out_b = cascade_apply(back, gset)
    assert np.array_equal(out_a.centers, out_b.centers)


def test_parameters_are_views_of_one_flat_buffer():
    """Every array of arrays() and every field is a view into `flat`; the
    views tile the buffer, assigning a field copies into it, the two
    quaternion classes are one contiguous block, and a checkpoint array of
    another shape does not load into its view."""
    rng = np.random.default_rng(18)
    gset = random_set(rng, n=14)
    casc = random_cascade(rng, gset, sizes=(2, 5), mag=0.3)
    arrays = casc.arrays()
    assert all(a.base is casc.flat for a in arrays.values())
    covered = np.zeros_like(casc.flat)
    for view in casc.views(covered).values():
        view += 1.0
    assert np.all(covered == 1.0)
    d_centers = rng.normal(size=(14, 3))
    casc.d_centers = d_centers
    casc.layers[1].scale_biases = np.arange(5.0)
    assert np.array_equal(casc.arrays()["d_centers"], d_centers)
    assert np.array_equal(casc.arrays()["layer1.scale_biases"], np.arange(5.0))
    assert casc.d_centers.base is casc.flat and casc.layers[1].scale_biases.base is casc.flat
    quats = casc.flat[casc.quaternions].reshape(-1, 4)
    want = np.concatenate([*(layer.rotations for layer in casc.layers), casc.d_rotations])
    assert np.array_equal(quats, want)
    payload = cascade_to_payload(casc)
    payload["d_log_scales"] = _arr_to_hex(np.zeros((13, 3)))
    with pytest.raises(ValueError, match=r"d_log_scales has shape \(13, 3\), expected \(14, 3\)"):
        cascade_from_payload(payload, casc.hierarchy)


@pytest.mark.parametrize("key, shape", [
    ("d_centers", []),  # raised IndexError
    ("layer0.translations", [2.0, 3]),  # raised numpy's TypeError
    ("layer1.scale_biases", [True, 5]),
    ("d_log_scales", [14, 2]),  # 28 entries for 42 values
])
def test_payload_rejects_a_shape_that_does_not_hold_its_data(key, shape):
    """A checkpoint array's `shape` must be a list of ints whose product is
    its data length; otherwise loading raises ValueError naming the array."""
    rng = np.random.default_rng(21)
    gset = random_set(rng, n=14)
    casc = random_cascade(rng, gset, sizes=(2, 5), mag=0.3)
    payload = cascade_to_payload(casc)
    layer, _, name = key.rpartition(".")
    entry = payload["layers"][int(layer[5:])][name] if layer else payload[key]
    entry["shape"] = shape
    with pytest.raises(ValueError, match=rf"parameter {re.escape(key)} has shape"
                                         rf" {re.escape(repr(shape))}, which does not hold"):
        cascade_from_payload(payload, casc.hierarchy)


def test_payload_bytes_match_the_per_layer_payload():
    rng = np.random.default_rng(19)
    gset = random_set(rng, n=14)
    casc = random_cascade(rng, gset, sizes=(2, 5), mag=0.3)
    casc.d_centers = rng.normal(scale=0.01, size=(14, 3))
    casc.d_log_scales = rng.normal(scale=0.1, size=(14, 3))
    got = json.dumps(cascade_to_payload(casc), sort_keys=True, indent=2)
    assert got == json.dumps(cascade_payload_per_layer(casc), sort_keys=True, indent=2)
    back = cascade_from_payload(cascade_to_payload(casc), casc.hierarchy)
    assert np.array_equal(back.flat, casc.flat)


def test_hex_codec_keeps_the_bits_of_one_call_per_element():
    rng = np.random.default_rng(20)
    special = np.array([[-0.0, 0.0, 5e-324, 1.7976931348623157e308],
                        [np.inf, -np.inf, np.nan, 0.1]])
    wide = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-300, 300, size=(6, 5))
    narrow = np.clip(wide, -1e38, 1e38).astype(np.float32)
    for a in (special, wide, wide[:, ::2], wide.T, narrow, np.zeros((0, 3))):
        payload = _arr_to_hex(a)
        assert payload == arr_to_hex_per_element(a)
        want = np.array([float.fromhex(v) for v in payload["data"]], dtype=np.float64)
        assert _arr_from_hex(payload, "a").tobytes() == want.reshape(a.shape).tobytes()


def test_payload_rejects_an_unanchored_checkpoint():
    """A checkpoint key that `cascade_to_payload` does not write, at the top
    level or in a layer, raises ValueError naming it: `anchored` is one, of
    either value. The fit's own `frame_index` loads at the top level."""
    rng = np.random.default_rng(17)
    gset = random_set(rng, n=10)
    casc = random_cascade(rng, gset, sizes=(2,))
    payload = cascade_to_payload(casc)
    payload["frame_index"] = 1
    assert np.array_equal(cascade_from_payload(payload, casc.hierarchy).flat, casc.flat)
    for value in (True, False):
        payload["anchored"] = value
        with pytest.raises(ValueError, match=r"unknown key\(s\) in checkpoint: \['anchored'\]"):
            cascade_from_payload(payload, casc.hierarchy)
    del payload["anchored"]
    payload["layers"][0]["frame_index"] = 1
    with pytest.raises(ValueError,
                       match=r"unknown key\(s\) in checkpoint layer 0: \['frame_index'\]"):
        cascade_from_payload(payload, casc.hierarchy)


def _centre_path_is_its_chain(seed):
    """deform._cascade_t gives the values and gradients of the chain of
    per-layer nodes and centre delta it replaced, with the generic add and
    with the one-node shift: K = 1 to 4 layers, cluster 0 of every layer with
    one member, -0.0 among the parameters and the upstream weights, and J's
    gradient present and absent. R is a node in front of a leaf, as the
    cascade's rotations are, and the other operands leaves adding into zeroed
    buffers, as trace_cascade makes them."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(6, 30)), 1 + seed % 4
    sizes = np.sort(rng.integers(2, 6, size=k))
    starts = np.cumsum(np.concatenate([[0], sizes]))
    cids = []
    for size, start in zip(sizes, starts):
        cid = rng.integers(1, size, size=n)
        cid[:size] = np.arange(size)  # every cluster has a member, cluster 0 only one
        cids.append(cid + start)
    rows = int(starts[-1])
    index = ad.RowIndex(np.stack(cids), rows)
    x = rng.normal(size=(n, 3))
    centroids = [rng.normal(scale=0.5, size=(n, 3)) for _ in range(k)]
    R = geometry.quat_to_matrix(geometry.quat_normalize(rng.normal(size=(rows, 4))))
    t, c = rng.normal(scale=0.2, size=(rows, 3)), rng.normal(scale=0.8, size=(rows, 3))
    s, d = rng.normal(scale=0.3, size=rows), rng.normal(scale=0.01, size=(n, 3))
    t[0], c[1], d[2] = -0.0, -0.0, -0.0
    w_centers, w_J = rng.normal(size=(n, 3)), rng.normal(size=(n, 3, 3))
    w_centers[:2], w_J[:2] = -0.0, 0.0
    for use_J in (True, False):
        got = []
        for fn in (_cascade_t,
                   cascade_chain_t,
                   lambda *args: cascade_chain_t(*args, shift=shifted_t)):
            r = ad.leaf(R)
            leaves = [ad.leaf(a, grad=np.zeros_like(a)) for a in (t, c, s, d)]
            centers, J, R_casc = fn(x, mul(r, 1.0), *leaves, index, centroids)
            loss = tsum(mul(centers, ad.constant(w_centers)))
            if use_J:
                loss = add(loss, tsum(mul(J, ad.constant(w_J))))
            loss.backward()
            got.append([a.tobytes() for a in (centers.value, J.value, R_casc, r.grad,
                                              *(leaf.grad for leaf in leaves))])
        assert got[0] == got[1] == got[2], use_J


def _scale_delta_is_its_chain(seed):
    """The scale delta node gives the values and gradients of the exp and mul
    that it replaced: the delta a leaf adding into a zeroed buffer (as
    trace_cascade makes it), the scales a node whose first gradient is this
    one's, with an upstream weight of 0 in some cases."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    base = rng.uniform(1e-3, 2.0, size=(n, 3)) * rng.choice([1e-3, 1.0, 1e3])
    delta = rng.normal(scale=rng.choice([1e-8, 0.1, 3.0]), size=(n, 3))
    upstream = rng.normal(size=(n, 3)) * (seed % 3 != 0)
    got = []
    for fn in (_scaled_t, lambda s, d: mul(s, exp(d))):
        b, d = ad.leaf(base), ad.leaf(delta, grad=np.zeros((n, 3)))
        out = fn(mul(b, 1.0), d)  # a node in front of b, as the cascade's output is
        tsum(mul(out, ad.constant(upstream))).backward()
        got.append((out.value.tobytes(), b.grad.tobytes(), d.grad.tobytes()))
    assert got[0] == got[1]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("check", [_centre_path_is_its_chain, _scale_delta_is_its_chain],
                         ids=["centers", "scales"])
def test_delta_nodes_are_their_generic_chains_bit_for_bit(check, seed):
    """The centre path and the scale delta node are bit for bit the chains of
    nodes they replaced (see each check)."""
    check(seed)


def test_scale_delta_computes_no_gradient_for_constant_scales(monkeypatch):
    """Without covariance propagation the scales are constants: the scale
    delta's VJP forms only d_log_scales's gradient, not one for them."""
    rng = np.random.default_rng(3)
    scales = ad.constant(rng.uniform(0.01, 0.05, size=(5, 3)))
    d = ad.leaf(rng.normal(scale=0.1, size=(5, 3)), grad=np.zeros((5, 3)))
    out = _scaled_t(scales, d)
    handed, accum = [], ad._accum
    monkeypatch.setattr(ad, "_accum", lambda t, g: (handed.append(t), accum(t, g)))
    tsum(out).backward()
    assert any(t is d for t in handed) and not any(t is scales for t in handed)


def test_trace_gradients_flow_at_zero_parameters():
    """Every frame's fit starts from the zero cascade; gradients there must
    be live for all parameter groups."""
    rng = np.random.default_rng(17)
    gset = random_set(rng, n=15)
    h = build_hierarchy(gset.centers, (2, 5), seed=0)
    casc = CascadeDeform(h, 15)
    tr = trace_cascade(casc, CascadeFrame(gset, h))
    loss = tsum(square(sub(tr.centers, ad.constant(gset.centers + 0.01))))
    loss = add(loss, tsum(square(tr.scales)))
    loss.backward()
    grads = casc.views(tr.grad)
    for name in ("layer0.translations", "layer0.rotations", "layer0.scale_biases", "d_centers"):
        g = grads[name]
        assert g is not None and np.abs(g).max() > 0.0, name
