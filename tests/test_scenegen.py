"""Synthetic scene generator: exact rigid ground truth, schedules, noise.

The rigid-part oracle is an independent Procrustes solve (SVD) per part and
frame: residual must vanish and the recovered rotation must equal the emitted
per-part quaternion. Schedules are pinned by their closed forms (full wheel
revolution, pendulum sine zeros). Every array and camera `generate` emits is
pinned by a digest per kind, over specs that vary N, T, magnitude, noise and
seed.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gscascade import geometry, scenegen
from gscascade.config import ConfigError, check_section
from gscascade.scenegen import KINDS, SceneSpec, generate
from gscascade.tracking import PinholeCamera


def procrustes(A, B):
    """Best rigid fit B ~ R(A - mean) + mean_B; returns (R, max residual)."""
    Ac = A - A.mean(axis=0)
    Bc = B - B.mean(axis=0)
    U, _, Vt = np.linalg.svd(Ac.T @ Bc)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    resid = np.abs(Ac @ R.T - Bc).max()
    return R, resid


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    # SceneSpec checks nothing; its fields' rules are the scene rows of config.OPTIONS
    for spec, message in (({"kind": "gearbox"}, "scene.kind: unknown scene kind 'gearbox'"),
                          ({"n_gaussians": 9}, "scene.n_gaussians must be >= 10, got 9"),
                          ({"n_frames": 1}, "scene.n_frames must be >= 2, got 1"),
                          ({"noise_sigma": -0.01}, "scene.noise_sigma must be >= 0.0, got -0.01")):
        with pytest.raises(ConfigError, match=message):
            check_section("scene", dict({"kind": "wheel"}, **spec), "the config")


def test_spec_default_magnitude_and_payload_roundtrip():
    spec = SceneSpec(kind="pendulum", n_gaussians=50, n_frames=4)
    assert spec.motion_magnitude == 25.0
    back = SceneSpec.from_payload(spec.to_payload())
    assert back == spec


@pytest.mark.parametrize("kind", KINDS)
def test_generate_is_deterministic(kind):
    a = generate(SceneSpec(kind=kind, n_gaussians=40, n_frames=3, seed=5))
    b = generate(SceneSpec(kind=kind, n_gaussians=40, n_frames=3, seed=5))
    assert np.array_equal(a.gt_centers, b.gt_centers)
    assert np.array_equal(a.frame0.centers, b.frame0.centers)
    assert np.array_equal(a.frame0.scales, b.frame0.scales)
    assert np.array_equal(a.part_labels, b.part_labels)
    assert np.array_equal(a.part_quats, b.part_quats)
    for oa, ob in zip(a.observations, b.observations):
        assert np.array_equal(oa.points, ob.points)


def test_the_camera_ring_is_built_once_per_process():
    """A process builds the eight ring cameras on its first `generate` and
    shares them after: in a fresh process `look_at_camera` runs 8 times, then
    0, and both scenes carry equal camera payloads. Each scene gets its own
    list of the shared cameras."""
    script = textwrap.dedent("""
        from gscascade import scenegen
        calls = []
        look_at = scenegen.look_at_camera
        def counted(*args, **kwargs):
            calls.append(args)
            return look_at(*args, **kwargs)
        scenegen.look_at_camera = counted
        payloads = []
        for kind in ("two_link_arm", "cloth_wave"):
            before = len(calls)
            seq = scenegen.generate(scenegen.SceneSpec(kind, n_gaussians=60, n_frames=2))
            payloads.append([camera.to_payload() for camera in seq.cameras])
            print(len(calls) - before)
        print(payloads[0] == payloads[1])
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(scenegen.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["8", "0", "True"]
    a, b = (generate(SceneSpec("wheel", n_gaussians=60, n_frames=2)) for _ in range(2))
    assert a.cameras is not b.cameras
    assert all(ca is cb for ca, cb in zip(a.cameras, b.cameras, strict=True))


# ---------------------------------------------------------------------------
# frame-0 structure


@pytest.mark.parametrize("kind", KINDS)
def test_frame0_structure(kind):
    seq = generate(SceneSpec(kind=kind, n_gaussians=60, n_frames=3))
    n = seq.frame0.n
    assert n == 60
    assert np.array_equal(seq.gt_centers[0], seq.frame0.centers)
    # identity initial orientations (spatial coherence across the scene)
    assert np.array_equal(seq.frame0.orientations, np.tile([1.0, 0, 0, 0], (n, 1)))
    # anisotropic scales with a fixed axis ratio
    np.testing.assert_allclose(seq.frame0.scales[:, 0] / seq.frame0.scales[:, 2], 2.0)
    np.testing.assert_allclose(seq.frame0.scales[:, 1] / seq.frame0.scales[:, 2], 1.4)
    assert np.all(seq.frame0.scales > 0.0)
    # relative part rotations start at the identity
    np.testing.assert_allclose(seq.part_quats[0, :, 0], 1.0, atol=1e-15)
    np.testing.assert_allclose(seq.part_quats[0, :, 1:], 0.0, atol=1e-15)
    # identity-matched noise-free observations
    for t, obs in enumerate(seq.observations):
        assert np.array_equal(obs.points, seq.gt_centers[t])
        assert np.array_equal(obs.correspondence, np.arange(n))
    assert len(seq.cameras) == 8
    assert all(isinstance(c, PinholeCamera) for c in seq.cameras)
    assert seq.n_frames == 3
    assert seq.scene_scale > 0.0


def test_part_sizes_respect_minimum():
    seq = generate(SceneSpec(kind="two_link_arm", n_gaussians=10, n_frames=2))
    counts = np.bincount(seq.part_labels)
    assert counts.sum() == 10
    assert np.all(counts >= 3)


def test_two_blobs_labels_match_geometry():
    seq = generate(SceneSpec(kind="two_blobs", n_gaussians=50, n_frames=2))
    x0 = seq.gt_centers[0][:, 0]
    assert np.all(x0[seq.part_labels == 0] < 0.0)
    assert np.all(x0[seq.part_labels == 1] > 0.0)


# ---------------------------------------------------------------------------
# motion ground truth


@pytest.mark.parametrize("kind", KINDS)
def test_zero_magnitude_freezes_every_frame(kind):
    seq = generate(SceneSpec(kind=kind, n_gaussians=30, n_frames=4, motion_magnitude=0.0))
    for t in range(1, 4):
        np.testing.assert_allclose(seq.gt_centers[t], seq.gt_centers[0], atol=1e-12)


@pytest.mark.parametrize("kind", ["wheel", "pendulum", "two_link_arm", "two_blobs"])
def test_rigid_parts_move_rigidly_with_emitted_rotations(kind):
    seq = generate(SceneSpec(kind=kind, n_gaussians=90, n_frames=4))
    for t in range(1, 4):
        for p in range(seq.part_quats.shape[1]):
            sel = seq.part_labels == p
            R, resid = procrustes(seq.gt_centers[0][sel], seq.gt_centers[t][sel])
            assert resid < 1e-9, (kind, t, p)
            R_want = geometry.quat_to_matrix(seq.part_quats[t, p])
            assert np.abs(R - R_want).max() < 1e-6, (kind, t, p)


def test_cloth_wave_is_not_rigid():
    seq = generate(SceneSpec(kind="cloth_wave", n_gaussians=100, n_frames=4))
    _, resid = procrustes(seq.gt_centers[0], seq.gt_centers[2])
    assert resid > 1e-3


def test_wheel_full_revolution_returns_to_start():
    # 45 deg/frame: frame 8 is one full turn
    seq = generate(SceneSpec(kind="wheel", n_gaussians=40, n_frames=9, motion_magnitude=45.0))
    np.testing.assert_allclose(seq.gt_centers[8], seq.gt_centers[0], atol=1e-9)
    mid = seq.gt_centers[4]
    assert np.abs(mid - seq.gt_centers[0]).max() > 0.1  # half turn is far away


def test_pendulum_sine_schedule():
    # amplitude sin(2 pi t / 16): zero again at t = 8, extreme at t = 4
    seq = generate(SceneSpec(kind="pendulum", n_gaussians=40, n_frames=10,
                             motion_magnitude=25.0))
    np.testing.assert_allclose(seq.gt_centers[8], seq.gt_centers[0], atol=1e-9)
    swing = geometry.rotation_angle(seq.part_quats[4, 1])
    np.testing.assert_allclose(swing, np.deg2rad(25.0), atol=1e-12)
    # the mount never moves
    np.testing.assert_allclose(geometry.rotation_angle(seq.part_quats[:, 0]), 0.0,
                               atol=1e-12)


def test_arm_distal_link_composes_both_joints():
    seq = generate(SceneSpec(kind="two_link_arm", n_gaussians=60, n_frames=3,
                             motion_magnitude=10.0))
    q1 = seq.part_quats[2, 1]
    q2_expected_angle = np.deg2rad((10.0 + 15.0) * 2)  # th1 + th2 at t=2
    np.testing.assert_allclose(geometry.rotation_angle(seq.part_quats[2, 2]),
                               q2_expected_angle, atol=1e-12)
    np.testing.assert_allclose(geometry.rotation_angle(q1), np.deg2rad(20.0), atol=1e-12)


# ---------------------------------------------------------------------------
# observation noise


def test_noise_statistics_match_sigma():
    sigma = 0.01
    seq = generate(SceneSpec(kind="two_blobs", n_gaussians=200, n_frames=10,
                             noise_sigma=sigma))
    resid = np.concatenate(
        [obs.points - seq.gt_centers[t] for t, obs in enumerate(seq.observations)]
    ).ravel()
    assert abs(resid.mean()) < 0.05 * sigma
    assert abs(resid.std() - sigma) < 0.05 * sigma
    # ground truth itself stays exact
    assert np.array_equal(seq.gt_centers[0], seq.frame0.centers)



# ---------------------------------------------------------------------------
# pinned bytes

# Five specs per kind: the defaults, a zero and a negative magnitude, noise,
# odd N, N = 10 (the part-split floor) and T from 2 to 20, over five seeds.
PINNED_SPECS = (
    {},
    {"n_gaussians": 37, "n_frames": 17, "motion_magnitude": 0.0, "seed": 3},
    {"n_gaussians": 61, "n_frames": 5, "motion_magnitude": 13.5, "noise_sigma": 0.01,
     "seed": 11},
    {"n_gaussians": 10, "n_frames": 2, "seed": 2},
    {"n_gaussians": 123, "n_frames": 9, "motion_magnitude": -0.07, "noise_sigma": 0.003,
     "seed": 42},
)

# sha256 of `scene_bytes` over PINNED_SPECS, per kind
PINNED_DIGESTS = {
    "wheel": "07570e7ad6d524c0dbb2d3c3615dbb7fd564570347c51514fa1a2818bb9056b4",
    "pendulum": "6af2fc6d017270ccb3c9b63a5ab83e63a6d95ac8db73e4eb003d0ac14edbd2d8",
    "two_link_arm": "d7306bcf06fb62aff48080e1ca8a61dd2227445c903f07b51815abfa678c2a19",
    "cloth_wave": "97a230dda6e791bb3b0ea2e48a4526064d4579f60647a9a510397a6d2b3471fe",
    "two_blobs": "10e70b3c94dedc87fa9dc7f05e2844c639c44ddc3b115fffc305b37714050f96",
}


def scene_bytes(seq):
    """Every array and camera field `generate` emits, with dtypes and shapes."""
    arrays = [seq.gt_centers, seq.part_labels, seq.part_quats, seq.frame0.centers,
              seq.frame0.orientations, seq.frame0.scales]
    for obs in seq.observations:
        arrays += [obs.points, obs.correspondence]
    chunks = [f"{a.dtype.str}{a.shape}".encode() + a.tobytes() for a in arrays]
    chunks += [repr(camera.to_payload()).encode() for camera in seq.cameras]
    return b"".join(chunks)


@pytest.mark.parametrize("kind", KINDS)
def test_generate_keeps_its_pinned_bytes(kind):
    digest = hashlib.sha256()
    for fields in PINNED_SPECS:
        digest.update(scene_bytes(generate(SceneSpec(kind=kind, **fields))))
    assert digest.hexdigest() == PINNED_DIGESTS[kind], kind
