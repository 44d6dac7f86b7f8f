"""Pinhole projection geometry and 2D track-error scoring.

Projection oracles are hand-worked similar-triangle cases; the error metric
is pinned by literal pixel arithmetic. Batched candidate selection is checked
against the per-candidate loop in `oracles.select_candidate_loop`.
"""

import numpy as np
import pytest

from gscascade.tracking import (
    CANDIDATE_RADIUS_PX,
    PinholeCamera,
    Track2D,
    look_at_camera,
    mte,
    project,
    project_track,
    select_candidate,
)
from oracles import select_candidate_loop, unproject


def identity_camera(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=200, height=200):
    return PinholeCamera(
        fx=fx, fy=fy, cx=cx, cy=cy,
        rotation=np.array([1.0, 0.0, 0.0, 0.0]),
        translation=np.zeros(3),
        width=width, height=height,
    )


# ---------------------------------------------------------------------------
# projection


def test_project_similar_triangles_hand_case():
    cam = identity_camera()
    pix, depth, valid = project(cam, np.array([1.0, 0.0, 1.0]))
    assert valid
    np.testing.assert_allclose(pix, [100.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(depth, 1.0, atol=1e-15)
    # doubling the depth halves the offset
    pix2, _, _ = project(cam, np.array([1.0, 0.0, 2.0]))
    np.testing.assert_allclose(pix2, [50.0, 0.0], atol=1e-12)


def test_project_optical_axis_hits_principal_point():
    cam = identity_camera(cx=320.0, cy=240.0)
    pix, _, valid = project(cam, np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 7.0]]))
    assert valid.all()
    np.testing.assert_allclose(pix, [[320.0, 240.0], [320.0, 240.0]], atol=1e-12)


def test_project_behind_camera_is_invalid_nan():
    cam = identity_camera()
    pts = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.1, 0.2, 1.0]])
    pix, _, valid = project(cam, pts)
    assert list(valid) == [False, False, True]
    assert np.isnan(pix[0]).all() and np.isnan(pix[1]).all()
    assert np.isfinite(pix[2]).all()


def test_unproject_roundtrip():
    rng = np.random.default_rng(0)
    cam = look_at_camera(eye=[2.0, 1.0, -3.0], target=[0.1, 0.0, 0.2],
                         fx=500.0, fy=480.0, width=640, height=480)
    pts = rng.normal(size=(50, 3)) * 0.4
    pix, depth, valid = project(cam, pts)
    assert valid.all()  # the cloud sits in front of this camera
    back = unproject(cam, pix, depth)
    np.testing.assert_allclose(back, pts, atol=1e-9)


def test_look_at_camera_centers_target():
    cam = look_at_camera(eye=[3.0, 2.0, 1.0], target=[0.2, -0.1, 0.4],
                         fx=800.0, fy=800.0, width=640, height=640)
    pix, depth, valid = project(cam, np.array([0.2, -0.1, 0.4]))
    assert valid and depth > 0
    np.testing.assert_allclose(pix, [320.0, 320.0], atol=1e-9)
    # points closer to the eye have smaller depth
    closer = 0.5 * (np.array([3.0, 2.0, 1.0]) + np.array([0.2, -0.1, 0.4]))
    _, d2, _ = project(cam, closer)
    assert d2 < depth


def test_camera_validation_and_payload_roundtrip():
    with pytest.raises(ValueError, match="focal"):
        identity_camera(fx=0.0)
    with pytest.raises(ValueError, match="image size"):
        PinholeCamera(fx=1.0, fy=1.0, cx=0.0, cy=0.0,
                      rotation=np.array([1.0, 0, 0, 0]), translation=np.zeros(3),
                      width=0, height=10)
    cam = look_at_camera(eye=[1.0, 2.0, 3.0], target=[0.0, 0.0, 0.0],
                         fx=100.0, fy=120.0, width=320, height=240)
    back = PinholeCamera.from_payload(cam.to_payload())
    np.testing.assert_allclose(back.rotation, cam.rotation, atol=1e-15)
    np.testing.assert_allclose(back.translation, cam.translation, atol=1e-15)
    assert back.image_diagonal == cam.image_diagonal == float(np.hypot(320, 240))


# ---------------------------------------------------------------------------
# tracks and the error metric


def test_track2d_validation():
    with pytest.raises(ValueError, match="aligned"):
        Track2D(pixels=np.zeros((4, 2)), valid=np.ones(3, dtype=bool))


def test_mte_hand_value():
    # constant 5 px offset on a 1000 px diagonal: error fraction 0.005
    pred = Track2D(pixels=np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]),
                   valid=np.ones(3, dtype=bool))
    gt = Track2D(pixels=np.array([[0.0, 5.0], [10.0, 5.0], [20.0, 5.0]]),
                 valid=np.ones(3, dtype=bool))
    assert mte(pred, gt, image_diagonal=1000.0) == pytest.approx(0.005)


def test_mte_median_is_outlier_robust():
    pred = Track2D(pixels=np.zeros((5, 2)), valid=np.ones(5, dtype=bool))
    gt_pix = np.zeros((5, 2))
    gt_pix[4] = [500.0, 0.0]  # one wild frame
    gt = Track2D(pixels=gt_pix, valid=np.ones(5, dtype=bool))
    assert mte(pred, gt, image_diagonal=1000.0) == pytest.approx(0.0)


def test_mte_uses_only_jointly_valid_frames():
    pred = Track2D(pixels=np.array([[0.0, 0.0], [np.nan, np.nan], [0.0, 3.0]]),
                   valid=np.array([True, False, True]))
    gt = Track2D(pixels=np.array([[0.0, 4.0], [1.0, 1.0], [0.0, 0.0]]),
                 valid=np.ones(3, dtype=bool))
    # distances on shared frames: 4 and 3 -> median 3.5
    assert mte(pred, gt, image_diagonal=100.0) == pytest.approx(0.035)
    never = Track2D(pixels=np.zeros((2, 2)), valid=np.zeros(2, dtype=bool))
    always = Track2D(pixels=np.zeros((2, 2)), valid=np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="no valid frames"):
        mte(never, always, 100.0)


def test_mte_invariant_under_shared_pixel_translation():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 100, size=(6, 2))
    b = rng.uniform(0, 100, size=(6, 2))
    shift = np.array([17.0, -4.0])
    v = np.ones(6, dtype=bool)
    m1 = mte(Track2D(a, v), Track2D(b, v), 640.0)
    m2 = mte(Track2D(a + shift, v), Track2D(b + shift, v), 640.0)
    assert m1 == pytest.approx(m2, rel=1e-12)


def test_project_track_shapes():
    cam = identity_camera()
    traj = np.stack([np.array([0.0, 0.0, 1.0]) * (t + 1) for t in range(4)])
    track = project_track(cam, traj)
    assert track.pixels.shape == (4, 2) and track.valid.shape == (4,)
    assert track.valid.all()


# ---------------------------------------------------------------------------
# candidate selection


def test_select_candidate_prefers_the_gaussian_that_follows_the_track():
    # two Gaussians start within the 10 px gate; only one follows the target
    cam = identity_camera(cx=100.0, cy=100.0)
    T = 5
    traj = np.zeros((T, 2, 3))
    for t in range(T):
        traj[t, 0] = [0.02 * t, 0.0, 1.0]   # moves right
        traj[t, 1] = [0.0, 0.05 * t, 1.0]   # moves down: the wrong candidate
    gt = project_track(cam, traj[:, 0])
    assert select_candidate(traj, cam, gt) == 0
    gt_wrong = project_track(cam, traj[:, 1])
    assert select_candidate(traj, cam, gt_wrong) == 1


def test_select_candidate_gate_is_10_px():
    cam = identity_camera(cx=100.0, cy=100.0)
    T = 3
    # candidate starts 11 px off in u: fx * x / z = 100 * 0.11 = 11 > 10
    traj = np.zeros((T, 1, 3))
    traj[:, 0] = [0.11, 0.0, 1.0]
    gt = Track2D(pixels=np.tile([100.0, 100.0], (T, 1)), valid=np.ones(T, dtype=bool))
    with pytest.raises(ValueError, match="10 px"):
        select_candidate(traj, cam, gt)
    # at 9 px it is admitted
    traj[:, 0] = [0.09, 0.0, 1.0]
    assert select_candidate(traj, cam, gt) == 0
    assert CANDIDATE_RADIUS_PX == 10.0


def _random_selection_case(rng, camera):
    """(centers_traj (T, N, 3), gt_track, features) of one random selection case.

    The ground truth starts near the origin, and each Gaussian follows it with
    its own offset and drift, so some start inside the 10 px gate and some
    outside (50 px per scene unit at the origin). Some cases copy Gaussians
    (ties), send Gaussians or the ground truth behind the camera after frame
    0, or move every Gaussian out of the gate.
    """
    T = int(rng.integers(2, 8))
    N = int(rng.integers(1, 16))
    gt_traj = np.cumsum(rng.normal(scale=0.05, size=(T, 3)), axis=0)
    offsets = rng.normal(scale=0.12, size=(N, 3))
    drift = np.cumsum(rng.normal(scale=0.05, size=(T, N, 3)), axis=0)
    traj = gt_traj[:, None, :] + offsets + drift - drift[:1]
    features = set()
    if rng.random() < 0.3 and N > 1:
        traj = traj[:, rng.integers(0, max(1, N // 3), size=N)]  # copies: ties
        features.add("copies")
    if rng.random() < 0.3:
        behind = rng.random((T, N)) < 0.3
        behind[0] = False
        traj[behind, 2] = -6.0  # the camera sits at z = -4, looking at +z
        features.add("candidates behind")
    if rng.random() < 0.3:
        gone = rng.random(T) < 0.4
        gone[0] = False
        gt_traj[gone, 2] = -6.0
        features.add("track invalid later")
    if rng.random() < 0.08:
        traj[..., 0] += 1.0  # 50 px away: no candidate
        features.add("no candidate")
    return traj, project_track(camera, gt_traj), features


def test_select_candidate_matches_the_per_candidate_loop():
    cam = look_at_camera(eye=[0.0, 0.0, -4.0], target=[0.0, 0.0, 0.0],
                         fx=200.0, fy=200.0, width=160, height=120)
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(300):
        traj, gt, features = _random_selection_case(rng, cam)
        seen |= features
        try:
            expected = select_candidate_loop(traj, cam, gt)
        except ValueError as e:
            assert "10 px" in str(e)
            with pytest.raises(ValueError, match="10 px"):
                select_candidate(traj, cam, gt)
            seen.add("raised")
            continue
        assert select_candidate(traj, cam, gt) == expected
        _, _, valid = project(cam, traj)
        if (traj[:, expected:expected + 1] == traj).all(axis=(0, 2)).sum() > 1:
            seen.add("winner tied")
        shared = (valid[:, expected] & gt.valid).sum()
        seen.add(f"{'odd' if shared % 2 else 'even'} shared frames")
    assert seen == {"copies", "candidates behind", "track invalid later", "no candidate",
                    "raised", "winner tied", "odd shared frames", "even shared frames"}


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_select_candidate_never_returns_minus_one():
    # an inf coordinate after frame 0 puts the Gaussian at infinite depth,
    # where it is valid but its pixels are NaN: its MTE is NaN
    cam = look_at_camera(eye=[1.0, 2.0, -4.0], target=[0.0, 0.0, 0.0],
                         fx=200.0, fy=200.0, width=160, height=120)
    traj = np.zeros((3, 2, 3))
    traj[:, 1] = [0.01, 0.0, 0.0]
    traj[1, 0, 0] = -np.inf
    gt = project_track(cam, np.zeros((3, 3)))
    pix, _, valid = project(cam, traj[1, 0])
    assert valid and np.isnan(pix).all()
    assert select_candidate_loop(traj, cam, gt) == select_candidate(traj, cam, gt) == 1
    # with no finite candidate the loop fell through to -1
    only = traj[:, :1]
    assert select_candidate_loop(only, cam, gt) == -1
    u, v = gt.pixels[0]
    with pytest.raises(ValueError, match=rf"starting at pixel \({u:.6g}, {v:.6g}\)"):
        select_candidate(only, cam, gt)


def test_mte_is_bit_identical_to_the_median_formula():
    rng = np.random.default_rng(5)
    for T in range(1, 12):
        for _ in range(10):
            pred = Track2D(rng.uniform(0, 640, size=(T, 2)), rng.random(T) < 0.8)
            gt = Track2D(rng.uniform(0, 640, size=(T, 2)), rng.random(T) < 0.8)
            both = pred.valid & gt.valid
            if not both.any():
                continue
            d = np.linalg.norm(pred.pixels[both] - gt.pixels[both], axis=-1)
            assert mte(pred, gt, 800.0).hex() == float(np.median(d) / 800.0).hex()
