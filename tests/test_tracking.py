"""Pinhole projection geometry and 2D track-error scoring.

Projection oracles are hand-worked similar-triangle cases; the error metric
is pinned by literal pixel arithmetic.
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
from oracles import unproject


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
