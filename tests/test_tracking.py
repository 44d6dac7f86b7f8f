"""Pinhole projection geometry and 2D track-error scoring.

Projection oracles are hand-worked similar-triangle cases; the error metric
is pinned by literal pixel arithmetic. Batched candidate selection is checked
against the per-candidate loop in `oracles.select_candidate_loop`, and
projection, selection and the error bit for bit against the forms that
rebuilt the camera matrix on every call and projected the whole trajectory.
`score_track` is checked against the four calls it makes.
"""

import copy
import itertools
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from gscascade import geometry
from gscascade.clustering import build_hierarchy
from gscascade.optimize import TrainConfig, fit_sequence
from gscascade.scenegen import SceneSpec, generate
from gscascade.tracking import (
    CANDIDATE_RADIUS_PX,
    PinholeCamera,
    Track2D,
    look_at_camera,
    mte,
    project,
    project_track,
    score_track,
    select_candidate,
)
from oracles import (
    mte_norm,
    project_rebuilt,
    select_candidate_loop,
    select_candidate_whole,
    unproject,
)


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


@pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy", "rotation", "translation", "width",
                                  "height"])
def test_camera_rejects_a_boolean_in_every_field(name):
    """A JSON true, alone or as one entry of an array, used to load as 1."""
    payload = look_at_camera(eye=[1.0, 2.0, 3.0], target=[0.0, 0.0, 0.0], fx=100.0, fy=120.0,
                             width=320, height=240).to_payload()
    value = payload[name]
    for bad in ([True, *value[1:]] if isinstance(value, list) else True,
                np.array([True] * len(value)) if isinstance(value, list) else np.True_):
        with pytest.raises(ValueError) as err:
            PinholeCamera.from_payload(dict(payload, **{name: bad}))
        assert str(err.value) == f"camera {name} must hold numbers, not booleans"


def test_every_camera_array_is_read_only():
    """A camera's arrays cannot be written, so a camera can be shared between
    scenes (scenegen's ring is) and its matrix cannot go stale. The
    translation is the camera's own copy: the caller's array stays writable."""
    given = np.array([0.1, -0.2, 3.0])
    built = PinholeCamera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, rotation=np.array([1.0, 0, 0, 0]),
                          translation=given, width=10, height=10)
    assert given.flags.writeable
    ring = generate(SceneSpec("wheel", n_gaussians=60, n_frames=2)).cameras
    for cam in (built, ring[3]):
        for array in (cam.rotation, cam.translation, cam.world_to_camera):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def same_bits(got, want):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))


def test_project_keeps_the_bits_of_the_rebuilt_camera_matrix():
    """Pixels, depths and flags equal the rebuilt-matrix projection's bytes,
    with every point valid and with some behind the camera (the NaN fill)."""
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(60):
        cam = look_at_camera(eye=rng.normal(size=3) * 3.0, target=rng.normal(size=3) * 0.2,
                             fx=rng.uniform(50.0, 900.0), fy=rng.uniform(50.0, 900.0),
                             width=int(rng.integers(1, 1000)), height=int(rng.integers(1, 1000)))
        T, N = int(rng.integers(1, 6)), int(rng.integers(0, 40))
        for points in (rng.normal(size=3), rng.normal(size=(N, 3)) * rng.choice([0.3, 6.0]),
                       rng.normal(size=(T, N, 3)) * rng.choice([0.3, 6.0])):
            got = project(cam, points)
            assert same_bits(got, project_rebuilt(cam, points))
            seen.add("all valid" if got[2].all() else "some behind")
    assert seen == {"all valid", "some behind"}


def test_camera_matrix_cannot_go_stale():
    """A camera is frozen and its rotation read-only; one built with a new
    rotation projects with that rotation's matrix. The matrix is no field: the
    payload and equality ignore it."""
    rng = np.random.default_rng(12)
    cam = look_at_camera(eye=[1.0, 2.0, -4.0], target=[0.0, 0.0, 0.0],
                         fx=300.0, fy=280.0, width=320, height=240)
    points = rng.normal(size=(25, 3))
    with pytest.raises(FrozenInstanceError):
        cam.rotation = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        cam.rotation[0] = 1.0
    turned = replace(cam, rotation=np.array([0.9, 0.1, -0.3, 0.2]))
    for camera in (turned, PinholeCamera.from_payload(turned.to_payload())):
        assert camera.world_to_camera.tobytes() == \
            geometry.quat_to_matrix(camera.rotation).tobytes()
        assert same_bits(project(camera, points), project_rebuilt(camera, points))
    assert not np.array_equal(project(turned, points)[0], project(cam, points)[0])
    assert "world_to_camera" not in turned.to_payload()
    assert "world_to_camera" not in {f.name for f in fields(PinholeCamera)}
    twin = copy.copy(turned)  # shares the fields' arrays, so == can compare them
    object.__setattr__(twin, "world_to_camera", np.eye(3))
    assert twin == turned


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
            pred.pixels[rng.random(T) < 0.1] = np.nan  # a valid frame at a NaN pixel
            gt = Track2D(rng.uniform(0, 640, size=(T, 2)), rng.random(T) < 0.8)
            both = pred.valid & gt.valid
            if not both.any():
                continue
            d = np.linalg.norm(pred.pixels[both] - gt.pixels[both], axis=-1)
            assert mte(pred, gt, 800.0).hex() == float(np.median(d) / 800.0).hex()


def _selection(traj, camera, gt, select):
    """The pick of `select`, or the message it raised."""
    try:
        return select(traj, camera, gt)
    except ValueError as e:
        return str(e)


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_select_candidate_keeps_the_picks_of_the_whole_trajectory_projection():
    """Projecting frame 0 of every Gaussian and then only the candidates picks
    what projecting the whole trajectory picked, raises the same messages, and
    the picked track's error keeps its bits; on the random cases (ties,
    candidates valid at frame 0 and behind the camera later, no candidate) and
    on every Gaussian visible in each camera of a generated arm scene."""
    cam = look_at_camera(eye=[0.0, 0.0, -4.0], target=[0.0, 0.0, 0.0],
                         fx=200.0, fy=200.0, width=160, height=120)
    rng = np.random.default_rng(9)
    cases = [(cam, *_random_selection_case(rng, cam)[:2]) for _ in range(300)]
    seq = generate(SceneSpec("two_link_arm", n_gaussians=60, n_frames=4, seed=3))
    fitted = seq.gt_centers + rng.normal(scale=0.01, size=seq.gt_centers.shape)
    for camera in seq.cameras:
        _, _, visible = project(camera, seq.gt_centers[0])
        cases += [(camera, fitted, project_track(camera, seq.gt_centers[:, gi]))
                  for gi in np.flatnonzero(visible)]
    tilted = look_at_camera(eye=[1.0, 2.0, -4.0], target=[0.0, 0.0, 0.0],
                            fx=200.0, fy=200.0, width=160, height=120)
    infinite = np.zeros((3, 1, 3))
    infinite[1, 0, 0] = -np.inf  # valid, with NaN pixels: no finite error
    cases.append((tilted, infinite, project_track(tilted, np.zeros((3, 3)))))
    seen = set()
    for camera, traj, gt in cases:
        got = _selection(traj, camera, gt, select_candidate)
        assert got == _selection(traj, camera, gt, select_candidate_whole)
        if isinstance(got, str):
            seen.add("no candidate" if "10 px" in got else "no finite error")
            continue
        pred = project_track(camera, traj[:, got])
        assert mte(pred, gt, camera.image_diagonal).hex() == \
            mte_norm(pred, gt, camera.image_diagonal).hex()
        pix, _, valid = project(camera, traj)
        gated = valid[0] & (np.linalg.norm(pix[0] - gt.pixels[0], axis=-1) <= 10.0)
        if (~valid[1:, gated]).any():
            seen.add("candidate behind later")
        if (traj[:, got:got + 1] == traj).all(axis=(0, 2)).sum() > 1:
            seen.add("winner tied")
    assert seen == {"no candidate", "no finite error", "candidate behind later", "winner tied"}


# ---------------------------------------------------------------------------
# track scoring


def _four_calls(camera, gt_trajectory, centers):
    """What `score_track` replaces: project the ground truth, skip it if it
    starts behind the camera, select the candidate, project it, take its mte."""
    gt_track = project_track(camera, gt_trajectory)
    if not gt_track.valid[0]:
        return None
    pick = select_candidate(centers, camera, gt_track)
    pred_track = project_track(camera, centers[:, pick])
    return gt_track, pick, pred_track, mte(pred_track, gt_track, camera.image_diagonal)


def test_score_track_keeps_the_picks_and_bits_of_the_four_calls():
    """On every Gaussian of a small fit, and of the fit shifted by 0.05, seen
    by every camera of the ring and by one inside the scene: the same pick,
    tracks and `mte` bits, the same None for a start behind the camera, and
    the same message for a start no Gaussian is near."""
    seq = generate(SceneSpec("two_link_arm", n_gaussians=40, n_frames=3, seed=3))
    config = TrainConfig(iters_per_frame=3, layer_sizes=(2, 4, 8), seed=0,
                         scene_scale=seq.scene_scale, k_neighbors=6)
    report = fit_sequence(seq.frame0, seq.observations, config,
                          build_hierarchy(seq.frame0.centers, config.layer_sizes, seed=0))
    fitted = np.stack([gset.centers for gset in report.sets])
    # a camera inside the scene has Gaussians behind it; the shifted fit
    # leaves some tracks with no Gaussian within 10 px of their start
    inside = look_at_camera(eye=[0.0, 0.0, 0.0], target=[0.0, 0.0, 1.0],
                            fx=800.0, fy=800.0, width=640, height=640)
    seen = set()
    for camera, centers, gi in itertools.product([*seq.cameras, inside],
                                                 [fitted, fitted + [0.05, 0.0, 0.0]],
                                                 range(fitted.shape[1])):
        args = (camera, seq.gt_centers[:, gi], centers)
        try:
            want = _four_calls(*args)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                score_track(*args)
            seen.add("raised")
            continue
        got = score_track(*args)
        if want is None:
            assert got is None
            seen.add("behind")
            continue
        (gt, pick, pred, error), (gt_want, pick_want, pred_want, error_want) = got, want
        assert pick == pick_want and error.hex() == error_want.hex()
        for track, other in ((gt, gt_want), (pred, pred_want)):
            assert track.pixels.tobytes() == other.pixels.tobytes()
            assert np.array_equal(track.valid, other.valid)
        seen.add("scored")
    assert seen == {"raised", "behind", "scored"}


def test_score_track_is_none_for_a_start_behind_the_camera():
    cam = identity_camera(cx=100.0, cy=100.0)
    gt_trajectory = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    centers = np.tile([0.0, 0.0, 1.0], (3, 2, 1))  # both start on the optical axis
    assert score_track(cam, gt_trajectory, centers) is None


def test_score_track_raises_when_no_gaussian_starts_near_the_track():
    cam = identity_camera(cx=100.0, cy=100.0)
    gt_trajectory = np.tile([0.0, 0.0, 1.0], (3, 1))
    centers = np.tile([0.11, 0.0, 1.0], (3, 1, 1))  # 11 px off at frame 0
    with pytest.raises(ValueError, match="no Gaussian projects within 10 px of the track start"):
        score_track(cam, gt_trajectory, centers)
    centers[..., 0] = 0.09  # 9 px: picked, and scored against the still track
    gt_track, pick, pred_track, error = score_track(cam, gt_trajectory, centers)
    assert pick == 0 and error == 9.0 / np.hypot(200, 200)
    np.testing.assert_array_equal(pred_track.pixels, np.tile([109.0, 100.0], (3, 1)))
    np.testing.assert_array_equal(gt_track.pixels, np.tile([100.0, 100.0], (3, 1)))
