"""File formats: roundtrips, byte determinism, pinned headers."""

import numpy as np
import pytest

from gscascade.core import GaussianSet
from gscascade.io_formats import (
    LOSSES_HEADER,
    TRAJECTORY_HEADER,
    read_csv,
    read_gt_trajectory_csv,
    read_json,
    read_labels_csv,
    read_ply,
    read_trajectory_csv,
    write_csv,
    write_gt_trajectory_csv,
    write_json,
    write_labels_csv,
    write_losses_csv,
    write_mte_csv,
    write_ply,
    write_ppm,
    write_trajectory_csv,
)
from gscascade.optimize import FrameReport


def test_ply_roundtrip_exact_doubles(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    p = tmp_path / "pts.ply"
    write_ply(p, pts)
    back, colors = read_ply(p)
    assert np.array_equal(back, pts)  # repr() floats survive bit-for-bit
    assert colors is None


def test_ply_with_colors(tmp_path):
    pts = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    cols = np.array([[1.0, 0.0, 0.5], [0.0, 0.25, 1.0]])
    p = tmp_path / "c.ply"
    write_ply(p, pts, colors=cols)
    back, back_cols = read_ply(p)
    assert np.array_equal(back, pts)
    assert back_cols.dtype == np.uint8
    np.testing.assert_array_equal(back_cols, [[255, 0, 128], [0, 64, 255]])


def test_ply_uint8_colors_pass_through(tmp_path):
    pts = np.zeros((3, 3))
    cols = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.uint8)
    p = tmp_path / "u.ply"
    write_ply(p, pts, colors=cols)
    _, back = read_ply(p)
    assert np.array_equal(back, cols)


def test_ply_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text("solid nonsense\n")
    with pytest.raises(ValueError, match="not a PLY"):
        read_ply(p)
    p.write_text("ply\nformat ascii 1.0\n")  # header never ends
    with pytest.raises(ValueError, match="malformed"):
        read_ply(p)


@pytest.mark.parametrize("old, new, line", [
    ("format ascii 1.0", "format ascii 1.0\nelement", "line 3: 'element'"),
    ("element vertex 2", "element vertex", "line 3: 'element vertex'"),
    ("element vertex 2", "element vertex -1", "line 3: 'element vertex -1'"),
    ("element vertex 2", "element vertex two", "line 3: 'element vertex two'"),
    ("property double y", "property double", "line 5: 'property double'"),
], ids=["bare-element", "no-count", "negative-count", "word-count", "unnamed-property"])
def test_ply_malformed_header_line_is_named(tmp_path, old, new, line):
    p = tmp_path / "bad.ply"
    write_ply(p, np.zeros((2, 3)))
    p.write_text(p.read_text().replace(old, new, 1))
    with pytest.raises(ValueError) as err:
        read_ply(p)
    assert str(err.value) == f"{p}: malformed PLY header {line}"


def test_ply_with_no_vertices_reads_as_no_points(tmp_path):
    p = tmp_path / "empty.ply"
    write_ply(p, np.zeros((0, 3)))
    points, colors = read_ply(p)
    assert points.shape == (0, 3) and colors is None


def test_ply_writer_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(10, 3)) * 1e-7  # exercise scientific notation
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    write_ply(a, pts)
    write_ply(b, pts.copy())
    assert a.read_bytes() == b.read_bytes()


def test_csv_roundtrip_and_type_formatting(tmp_path):
    p = tmp_path / "t.csv"
    rows = [[0, 1.5, "name"], [1, 0.1 + 0.2, "x"]]
    write_csv(p, ["i", "v", "s"], rows)
    header, back = read_csv(p)
    assert header == ["i", "v", "s"]
    assert back[0] == ["0", "1.5", "name"]
    assert float(back[1][1]) == 0.1 + 0.2  # repr roundtrip, not "0.3"


def test_json_sorted_keys_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"zebra": 1, "apple": [1, 2], "mid": {"y": 0.5, "x": 1.0}})
    write_json(b, {"mid": {"x": 1.0, "y": 0.5}, "apple": [1, 2], "zebra": 1})
    assert a.read_bytes() == b.read_bytes()
    assert read_json(a) == read_json(b)
    assert a.read_text().index("apple") < a.read_text().index("zebra")


def test_ppm_header_and_payload(tmp_path):
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    p = tmp_path / "img.ppm"
    write_ppm(p, img)
    raw = p.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    assert raw[len(b"P6\n3 2\n255\n"):] == img.tobytes()
    with pytest.raises(ValueError, match="uint8"):
        write_ppm(p, img.astype(np.int32))
    with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
        write_ppm(p, img[..., :2])


# ---------------------------------------------------------------------------
# package tables


def make_sets(rng, T=3, n=5):
    sets = []
    for t in range(T):
        sets.append(
            GaussianSet(
                centers=rng.normal(size=(n, 3)),
                orientations=rng.normal(size=(n, 4)),
                scales=rng.uniform(0.01, 0.02, size=(n, 3)),
                frame_index=t,
            )
        )
    return sets


def test_trajectory_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    sets = make_sets(rng)
    p = tmp_path / "trajectory.csv"
    write_trajectory_csv(p, sets)
    header, _ = read_csv(p)
    assert header == TRAJECTORY_HEADER
    centers, orientations, scales = read_trajectory_csv(p)
    assert centers.shape == (3, 5, 3)
    for t, gset in enumerate(sets):
        assert np.array_equal(centers[t], gset.centers)
        assert np.array_equal(orientations[t], gset.orientations)
        assert np.array_equal(scales[t], gset.scales)


def test_trajectory_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, ["frame", "index", "x"], [[0, 0, 1.0]])
    with pytest.raises(ValueError, match="unexpected trajectory header"):
        read_trajectory_csv(p)


def test_trajectory_csv_rejects_ragged_table(tmp_path):
    p = tmp_path / "ragged.csv"
    rows = [[0, 0] + [0.0] * 10, [0, 1] + [0.0] * 10, [1, 0] + [0.0] * 10]
    write_csv(p, TRAJECTORY_HEADER, rows)
    with pytest.raises(ValueError, match="ragged"):
        read_trajectory_csv(p)


def test_losses_csv_layout(tmp_path):
    reports = [
        FrameReport(frame_index=1,
                    curve=[{"rigidity": 0.1, "isometry": 0.2, "rotation": 0.3,
                            "scale": 0.0, "data": 1.5, "total": 2.1},
                           {"rigidity": 0.05, "isometry": 0.1, "rotation": 0.2,
                            "scale": 0.0, "data": 0.7, "total": 1.05}],
                    final_losses={}, wall_time=0.1),
    ]
    p = tmp_path / "losses.csv"
    write_losses_csv(p, reports)
    header, rows = read_csv(p)
    assert header == LOSSES_HEADER
    assert rows[0][:2] == ["1", "0"] and rows[1][:2] == ["1", "1"]
    assert float(rows[1][7]) == 1.05


def test_labels_csv_roundtrip(tmp_path):
    labels = np.array([2, 0, 1, 1, 2])
    p = tmp_path / "labels.csv"
    write_labels_csv(p, labels)
    assert np.array_equal(read_labels_csv(p), labels)
    bad = tmp_path / "bad.csv"
    write_csv(bad, ["idx", "lab"], [[0, 1]])
    with pytest.raises(ValueError, match="unexpected labels header"):
        read_labels_csv(bad)


def test_gt_trajectory_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    gt = rng.normal(size=(4, 6, 3))
    p = tmp_path / "gt.csv"
    write_gt_trajectory_csv(p, gt)
    assert np.array_equal(read_gt_trajectory_csv(p), gt)


def test_mte_csv_columns(tmp_path):
    p = tmp_path / "mte.csv"
    write_mte_csv(p, [(0, 17, 0.004), (1, 3, 0.012)])
    header, rows = read_csv(p)
    assert header == ["track", "gaussian_index", "mte"]
    assert rows[0] == ["0", "17", "0.004"]
