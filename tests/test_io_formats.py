"""File formats: roundtrips, byte determinism, pinned headers, input rules."""

import re
from pathlib import Path

import numpy as np
import pytest

from gscascade.core import GaussianSet
from gscascade.io_formats import (
    GT_TRAJECTORY_HEADER,
    INIT_GAUSSIANS_HEADER,
    LOSSES_HEADER,
    RULES,
    TRAJECTORY_HEADER,
    read_csv,
    read_gt_trajectory_csv,
    read_init_gaussians_csv,
    read_json,
    read_labels_csv,
    read_ply,
    read_table,
    read_trajectory_csv,
    write_csv,
    write_gt_trajectory_csv,
    write_init_gaussians_csv,
    write_json,
    write_labels_csv,
    write_losses_csv,
    write_mte_csv,
    write_ply,
    write_ppm,
    write_trajectory_csv,
)
from gscascade.optimize import FrameReport
from oracles import write_csv_per_cell, write_frame_table_per_cell, write_ply_per_cell


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
    write_ply(p, np.zeros((2, 3)))
    p.write_text(p.read_text().replace("format ascii 1.0\n", "", 1))  # no format line
    with pytest.raises(ValueError, match="malformed PLY header$"):
        read_ply(p)


@pytest.mark.parametrize("old, new, line", [
    ("format ascii 1.0", "format ascii 1.0\nelement", "line 3: 'element'"),
    ("element vertex 2", "element vertex", "line 3: 'element vertex'"),
    ("element vertex 2", "element vertex -1", "line 3: 'element vertex -1'"),
    ("element vertex 2", "element vertex two", "line 3: 'element vertex two'"),
    ("property double y", "property double", "line 5: 'property double'"),
    # a binary body was parsed as text, and axes declared z, y, x were read as x, y, z
    ("format ascii 1.0", "format binary_little_endian 1.0",
     "line 2: 'format binary_little_endian 1.0'"),
    ("property double x\nproperty double y\nproperty double z",
     "property double z\nproperty double y\nproperty double x", "line 4: 'property double z'"),
], ids=["bare-element", "no-count", "negative-count", "word-count", "unnamed-property",
        "binary-format", "axes-z-y-x"])
def test_ply_malformed_header_line_is_named(tmp_path, old, new, line):
    p = tmp_path / "bad.ply"
    write_ply(p, np.zeros((2, 3)))
    p.write_text(p.read_text().replace(old, new, 1))
    with pytest.raises(ValueError) as err:
        read_ply(p)
    assert str(err.value) == f"{p}: malformed PLY header {line}"


def test_ply_non_finite_point_is_named(tmp_path):
    p = tmp_path / "nan.ply"
    write_ply(p, [[0.0, 1.0, 2.0], [3.0, np.nan, 5.0]])
    with pytest.raises(ValueError) as err:
        read_ply(p)
    assert str(err.value) == f"{p}: non-finite y in data row 2"


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


# ---------------------------------------------------------------------------
# input rules


def _frame_rows(cells):
    """Rows (t, i, *cells(t, i)) of a 2 x 2 (frame, index) grid."""
    return [[t, i, *cells(t, i)] for t in range(2) for i in range(2)]


# per file of RULES: header, valid rows, the row a case edits, its name in a
# message, and the reader
TABLES = {
    "init_gaussians.csv": (
        INIT_GAUSSIANS_HEADER,
        [[i, *center, 1.0, 0.0, 0.0, 0.0, 0.01, 0.01, 0.01, 0.5, 0.5, 0.5]
         for i, center in enumerate(np.eye(3))],
        1, "data row 2", read_init_gaussians_csv),
    "gt_trajectory.csv": (
        GT_TRAJECTORY_HEADER, _frame_rows(lambda t, i: [0.1 * i, 0.2 * t, 0.0]),
        2, "the data row of frame 1, index 0", read_gt_trajectory_csv),
    "trajectory.csv": (
        TRAJECTORY_HEADER,
        _frame_rows(lambda t, i: [0.1 * i, 0.2 * t, 0.0, 1.0, 0.0, 0.0, 0.0, 0.01, 0.01, 0.01]),
        2, "the data row of frame 1, index 0", read_trajectory_csv),
    "frames/frame_NNN.ply": (["x", "y", "z"], np.eye(3).tolist(), 1, "data row 2", read_ply),
}

# per rule text: the cells a case sets from a value v (the group's first column
# gets v), the bound (the last value the rule accepts), the side of it that the
# rule rejects, and whether the rule is on the whole row (its message names the
# group's columns, not one cell)
BOUNDS = {
    "a coordinate's magnitude must be at most 1e+150":
        (lambda cols, v: {cols[0]: v}, 1e150, np.inf, False),
    "the quaternion's squared norm overflows":  # sqrt of the largest double
        (lambda cols, v: {cols[0]: v, **dict.fromkeys(cols[1:], 0.0)}, 1.3407807929942596e154,
         np.inf, False),
    "the quaternion's norm is below 1e-12":
        (lambda cols, v: {cols[0]: v, **dict.fromkeys(cols[1:], 0.0)}, 1e-12, 0.0, True),
    "a scale must be positive": (lambda cols, v: {cols[0]: v}, 5e-324, -np.inf, False),
    "a scale must be at most 1e+50": (lambda cols, v: dict.fromkeys(cols, v), 1e50, np.inf, False),
    # 1e-6 squares to 1e-12 in float64
    "a scale's square must be above 1e-12":
        (lambda cols, v: {cols[0]: v}, np.nextafter(1e-6, 1.0), 0.0, False),
    "a scale must be at most 1e+07 times its Gaussian's smallest":
        (lambda cols, v: {cols[0]: v, cols[1]: 1.0, cols[2]: 1.0}, 1e7, np.inf, False),
}


def _rule_cases():
    for key, groups in RULES.items():
        for cols, rules in groups.items():
            for index in range(len(rules)):
                yield pytest.param(key, cols, index, id=f"{key}-{cols[0]}-{index}")


@pytest.mark.parametrize("key, cols, index", _rule_cases())
def test_each_rule_accepts_its_bound_and_rejects_the_next_float(tmp_path, key, cols, index):
    """A table at the rule's bound passes it, and one at the next float past the
    bound is rejected naming the file, the rule, the row and the column. At its
    bound a value passes the rules before this one; a later rule of the group
    may still reject it, as the init scales' square rejects the smallest
    positive scale."""
    rules = RULES[key][cols]
    text = rules[index][1]
    cells, bound, bad_side, whole_row = BOUNDS[text]
    header, rows, row, row_name, read = TABLES[key]
    path = tmp_path / Path(key).name

    def read_with(v):
        table = [list(r) for r in rows]
        for col, value in cells(cols, v).items():
            table[row][header.index(col)] = value
        if key.endswith(".ply"):
            write_ply(path, table)
        else:
            write_csv(path, header, table)
        read(path)

    try:
        read_with(bound)
    except ValueError as e:
        assert any(str(e).endswith(f": {later}") for _, later in rules[index + 1:]), str(e)
    bad = float(np.nextafter(bound, bad_side))
    with pytest.raises(ValueError) as err:
        read_with(bad)
    named = ", ".join(cols) if whole_row else f"{cols[0]} = {bad!r}"
    assert str(err.value) == f"{path}: {named} in {row_name}: {text}"


def _formats_rules_table():
    """(file, columns, rule) of each row of the rules table in docs/FORMATS.md."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md").read_text()
    lines = text[text.index("| file | columns | rule |"):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        file, cols, rule = (cell.strip().strip("`") for cell in line.strip("|").split("|")[:3])
        rows.append((file, tuple(re.split(r",\s*", cols)), rule))
    return rows


def test_formats_doc_lists_the_rules_table():
    assert _formats_rules_table() == [(key, cols, text) for key, groups in RULES.items()
                                      for cols, rules in groups.items() for _, text in rules]


# ---------------------------------------------------------------------------
# the row writers against their per-cell oracles


def awkward(rng, shape):
    """Doubles whose repr takes every form: exponents from 1e-20 to 1e20, and
    -0.0, integral values, subnormals, the extremes and the switches to and
    from exponent notation in random cells."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
    specials = [-0.0, 0.0, 1.0, -3.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e16, 9999999999999998.0, 1e-5, 0.0001, -123456789.125]
    flat = values.reshape(-1)
    at = rng.choice(flat.size, size=min(len(specials), flat.size), replace=False)
    flat[at] = specials[:len(at)]
    return values


def test_frame_tables_keep_the_bytes_of_the_per_cell_writer(tmp_path):
    rng = np.random.default_rng(30)
    sets = [GaussianSet(centers=awkward(rng, (7, 3)), orientations=rng.normal(size=(7, 4)),
                        scales=np.abs(awkward(rng, (7, 3))) + 5e-324, frame_index=t)
            for t in range(4)]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory_csv(got, sets)
    write_frame_table_per_cell(want, TRAJECTORY_HEADER, (np.hstack(
        [g.centers, g.orientations, g.scales]) for g in sets))
    assert got.read_bytes() == want.read_bytes()
    gt = awkward(rng, (3, 5, 3))
    gt[1, 2] = [np.nan, np.inf, -np.inf]
    narrow = np.clip(gt, -1e38, 1e38).astype(np.float32)
    for frames in (gt, narrow, np.arange(36).reshape(3, 4, 3) - 17):
        write_gt_trajectory_csv(got, frames)
        write_frame_table_per_cell(want, GT_TRAJECTORY_HEADER, frames)
        assert got.read_bytes() == want.read_bytes()


def test_init_gaussians_and_ply_keep_the_bytes_of_the_per_cell_writers(tmp_path):
    rng = np.random.default_rng(31)
    gset = GaussianSet(centers=awkward(rng, (9, 3)), orientations=rng.normal(size=(9, 4)),
                       scales=np.abs(awkward(rng, (9, 3))) + 5e-324, colors=rng.random((9, 3)),
                       frame_index=0)
    got, want = tmp_path / "got", tmp_path / "want"
    write_init_gaussians_csv(got, gset)
    write_csv_per_cell(want, INIT_GAUSSIANS_HEADER, ([i, *row] for i, row in enumerate(
        np.hstack([gset.centers, gset.orientations, gset.scales, gset.colors]))))
    assert got.read_bytes() == want.read_bytes()
    points = awkward(rng, (11, 3))
    for colors in (None, rng.random((11, 3)) * 1.2 - 0.1,
                   rng.integers(0, 256, size=(11, 3)).astype(np.uint8)):
        write_ply(got, points, colors)
        write_ply_per_cell(want, points, colors)
        assert got.read_bytes() == want.read_bytes()
    write_ply(got, np.zeros((0, 3)))
    write_ply_per_cell(want, np.zeros((0, 3)))
    assert got.read_bytes() == want.read_bytes()


def _csv_table(rng, table):
    """(write, header, rows): how a shipped caller writes `table` to a path,
    and the header and rows it hands `write_csv`, cells of the types it passes."""
    if table == "losses":  # Python floats in frame 1's curve, np.float64 in frame 2's
        columns = LOSSES_HEADER[2:]
        reports = [FrameReport(frame_index=t, final_losses={}, wall_time=0.0, curve=[
            {c: (np.float64(v) if t % 2 else float(v)) for c, v in zip(columns, awkward(rng, 6))}
            for _ in range(3)]) for t in (1, 2)]
        rows = [[rep.frame_index, it, *(e[c] for c in columns)]
                for rep in reports for it, e in enumerate(rep.curve)]
        return lambda p: write_losses_csv(p, reports), LOSSES_HEADER, rows
    if table == "labels":  # [int, int]
        labels = rng.integers(0, 5, size=9)
        return (lambda p: write_labels_csv(p, labels), ["index", "label"],
                [[i, int(v)] for i, v in enumerate(labels)])
    if table == "mte":  # cmd_track's (track, Gaussian, error) entries: [int, int, float]
        entries = [(t, int(g), float(e))
                   for t, (g, e) in enumerate(zip(rng.integers(0, 50, 6), awkward(rng, 6)))]
        return lambda p: write_mte_csv(p, entries), ["track", "gaussian_index", "mte"], entries
    if table == "comparison":  # cmd_repro's [str, float, float, float]
        header = ["scene", "err_single_layer", "err_cascade", "ratio"]
        rows = [["wheel", *awkward(rng, 3).tolist()], ["pendulum", 0.25, 0.0, float("inf")]]
    else:  # numpy scalars: np.int64 and np.float64 cells
        header = ["i", "a", "b", "c", "d"]
        rows = [[np.int64(i), *awkward(rng, 4)] for i in range(6)]
        rows[0][1:] = np.array([np.nan, np.inf, -np.inf, -0.0])
    return lambda p: write_csv(p, header, rows), header, rows


@pytest.mark.parametrize("table", ["losses", "labels", "mte", "comparison", "numpy"])
def test_csv_tables_keep_the_bytes_of_the_per_cell_writer(tmp_path, table):
    write, header, rows = _csv_table(np.random.default_rng(32), table)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got)
    write_csv_per_cell(want, header, rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(("cell", "kind"), [("0.1x", float), ("two", float), ("", float),
                                            ("1.5", int), ("1e3", int)])
def test_read_table_names_a_bad_cell_as_float_and_int_do(tmp_path, cell, kind):
    p = tmp_path / "t.csv"
    p.write_text(f"a,b\n1,2\n3,{cell}\n")
    try:
        kind(cell)
    except ValueError as e:
        message = f"{p}: bad row: {e}"
    with pytest.raises(ValueError) as raised:
        read_table(p, ["a", "b"], "test", kind=kind)
    assert str(raised.value) == message
