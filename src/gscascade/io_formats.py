"""File formats: ASCII PLY points, CSV tables, JSON documents, P6 PPM images.

All writers are byte-deterministic for identical inputs: floats are written
with repr (shortest round-trip form), JSON keys are sorted, and line endings
are always "\n". Nothing here writes wall-clock times.

The readers are the input boundary: they also check each cell against RULES.
Exact column orders, and those rules with their reasons, live in docs/FORMATS.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import GaussianSet
from .geometry import _NORM_FLOOR, _PD_FLOOR
from .losses import DEFAULT_LAMBDA_SCALE


def _lines(rows, sep=","):
    """`sep`-joined lines of rows of Python ints and floats, as `ndarray.tolist()`
    gives them: repr of each cell, which for a float is the bytes `write_csv`
    writes and for an int is str's."""
    return [sep.join(map(repr, row)) for row in rows]


# ---------------------------------------------------------------------------
# input rules


# the bounds of RULES; docs/FORMATS.md gives each one's reason
_MAX_ABS_COORD, _MAX_SCALE, _MAX_SCALE_RATIO = 1e150, 1e50, 1e7
_XYZ, _QUAT, _SCALES = ("x", "y", "z"), ("qw", "qx", "qy", "qz"), ("sx", "sy", "sz")
_COORDINATE = [(lambda x: np.abs(x) > _MAX_ABS_COORD,
                f"a coordinate's magnitude must be at most {_MAX_ABS_COORD:g}")]
_QUATERNION = [
    (lambda q: (np.sum(q * q, axis=1, keepdims=True) == np.inf)  # names the largest entry
     & (np.abs(q) == np.abs(q).max(axis=1, keepdims=True)),
     "the quaternion's squared norm overflows"),
    (lambda q: np.sqrt(np.sum(q * q, axis=1)) < _NORM_FLOOR,
     f"the quaternion's norm is below {_NORM_FLOOR:g}"),
]
_POSITIVE = (lambda s: s <= 0.0, "a scale must be positive")

# file -> {columns: [(bad, text), ...]}: `bad` maps the columns' values, one row
# per data row, to a mask of the bad cells, or (1-D) of the bad rows. A group's
# rules apply in order, so each sees only values the ones before it passed.
RULES = {
    "init_gaussians.csv": {_XYZ: _COORDINATE, _QUAT: _QUATERNION, _SCALES: [
        _POSITIVE,
        (lambda s: s > _MAX_SCALE, f"a scale must be at most {_MAX_SCALE:g}"),
        (lambda s: s * s <= _PD_FLOOR, f"a scale's square must be above {_PD_FLOOR:g}"),
        (lambda s: s > _MAX_SCALE_RATIO * s.min(axis=1, keepdims=True),
         f"a scale must be at most {_MAX_SCALE_RATIO:g} times its Gaussian's smallest")]},
    "gt_trajectory.csv": {_XYZ: _COORDINATE},
    "trajectory.csv": {_XYZ: _COORDINATE, _QUAT: _QUATERNION, _SCALES: [_POSITIVE]},
    "frames/frame_NNN.ply": {_XYZ: _COORDINATE},
}


def _check(path, key, header, data, row_name=lambda i: f"data row {i + 1}"):
    """Raise a ValueError naming `path`, the first rule of RULES[key] that `data`
    breaks, the row (i named by `row_name(i)`) and, for a cell rule, the column
    (named by `header`) and value."""
    for cols, group in RULES[key].items():
        values = data[:, [header.index(c) for c in cols]]
        for bad, text in group:
            with np.errstate(over="ignore"):
                at = np.argwhere(bad(values))
            if len(at):
                row, *col = at[0]  # a row rule's mask has no column axis
                cell = (f"{cols[col[0]]} = {float(values[row, col[0]])!r}" if col
                        else ", ".join(cols))
                raise ValueError(f"{path}: {cell} in {row_name(row)}: {text}")


def _check_finite(path, header, data):
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        raise ValueError(f"{path}: non-finite {header[bad[0, 1]]} in data row {bad[0, 0] + 1}")


# ---------------------------------------------------------------------------
# PLY (ASCII, points with optional uchar RGB)


def write_ply(path, points, colors=None):
    points = np.asarray(points, dtype=np.float64)
    lines = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}"]
    lines += ["property double x", "property double y", "property double z"]
    if colors is not None:
        colors = np.asarray(colors)
        if colors.dtype != np.uint8:
            colors = np.clip(np.round(np.asarray(colors, dtype=np.float64) * 255.0), 0, 255
                             ).astype(np.uint8)
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    rows = points.tolist()
    if colors is not None:
        rows = [xyz + rgb for xyz, rgb in zip(rows, colors.tolist(), strict=True)]
    lines += _lines(rows, sep=" ")
    Path(path).write_text("\n".join(lines) + "\n")


def read_ply(path):
    """(points, colors or None) of an ASCII PLY whose vertices start with x, y, z;
    the points are checked against RULES["frames/frame_NNN.ply"]."""
    text = Path(path).read_text().splitlines()
    if not text or text[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    n = element = body_at = None
    props, ascii_format = [], False  # the vertex element's property names
    for i, line in enumerate(text[1:], start=1):
        tok = line.split()
        if not tok:
            continue
        # `format ascii 1.0`, `element <name> <count>` with a count >= 0, and
        # `property <type> <name>`, the vertex element's first three x, y, z
        xyz = tok[0] == "property" and element == "vertex" and len(props) < 3
        if (tok[0] == "format" and tok[1:] != ["ascii", "1.0"]
                or tok[0] == "element" and (len(tok) != 3 or not tok[2].isdecimal())
                or tok[0] == "property" and len(tok) < 3
                or xyz and tok[2:] != [_XYZ[len(props)]]):
            raise ValueError(f"{path}: malformed PLY header line {i + 1}: {line.strip()!r}")
        ascii_format |= tok[0] == "format"
        if tok[0] == "element":
            element = tok[1]
            if element == "vertex":
                n = int(tok[2])
        elif tok[0] == "property" and element == "vertex":
            props.append(tok[-1])
        elif tok[0] == "end_header":
            body_at = i + 1
            break
    if n is None or body_at is None or not ascii_format or len(props) < 3:
        raise ValueError(f"{path}: malformed PLY header")
    if len(text) - body_at < n:
        raise ValueError(f"{path}: header declares {n} vertices,"
                         f" body has {len(text) - body_at} rows")
    if n == 0:
        return np.zeros((0, 3)), None
    try:
        data = np.array([[float(v) for v in text[body_at + i].split()] for i in range(n)])
        if data.shape[1] != len(props):
            raise ValueError(f"{data.shape[1]} values, expected {len(props)}")
    except ValueError as e:
        raise ValueError(f"{path}: bad vertex row: {e}") from e
    _check_finite(path, props, data)
    _check(path, "frames/frame_NNN.ply", props, data)
    colors = None
    if len(props) >= 6:
        colors = data[:, 3:6].astype(np.uint8)
    return data[:, :3], colors


# ---------------------------------------------------------------------------
# CSV


def write_csv(path, header, rows):
    """Rows of mixed ints/floats; floats through repr, everything else str()."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",") if lines else []
    return header, [line.split(",") for line in lines[1:] if line]


def read_table(path, header, name, kind=float):
    """(rows, len(header)) array of a `name` CSV that has exactly `header` and finite cells."""
    got, rows = read_csv(path)
    if got != header:
        raise ValueError(f"{path}: unexpected {name} header {got}, expected {header}")
    try:
        data = np.array([list(map(kind, r)) for r in rows]).reshape(len(rows), len(header))
    except ValueError as e:
        raise ValueError(f"{path}: bad row: {e}") from e
    _check_finite(path, header, data)
    return data


def _write_rows(path, header, rows):
    """`write_csv`'s bytes for rows of Python ints and floats (see `_lines`)."""
    Path(path).write_text("\n".join([",".join(header), *_lines(rows)]) + "\n")


def _write_frame_table(path, header, frames):
    """CSV keyed by (frame, index): frame t's (N, len(header) - 2) array gives
    the rows (t, i, *frames[t][i])."""
    _write_rows(path, header, ([t, i, *row] for t, frame in enumerate(frames)
                               for i, row in enumerate(np.asarray(frame).tolist())))


def _read_frame_table(path, header, name, key):
    """(T, N, len(header)) array of a CSV keyed by (frame, index), one row per
    grid cell, checked against RULES[key]."""
    data = read_table(path, header, name)
    T, n = (int(m) + 1 for m in data[:, :2].max(axis=0, initial=-1))
    data = data[np.lexsort((data[:, 1], data[:, 0]))]
    if min(T, n) < 1 or len(data) != T * n or not np.array_equal(
            data[:, :2], np.indices((T, n)).reshape(2, -1).T):
        raise ValueError(f"{path}: ragged {name} table: (frame, index) pairs must cover"
                         f" the {max(T, 0)} x {max(n, 0)} grid exactly once")
    _check(path, key, header, data, lambda i: f"the data row of frame {i // n}, index {i % n}")
    return data.reshape(T, n, -1)


# ---------------------------------------------------------------------------
# JSON


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# PPM (binary P6)


def write_ppm(path, image):
    """image: (H, W, 3) uint8."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("image must be (H, W, 3)")
    if image.dtype != np.uint8:
        raise ValueError("image must be uint8")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


# ---------------------------------------------------------------------------
# package-specific tables


TRAJECTORY_HEADER = ["frame", "index", "x", "y", "z", "qw", "qx", "qy", "qz",
                     "sx", "sy", "sz"]


def write_trajectory_csv(path, sets):
    _write_frame_table(path, TRAJECTORY_HEADER,
                       (np.hstack([g.centers, g.orientations, g.scales]) for g in sets))


def read_trajectory_csv(path):
    """Returns (centers (T,N,3), orientations (T,N,4), scales (T,N,3))."""
    data = _read_frame_table(path, TRAJECTORY_HEADER, "trajectory", "trajectory.csv")
    return data[..., 2:5], data[..., 5:9], data[..., 9:12]


LOSSES_HEADER = ["frame", "iteration", "rigidity", "isometry", "rotation",
                 "scale", "data", "total"]


def write_losses_csv(path, frame_reports):
    columns = LOSSES_HEADER[2:]  # keys of each curve entry
    write_csv(path, LOSSES_HEADER, ([rep.frame_index, it, *(entry[c] for c in columns)]
                                    for rep in frame_reports for it, entry in enumerate(rep.curve)))


def write_labels_csv(path, labels):
    write_csv(path, ["index", "label"], [[i, int(v)] for i, v in enumerate(labels)])


def read_labels_csv(path):
    data = read_table(path, ["index", "label"], "labels", kind=int)
    data = data[np.argsort(data[:, 0], kind="stable")]
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{path}: each index 0..{len(data) - 1} must appear exactly once")
    if np.any(data[:, 1] < 0):
        i = int(np.argmax(data[:, 1] < 0))
        raise ValueError(f"{path}: label {data[i, 1]} of index {i} is negative;"
                         " part labels count from 0")
    return data[:, 1]


GT_TRAJECTORY_HEADER = ["frame", "index", "x", "y", "z"]


def write_gt_trajectory_csv(path, gt_centers):
    _write_frame_table(path, GT_TRAJECTORY_HEADER, gt_centers)


def read_gt_trajectory_csv(path):
    data = _read_frame_table(path, GT_TRAJECTORY_HEADER, "gt trajectory", "gt_trajectory.csv")
    return data[..., 2:5]


INIT_GAUSSIANS_HEADER = ["index", "x", "y", "z", "qw", "qx", "qy", "qz",
                         "sx", "sy", "sz", "r", "g", "b"]


def write_init_gaussians_csv(path, gset):
    _write_rows(path, INIT_GAUSSIANS_HEADER, ([i, *row] for i, row in enumerate(
        np.hstack([gset.centers, gset.orientations, gset.scales, gset.colors]).tolist())))


def read_init_gaussians_csv(path):
    """The frame-0 GaussianSet of a scene: at least one Gaussian, its indices
    in row order, its cells within RULES["init_gaussians.csv"], and centers
    whose extent (the scene scale) leaves the default neighbour falloff finite."""
    data = read_table(path, INIT_GAUSSIANS_HEADER, "initial Gaussians")
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{path}: index column must count 0, 1, ... in row order")
    if not len(data):
        raise ValueError(f"{path}: holds no Gaussians")
    _check(path, "init_gaussians.csv", INIT_GAUSSIANS_HEADER, data)
    centers = data[:, 1:4]
    extent = np.linalg.norm(centers.max(axis=0) - centers.min(axis=0))
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        if not np.isfinite(DEFAULT_LAMBDA_SCALE / extent**2):
            raise ValueError(f"{path}: the centers' extent is {float(extent)!r}, too small for"
                             f" the default neighbour falloff {DEFAULT_LAMBDA_SCALE:g} / extent**2")
    return GaussianSet(centers=centers, orientations=data[:, 4:8], scales=data[:, 8:11],
                       colors=data[:, 11:14], frame_index=0)


def write_mte_csv(path, entries):
    """entries: list of (track_id, gaussian_index, mte_fraction)."""
    write_csv(path, ["track", "gaussian_index", "mte"], [list(e) for e in entries])
