"""Smoke runs of the scripts in scripts/: each main() on tiny arguments."""

import importlib.util
from pathlib import Path

import numpy as np

from gscascade.io_formats import read_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_depth_ablation_writes_one_row_per_scene(tmp_path):
    script = load_script("depth_ablation")
    out = tmp_path / "ablation.csv"
    assert script.main(["--n-gaussians", "30", "--n-frames", "2", "--iters", "2",
                        "--deep-layers", "2,6", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["scene", "err_single_layer", "err_cascade", "ratio"]
    assert [row[0] for row in rows] == [kind for kind, _ in script.SCENES]
    values = np.array([row[1:] for row in rows], dtype=np.float64)
    assert np.all(np.isfinite(values)) and np.all(values > 0.0)
    np.testing.assert_allclose(values[:, 2], values[:, 0] / values[:, 1], rtol=1e-6)


def test_convergence_sweep_writes_one_row_per_budget(tmp_path):
    script = load_script("convergence_sweep")
    out = tmp_path / "sweep.csv"
    assert script.main(["--n-gaussians", "30", "--n-frames", "2", "--layers", "2,6",
                        "--budgets", "1,3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["iters_per_frame", "mean_center_error", "wall_seconds"]
    values = np.array(rows, dtype=np.float64)
    assert values[:, 0].tolist() == [1.0, 3.0]
    assert np.all(np.isfinite(values)) and np.all(values[:, 1:] > 0.0)


def test_fit_digest_prints_the_same_digests_twice(capsys):
    script = load_script("fit_digest")
    argv = ["--kinds", "wheel,pendulum", "--n-gaussians", "30", "--n-frames", "2",
            "--iters", "2", "--layers", "2,6"]
    runs = []
    for _ in range(2):
        assert script.main(argv) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    # each kind's line, then the line of its fit to a scan with no correspondences
    assert [line.split()[0] for line in runs[0]] == ["wheel", "wheel_scan", "pendulum",
                                                     "pendulum_scan"]
    digests = []
    for line in runs[0]:
        kind, *fields = line.split()
        labels, values = fields[0::2], fields[1::2]
        assert labels == ["trajectory", "checkpoints", "losses", "segmentation"]
        assert all(len(value) == 64 for value in values)
        digests.append(values)
    # the scan fit differs from the fit to correspondences in every fit digest
    for matched, scanned in zip(digests[0::2], digests[1::2]):
        assert all(a != b for a, b in zip(matched[:3], scanned[:3]))
