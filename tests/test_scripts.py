"""Smoke runs of the scripts in scripts/: each main() on tiny arguments, and
`fit_digest.py` with its defaults against the committed digests."""

import importlib.util
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from gscascade.io_formats import read_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN_DIGESTS = Path(__file__).resolve().parent / "fit_digest_golden.txt"


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
        assert labels == ["trajectory", "checkpoints", "losses", "segmentation", "outputs"]
        assert all(len(value) == 64 for value in values)
        digests.append(values)
    # the scan fit differs from the fit to correspondences in every fit digest
    for matched, scanned in zip(digests[0::2], digests[1::2]):
        assert all(a != b for a, b in zip(matched[:3] + matched[4:], scanned[:3] + scanned[4:]))


def digest_lines(lines):
    """{(kind, digest label): digest} of fit_digest.py's output lines."""
    found = {}
    for line in lines:
        kind, *fields = line.split()
        found.update(((kind, label), value) for label, value in zip(fields[0::2], fields[1::2]))
    return found


def test_fit_digest_defaults_print_the_golden_digests():
    """Every bit of the default fits is pinned: `fit_digest.py` with its
    defaults prints the committed lines, and a mismatch names the kind and
    the digest. The lines were recorded in one environment; numpy or scipy of
    another version may round differently, so the message then says so."""
    run = subprocess.run([sys.executable, str(SCRIPTS / "fit_digest.py")],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    text = GOLDEN_DIGESTS.read_text().splitlines()
    recorded = next(line for line in text if line.startswith("# environment: "))[15:]
    want = digest_lines(line for line in text if not line.startswith("#"))
    got = digest_lines(run.stdout.splitlines())
    moved = [f"{kind} {label}" for (kind, label), digest in want.items()
             if got.get((kind, label)) != digest]
    moved += [f"{kind} {label} (not recorded)" for kind, label in got.keys() - want.keys()]
    here = (f"python {platform.python_version()}, numpy {np.__version__},"
            f" scipy {scipy.__version__}, machine {platform.machine()}")
    note = "" if here == recorded else f"; recorded on {recorded}, run on {here}"
    assert not moved, f"digests differ from {GOLDEN_DIGESTS.name}: {moved}{note}"


def test_fit_digest_exits_2_on_zero_iterations():
    """The scripts' flags are checked against config.OPTIONS: zero iterations
    per frame used to print digests of sets that were never fitted."""
    run = subprocess.run([sys.executable, str(SCRIPTS / "fit_digest.py"), "--kinds", "wheel",
                          "--n-gaussians", "60", "--layers", "4,12", "--iters", "0"],
                         capture_output=True, text=True)
    assert run.returncode == 2 and run.stdout == ""
    assert "argument --iters: train.iters_per_frame must be >= 1" in run.stderr


@pytest.mark.parametrize("name, argv, option", [
    ("fit_digest", ["--kinds", "wheel,ship"], "scene.kind"),
    ("fit_digest", ["--n-gaussians", "9"], "scene.n_gaussians"),
    ("fit_digest", ["--n-frames", "1"], "scene.n_frames"),
    ("fit_digest", ["--layers", "4,0"], "train.layer_sizes"),
    ("fit_digest", ["--seed", "-1"], "seed"),
    ("depth_ablation", ["--iters", "0"], "train.iters_per_frame"),
    ("depth_ablation", ["--deep-layers", "2,x"], "train.layer_sizes"),
    ("depth_ablation", ["--n-frames", "2.5"], "scene.n_frames"),
    ("depth_ablation", ["--out", ""], "out"),
    ("convergence_sweep", ["--kind", "ship"], "scene.kind"),
    ("convergence_sweep", ["--budgets", "10,0"], "train.iters_per_frame"),
    ("convergence_sweep", ["--magnitude", "inf"], "scene.motion_magnitude"),
    ("convergence_sweep", ["--noise", "-0.1"], "scene.noise_sigma"),
])
def test_script_flags_are_checked_against_the_options(capsys, name, argv, option):
    with pytest.raises(SystemExit) as exit_:
        load_script(name).main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}: " in err and option in err
