"""Runs of the scripts in scripts/: `fit_digest.py` on tiny arguments and with
its defaults against the committed digests, `acceptance_margins.py`'s report
on stubbed criteria, and each script's flag checks."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import SCRIPTS, load_script

GOLDEN_DIGESTS = Path(__file__).resolve().parent / "fit_digest_golden.txt"


def test_acceptance_margins_reports_spread_margin_and_aborts(monkeypatch, capsys):
    script = load_script("acceptance_margins")

    def stub(seed):
        """a stub"""
        yield "x", float(seed)
        if seed == 2:
            raise ValueError("not positive definite")
        yield "y", 10.0 * seed

    monkeypatch.setattr(script, "CRITERIA", {3: stub})
    monkeypatch.setattr(script, "BOUNDS", {3: {"x": ("<", 5.0), "y": (">=", 15.0)}})
    assert script.main(["--seeds", "1-3,5", "--criteria", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "criterion 3: a stub"
    # quantity, seeds that gave it, min, median, max, comparison, bound, margin
    assert [line.split() for line in lines[2:]] == [
        ["x", "4", "1", "2.5", "5", "<", "5", "0"],
        ["y", "3", "10", "30", "50", ">=", "15", "-5"],
        ["seed", "2", "aborted:", "not", "positive", "definite"],
    ]


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
    ("acceptance_margins", ["--seeds", "1-x"], "seed"),
    ("acceptance_margins", ["--criteria", "3,9"], "criteria"),
])
def test_script_flags_are_checked_against_the_options(capsys, name, argv, option):
    with pytest.raises(SystemExit) as exit_:
        load_script(name).main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}: " in err and option in err
