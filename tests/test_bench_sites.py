"""Every library name the benchmark patches still resolves.

The traced run (`bench/spans.py`, its SITES) and the lap clock of the
untraced run (`bench/pipeline.py`, its ITERATION_STEPS) wrap library
functions in place, by owner and attribute name. A refactor that deletes or
renames one of them breaks only those runs; this check makes it fail here.
The traced run also counts tape nodes by walking `Tensor._parents`; a check
on a real objective pins that count to the nodes the backward pass walks.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from gscascade import autodiff
from gscascade.clustering import build_hierarchy
from gscascade.core import GaussianSet
from gscascade.deform import cascade_zero
from gscascade.losses import DataObservation, LossWeights, build_neighbor_graph, total_loss

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_patched_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")  # imports pipeline itself
    pipeline = importlib.import_module("pipeline")
    sites = [*spans.SITES, *pipeline.ITERATION_STEPS]
    assert len(sites) > 40
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"patched by bench/ but not found: {missing}"


@pytest.mark.parametrize("scan", [False, True], ids=["correspondences", "scan"])
def test_tape_size_counts_the_nodes_backward_walks(monkeypatch, scan):
    """`spans.tape_size` counts the traced run's `autodiff.tape_nodes` by
    walking `Tensor._parents` from the root; on a real objective it must
    count exactly the nodes the backward pass walks."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(14)
    centers = rng.normal(size=(30, 3)) * 2.0
    gset = GaussianSet(centers=centers, orientations=rng.normal(size=(30, 4)),
                       scales=rng.uniform(0.01, 0.03, size=(30, 3)))
    graph = build_neighbor_graph(centers, k=4, scene_scale=2.0)
    obs = DataObservation(points=centers + rng.normal(scale=0.02, size=(30, 3)),
                          correspondence=None if scan else np.arange(30))
    casc = cascade_zero(build_hierarchy(centers, (2, 4, 8), seed=0), 30)
    counts = []
    backward = autodiff.Tensor.backward

    def counted(root):
        counts.append((spans.tape_size(root), len(root._tape)))
        return backward(root)

    monkeypatch.setattr(autodiff.Tensor, "backward", counted)
    total_loss(casc, gset, obs, graph, LossWeights(), max_scale=0.02)
    assert len(counts) == 1 and counts[0][0] == counts[0][1]
