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

from gscascade import autodiff, scenegen
from gscascade.clustering import build_hierarchy
from gscascade.core import GaussianSet
from gscascade.deform import CascadeDeform
from gscascade.losses import (DataObservation, FrameConstants, LossWeights, build_neighbor_graph,
                              total_loss)
from gscascade.optimize import TrainConfig, fit_sequence
from oracles import record_walks

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
    count exactly the nodes the backward pass walks, 34 on a three-layer
    cascade on either data path."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(14)
    centers = rng.normal(size=(30, 3)) * 2.0
    gset = GaussianSet(centers=centers, orientations=rng.normal(size=(30, 4)),
                       scales=rng.uniform(0.01, 0.03, size=(30, 3)))
    graph = build_neighbor_graph(centers, k=4, scene_scale=2.0)
    obs = DataObservation(points=centers + rng.normal(scale=0.02, size=(30, 3)),
                          correspondence=None if scan else np.arange(30))
    h = build_hierarchy(centers, (2, 4, 8), seed=0)
    casc = CascadeDeform(h, 30)
    walks = record_walks(monkeypatch)
    backward = autodiff.Tensor.backward
    sizes = []

    def sized(root):
        sizes.append(spans.tape_size(root))
        return backward(root)

    monkeypatch.setattr(autodiff.Tensor, "backward", sized)
    total_loss(casc, FrameConstants(gset, obs, h, graph), LossWeights(), max_scale=0.02)
    assert sizes == [len(walk) for walk in walks] == [34]


def test_iterations_call_the_steps_in_lap_order(monkeypatch):
    """`fit_iters_per_s` assigns the laps of an iteration by ITERATION_STEPS:
    every training iteration calls each step once, in that order, and each
    frame's closing evaluation calls the first seven (total_loss, the trace,
    the five terms) with no backward or Adam step."""
    monkeypatch.syspath_prepend(str(BENCH))
    pipeline = importlib.import_module("pipeline")
    calls = []

    def recorded(fn, name):
        def step(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return step

    names = [name for _, name in pipeline.ITERATION_STEPS]
    for owner, name in pipeline.ITERATION_STEPS:
        monkeypatch.setattr(owner, name, recorded(getattr(owner, name), name))
    seq = scenegen.generate(scenegen.SceneSpec("two_link_arm", n_gaussians=40, n_frames=3,
                                               seed=3))
    cfg = TrainConfig(iters_per_frame=3, layer_sizes=(2, 4, 8), seed=0,
                      scene_scale=seq.scene_scale, k_neighbors=6)
    fit_sequence(seq.frame0, seq.observations, cfg,
                 build_hierarchy(seq.frame0.centers, cfg.layer_sizes, seed=0))
    assert names[7:] == ["backward", "adam_step"]
    assert calls == (names * 3 + names[:7]) * 2
