"""Span recorder for the traced run, and the per-layer metrics it yields.

The library has no instrumentation of its own, so the traced run replaces
public functions with recording wrappers at the module attribute each caller
looks the name up in (`optimize.total_loss`, `losses.trace_cascade`,
`deform.trace_cascade`, `autodiff.eigh3`, ...). A span records its name,
start, end, parent and whether the call raised. Spans stay in memory and are
written out once, after the run.

A span's self time is its duration minus the durations of its direct child
spans; the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import json
import statistics
import time

from pipeline import iteration_rate, median_or_none

from gscascade import (autodiff, clustering, deform, io_formats, losses, optimize, scenegen,
                       segmentation, tapemath, tracking)

# (module, attribute) pairs where a caller looks a traced function up.
# A function reachable under several names is wrapped once and installed at
# each of them, so every call records exactly one span.
SITES = (
    (scenegen, "generate"),
    (clustering, "build_hierarchy"),
    (optimize, "fit_sequence"),
    (optimize, "fit_frame"),
    (optimize, "total_loss"),
    (optimize, "adam_step"),
    (optimize, "build_neighbor_graph"),
    (optimize, "cascade_apply"),
    (losses, "trace_cascade"),
    (losses, "rigidity_loss_t"),
    (losses, "isometry_loss_t"),
    (losses, "rotation_loss_t"),
    (losses, "scale_loss_t"),
    (losses, "data_loss_t"),
    (losses, "quat_to_mat_t"),
    (losses, "quat_multiply_t"),
    (losses, "safe_norm"),
    (deform, "trace_cascade"),
    (deform, "quat_normalize_t"),
    (deform, "quat_to_mat_t"),
    (deform, "mat_to_quat_t"),
    (deform, "quat_multiply_t"),
    (deform, "cascade_to_payload"),
    (deform, "cascade_from_payload"),
    (tapemath, "quat_normalize_t"),
    (tapemath, "safe_norm"),
    (autodiff, "eigh3"),
    (segmentation, "build_features"),
    (segmentation, "segment"),
    (segmentation, "adjusted_rand_index"),
    (tracking, "project_track"),
    (tracking, "select_candidate"),
    (tracking, "mte"),
    (io_formats, "write_trajectory_csv"),
    (io_formats, "read_trajectory_csv"),
    (io_formats, "write_json"),
    (io_formats, "read_json"),
)

LAYERS = ("scenegen", "clustering", "optimize", "losses", "deform", "tapemath", "autodiff",
          "segmentation", "tracking", "io_formats")

PIPELINE_ROOT = "bench.pipeline"  # root span of each traced pipeline pass


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def tape_size(root):
    """Nodes the backward pass from `root` visits: root plus differentiable ancestors."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        # One column per span field. Flat arrays keep the recorded spans out
        # of the cyclic garbage collector's work, which would otherwise slow
        # every later pass of the process as the span count grows.
        self.names = []
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")  # index of the enclosing span, or -1
        self.raised = bytearray()
        self.counts = collections.Counter()
        self._open = []  # indices of the spans currently open, innermost last

    def _start(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self.raised.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx, raised):
        self.ends[idx] = time.perf_counter()
        self._open.pop()
        self.raised[idx] = raised

    def records(self):
        """(name, start, end, parent, raised) per span, in start order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.raised)

    @contextlib.contextmanager
    def span(self, name):
        idx = self._start(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._end(idx, raised)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._start(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._end(idx, True)
                raise
            self._end(idx, False)
            return out

        return traced

    def _in_span(self, name):
        return any(self.names[i] == name for i in self._open)

    def _backward_wrapper(self, backward):
        traced = self.wrap(backward, "autodiff.backward")

        @functools.wraps(backward)
        def counted(tensor):
            self.counts["autodiff.tape_nodes"] += tape_size(tensor)
            return traced(tensor)

        return counted

    def _kdtree_wrapper(self, tree_cls):
        def counted(data, *args, **kwargs):
            if self._in_span("losses.total_loss"):
                self.counts["losses.kdtree_builds"] += 1
                self.counts["losses.kdtree_points"] += len(data)
            return tree_cls(data, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced site for the duration of the block."""
        saved = []
        wrappers = {}
        try:
            for module, attr in SITES:
                fn = getattr(module, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, span_name(fn))
                saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
            saved.append((autodiff.Tensor, "backward", autodiff.Tensor.backward))
            autodiff.Tensor.backward = self._backward_wrapper(autodiff.Tensor.backward)
            saved.append((losses, "cKDTree", losses.cKDTree))
            losses.cKDTree = self._kdtree_wrapper(losses.cKDTree)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "raised": bool(r)}
                for n, s, e, p, r in self.records()]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")


def _ms(seconds):
    return 1000.0 * seconds


def layer_metrics(tracer, traced_reps, untraced_reps):
    """Per-layer metrics from the spans of the traced set-ups and pipeline passes.

    Spans are named after the module that defines the function, so
    `losses.total_loss`, which optimize calls once per iteration, is reported
    under the metric names `optimize.total_loss.*`.

    `<layer>.self_share` and `<layer>.calls` are taken over the benchmark
    phases (set-up or pipeline passes) that the layer ran in: self time as a
    share of those phases' wall time, and calls per phase instance.
    """
    spans = list(tracer.records())
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:  # parents are opened, hence recorded, before children
            child[parent] += end - start
            root[i] = root[parent]

    durations = collections.defaultdict(list)
    self_time = collections.Counter()
    calls = collections.Counter()
    failed = collections.Counter()
    layer_roots = collections.defaultdict(set)
    per_pipeline = collections.Counter()  # seconds per layer group, summed over passes
    for i, (name, start, end, parent, raised) in enumerate(spans):
        durations[name].append(end - start)
        layer = name.split(".")[0]
        if layer == "bench":
            continue
        self_time[layer] += end - start - child[i]
        calls[layer] += 1
        failed[layer] += raised
        layer_roots[layer].add(root[i])
        outermost = parent < 0 or spans[parent][0].split(".")[0] != layer
        if outermost and spans[root[i]][0] == PIPELINE_ROOT:
            group = layer
            if layer == "io_formats":
                group += ".write" if name.split(".")[1].startswith("write") else ".read"
            per_pipeline[group] += end - start

    def median_ms(name):
        return _ms(statistics.median(durations[name])) if durations[name] else 0.0

    def median_s(name):
        return median_or_none(durations[name])

    n_pipelines = len(durations[PIPELINE_ROOT])
    iterations = len(durations["autodiff.backward"])
    loss_sorted = sorted(durations["losses.total_loss"])
    n_loss = len(loss_sorted)
    traced_rate = iteration_rate(traced_reps)
    untraced_rate = iteration_rate(untraced_reps)

    m = {
        "autodiff.tape_nodes": tracer.counts["autodiff.tape_nodes"] / max(iterations, 1),
        "autodiff.backward.ms_p50": median_ms("autodiff.backward"),
        "autodiff.eigh3.ms_p50": median_ms("autodiff.eigh3"),
        "tapemath.self_ms": _ms(self_time["tapemath"]) / max(iterations, 1),
        "losses.rigidity_loss_t.ms_p50": median_ms("losses.rigidity_loss_t"),
        "losses.isometry_loss_t.ms_p50": median_ms("losses.isometry_loss_t"),
        "losses.rotation_loss_t.ms_p50": median_ms("losses.rotation_loss_t"),
        "losses.scale_loss_t.ms_p50": median_ms("losses.scale_loss_t"),
        "losses.data_loss_t.ms_p50": median_ms("losses.data_loss_t"),
        "losses.kdtree_builds": tracer.counts["losses.kdtree_builds"] / max(n_loss, 1),
        "losses.kdtree_points": tracer.counts["losses.kdtree_points"] / max(n_loss, 1),
        "losses.build_neighbor_graph.s": median_s("losses.build_neighbor_graph"),
        "deform.trace_cascade.ms_p50": median_ms("deform.trace_cascade"),
        "deform.trace_cascade.useful_ratio":
            iterations / max(len(durations["deform.trace_cascade"]), 1),
        "optimize.total_loss.ms_p50": median_ms("losses.total_loss"),
        # nearest-rank p90; the sample count says how many calls lie beyond it
        "optimize.total_loss.ms_p90":
            _ms(loss_sorted[min(n_loss - 1, (9 * n_loss) // 10)]) if loss_sorted else 0.0,
        "optimize.total_loss.samples": n_loss,
        "optimize.adam_step.ms_p50": median_ms("optimize.adam_step"),
        "clustering.build_hierarchy.s": median_s("clustering.build_hierarchy"),
        "scenegen.generate.s": median_s("scenegen.generate"),
        "segmentation.s": per_pipeline["segmentation"] / n_pipelines,
        "tracking.s": per_pipeline["tracking"] / n_pipelines,
        "io_formats.write.s": per_pipeline["io_formats.write"] / n_pipelines,
        "io_formats.read.s": per_pipeline["io_formats.read"] / n_pipelines,
        "io_formats.bytes_written": median_or_none(r.bytes_written for r in traced_reps),
        "trace.fit_iters_per_s": traced_rate,
        "trace.untraced_fit_iters_per_s": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate - 1.0 if traced_rate and untraced_rate
                          else None,
    }
    for layer in LAYERS:
        roots = layer_roots[layer]
        wall = sum(spans[r][2] - spans[r][1] for r in roots)
        m[f"{layer}.self_share"] = self_time[layer] / wall if wall else 0.0
        m[f"{layer}.calls"] = calls[layer] / max(len(roots), 1)
        m[f"{layer}.failed"] = failed[layer]
    return m
