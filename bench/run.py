"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload arm400 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. Prints the run metadata, one `name value unit` line per
metric, and as the last line a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` its per-layer metrics. See
bench/README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3  # rounds of set-ups and a pipeline pass, even when --seconds runs out first
# Set-up time per round; at least one set-up. The host's speed changes from
# one second to the next, so set-ups spread over the whole run give a median
# that the moment the run started at does not decide.
SETUP_SLICE_S = 0.25


def _blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if it cannot be queried."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return int(get())
    return None


def _metadata(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _set_up_slice(pipeline, workload, seed, tracer, times, digests):
    """Set the workload up for at least SETUP_SLICE_S; returns the last scene."""
    t_slice = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with (tracer.installed() if tracer else contextlib.nullcontext(),
              tracer.span("bench.setup") if tracer else contextlib.nullcontext()):
            scene = pipeline.set_up(workload, seed)
        times.append(time.perf_counter() - t0)
        digests.append(scene.digest())
        if time.perf_counter() - t_slice >= SETUP_SLICE_S:
            return scene


def measure(args, work_dir):
    import pipeline
    import spans

    workload = pipeline.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    setup_times, digests, untraced, traced = [], [], [], []
    t_start = time.perf_counter()
    round_s = 0.0
    i = 0
    # Each round sets the workload up and runs one pipeline pass on the fresh
    # scene. A round starts only if it should end within --seconds.
    while (i < MIN_ROUNDS + bool(args.trace)
           or time.perf_counter() - t_start + round_s <= args.seconds):
        t_round = time.perf_counter()
        scene = _set_up_slice(pipeline, workload, args.seed, tracer, setup_times, digests)
        # the traced run alternates traced and untraced passes in the order
        # T U U T T U ..., so neither side always runs first
        if tracer is not None and i % 4 in (0, 3):
            with tracer.installed(), tracer.span(spans.PIPELINE_ROOT):
                traced.append(pipeline.run_pipeline(scene, work_dir))
        else:
            untraced.append(pipeline.run_pipeline(scene, work_dir))
        round_s = time.perf_counter() - t_round
        i += 1
    reps = untraced + traced
    inputs_repeat = len(set(digests)) == 1

    quality = reps[0].quality
    deterministic = inputs_repeat and all(r.quality == quality for r in reps)
    if not deterministic:
        print("failed: set-up inputs or quality metrics differ between repetitions",
              file=sys.stderr)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = spans.layer_metrics(tracer, traced, untraced)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "fit_iters_per_s": pipeline.iteration_rate(reps),
            "pipeline_s": pipeline.pipeline_time(reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **quality,
        }
    correct = deterministic and failed == 0 and all(
        v is not None for v in metrics.values())
    return correct, attempted, failed, metrics, len(reps), len(setup_times)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gscascade" / "__init__.py").is_file():
        print(f"error: no library sources at {src}/gscascade", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(pipeline.WORKLOADS)})", file=sys.stderr)
        return 2
    expected = _expected_metrics(args.trace)

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    try:
        correct, attempted, failed, metrics, n_reps, n_setups = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(metrics) != set(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    meta = _metadata(args)
    meta["pipeline_reps"] = n_reps
    meta["setup_reps"] = n_setups
    print(json.dumps({"meta": meta}))
    for name, value in metrics.items():
        print(f"{name} {value} {expected[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": expected[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # Pin the BLAS pool before numpy loads: the benchmark is one
    # single-threaded process, and the fit is configured with threads=1.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
