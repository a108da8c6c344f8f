"""Run one efld benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload serve-f32-b1 --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports efld from ``src/``.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics, and the spans and the
per-layer table are written under ``.bench_out/``. The lines before it
record the environment, the sample counts and the checks. See
bench/METRICS.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# One BLAS thread: the matrices here are small, and on cores shared with
# other processes a second thread mostly adds contention.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The paper's int8 forward time, for an informational ratio only.
PAPER_INT8_MS = 1.08

END_TO_END_UNITS = {
    "p50_ms": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_threads() -> int:
    """Pin BLAS threads before numpy is imported; never above nproc."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "none"


def src_digest() -> str:
    """Digest of the efld sources, to tell code versions apart without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "efld")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:12]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "efld", "__init__.py")):
        print(f"error: no efld sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import workloads
    from reference import Reference
    from tracing import NullTracer, Tracer, layer_table, per_layer_metrics, write_outputs

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)  # generates inputs (untimed)

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    # Set-up is small-array and file work: it is scaled by the batch-1
    # reference, timed right after each set-up.
    setup_reference = Reference(1)
    setup_times = []
    try:
        for _ in range(workloads.SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(tracer)
            setup_times.append(time.perf_counter() - t0)
            setup_reference.run()
    finally:
        if args.trace:
            tracer.uninstall()
    wl.measure(0, NullTracer())  # warm-up: caches fill, lazy set-up finishes

    if args.trace:
        # Untraced then traced halves; their difference is the tracing overhead.
        base, base_ref = wl.measure(args.seconds / 2, NullTracer())
        tracer.register_model(wl.model)
        tracer.install()
        try:
            durations, ref_times = wl.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        durations, ref_times = wl.measure(args.seconds, tracer)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check_outputs()
    n = len(durations)
    p50 = 1e3 * statistics.median(durations)
    slowdown = wl.reference.slowdown(ref_times)
    print(f"env: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={len(os.sched_getaffinity(0))} "
          f"python={sys.version.split()[0]} numpy={np.__version__} blas_threads={threads} "
          f"git={git_sha()} src={src_digest()}")
    p90 = 1e3 * float(np.percentile(durations, 90))
    print(f"samples: unit_ops={n} ({wl.items_per_op} item(s) per op) "
          f"setup_reps={len(setup_times)} reference_runs={len(ref_times)}")
    print(f"tail: p90_ms={p90 / slowdown:.4f} over {n} samples, {n - math.ceil(0.9 * n)} "
          f"beyond it (informational: batch runs are too short for a steady p90)")
    print(f"host: slowdown={slowdown:.4f} against the nominal speed (reference batch "
          f"{wl.reference.batch}); raw p50_ms={p50:.4f} p90_ms={p90:.4f} "
          f"setup_s={statistics.median(setup_times):.6f}")
    if hasattr(wl, "digests"):
        print(f"train_log_sha256: {' '.join(sorted(wl.digests))}")
    if args.workload == "serve-int8-b1":
        print(f"paper: raw int8 p50 {p50:.3f} ms / {PAPER_INT8_MS} ms = "
              f"{p50 / PAPER_INT8_MS:.2f} (informational, not a claim)")
    checks = wl.checks
    print(f"checks: attempted={checks.attempted} failed={checks.failed}"
          + "".join(f"; {note}" for note in checks.notes))

    if args.trace:
        base_p50 = 1e3 * statistics.median(base) / wl.reference.slowdown(base_ref)
        extra = dict(wl.extra)
        loaded = sum(wl.extra.get("loaded", []))
        load_s = sum(s[3] - s[2] for s in tracer.spans if s[0] == "data.load_dataset")
        extra["load_dataset_ms_per_sample"] = 1e3 * load_s / loaded if loaded else 0.0
        extra["step_seconds"] = sum(durations)
        extra["trace_overhead_ms"] = p50 / slowdown - base_p50
        metrics = per_layer_metrics(tracer, n, extra)
        rows = layer_table(tracer, n)
        spans, table = write_outputs(tracer, rows, OUT_DIR, f"{args.workload}-seed{args.seed}")
        print(f"trace: spans={spans} layers={table}")
        print(f"trace: overhead_ms={extra['trace_overhead_ms']:.4f} (scaled p50 untraced "
              f"{base_p50:.4f} ms, traced {p50 / slowdown:.4f} ms)")
        forward = metrics["model.forward_ms"]
        if forward:
            print(f"gap: ops sum {forward * (1 - metrics['model.self_share']):.4f} ms of "
                  f"model.forward {forward:.4f} ms per op "
                  f"(gap {100 * metrics['model.self_share']:.2f}%)")
        if metrics["training.optimizer_ms"]:
            step = 1e3 * sum(durations) / n
            print(f"gap: step parts {step - metrics['training.self_ms']:.4f} ms of step "
                  f"{step:.4f} ms (gap {100 * metrics['training.self_ms'] / step:.2f}%)")
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        # Times are scaled to the nominal host speed (see bench/reference.py).
        metrics = {
            "p50_ms": p50 / slowdown,
            "items_per_s": wl.items_per_op * n / sum(durations) * slowdown,
            "setup_s": (statistics.median(setup_times)
                        / setup_reference.slowdown(setup_reference.times)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith("_ms_per_sample"):
        return "ms/sample"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_nme"):
        return "NME"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
