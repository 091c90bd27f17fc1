"""One workload process: set up, then run operations in a closed loop.

Started by run.py, which times set-up from process start.  Prints one JSON
line: the monotonic time at which inputs were ready and, unless
--setup-only, the measured operations and the metrics derived from them.
psurf is imported from the checkout's own src/ directory and nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_op(workload, index):
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    checks, info = workload.op(index)
    return dict(info, wall=time.perf_counter() - wall0, cpu=_cpu_seconds() - cpu0,
                attempted=checks.attempted, failed=len(checks.failed),
                known_failed=len(checks.known_failed),
                failures=sorted(set(checks.failed + checks.known_failed)))


def another_op(start, seconds, walls):
    """Whether one more operation brings the run's end nearer to `seconds`.

    An operation is expected to take the median of `walls`, so a run lasts
    `seconds` give or take half an operation, and never has no operation.
    """
    if not walls:
        return True
    return time.perf_counter() - start + statistics.median(walls) / 2 < seconds


def run_loop(workload, seconds):
    """Closed loop: the next operation starts when the previous one ends."""
    ops = []
    start = time.perf_counter()
    while another_op(start, seconds, [o["wall"] for o in ops]):
        ops.append(run_op(workload, len(ops)))
    return ops


def _blas():
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    out["threads"] = None
    return out


def _git_commit():
    """HEAD of the checkout's .git, or None; benchmark checkouts often have none."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "psurf", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "git_commit": _git_commit(),
            "psurf_sources_sha256": _source_digest()}


def _totals(ops):
    return {"attempted": sum(o["attempted"] for o in ops),
            "failed": sum(o["failed"] for o in ops),
            "known_failed": sum(o["known_failed"] for o in ops),
            "failures": sorted({f for o in ops for f in o["failures"]})}


def _percentile_ms(latencies, q):
    import numpy as np
    return float(np.percentile(np.asarray(latencies), q) * 1e3)


def measure(workload, args):
    from tracing import SplitClock
    clock = SplitClock()
    clock.install()
    try:
        ops = run_loop(workload, args.seconds)
    finally:
        clock.remove()
    if not clock.latencies:
        raise SystemExit("no call to a public psurf.birkhoff splitter was observed; "
                         "split latency cannot be measured on this workload")
    metrics = {"wall_s": statistics.median(o["wall"] for o in ops),
               "cpu_s": statistics.median(o["cpu"] for o in ops),
               "split_p90_ms": _percentile_ms(clock.latencies, 90)}
    return ops, metrics, {"ops": len(ops), "splits": len(clock.latencies)}


def trace(workload, args):
    """Pairs of operations on the same inputs, the first untraced, the second traced.

    Split latency percentiles come from the untraced halves.
    """
    from tracing import SplitClock, Tracer, coverage_problems, layer_metrics, loc_metrics
    clock, tracer = SplitClock(), Tracer()
    reference, traced = [], []
    start = time.perf_counter()
    while another_op(start, args.seconds,
                     [r["wall"] + t["wall"] for r, t in zip(reference, traced)]):
        index = len(traced)
        clock.install()
        try:
            reference.append(run_op(workload, index))
        finally:
            clock.remove()
        tracer.op = index
        tracer.install()
        try:
            traced.append(run_op(workload, index))
        finally:
            tracer.remove()
    n = len(traced)
    metrics = layer_metrics(tracer.spans, n)
    per_op = getattr(workload, "splits_per_op", None)
    problems = coverage_problems(args.workload, tracer.spans, n, metrics, per_op)
    tracer.write(os.path.join(WORKDIR, f"trace_{args.workload}.jsonl.gz"))
    if problems:
        raise SystemExit("trace coverage self-check failed:\n  " + "\n  ".join(problems))
    overhead = statistics.median(t["wall"] - r["wall"] for r, t in zip(reference, traced))
    totals = _totals(reference + traced)
    metrics.update({
        "oracle.phi_diff": max(o.get("phi_diff", 0.0) for o in traced),
        "checks.fail_frac": (totals["failed"] + totals["known_failed"]) / totals["attempted"],
        "split_p50_ms": _percentile_ms(clock.latencies, 50),
        "split_p99_ms": _percentile_ms(clock.latencies, 99),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / statistics.median(o["wall"] for o in reference),
    })
    metrics.update(loc_metrics(os.path.join(SRC, "psurf")))
    return reference + traced, metrics, {"pairs": n, "spans": len(tracer.spans)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "psurf", "__init__.py")):
        raise SystemExit(f"psurf sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import psurf
    if os.path.dirname(os.path.dirname(os.path.abspath(psurf.__file__))) != SRC:
        raise SystemExit(f"psurf was imported from {psurf.__file__}, not from {SRC}")
    import workloads
    os.makedirs(WORKDIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.workload, WORKDIR)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if not args.setup_only:
        ops, metrics, counts = (trace if args.trace else measure)(workload, args)
        result.update(_totals(ops), metrics=metrics, counts=counts, env=environment(args),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
