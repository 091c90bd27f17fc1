"""psurf benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; psurf is imported from the checkout's
src/ directory.  With --trace 0 it prints every end-to-end metric named in
BENCHMARK.json; with --trace 1 every per-layer metric.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7            # set-up is timed in this many fresh processes,
                             # half of the others before the measured run, half after
DEADLINE_S = 170.0           # the whole run, set-up samples included


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(args, deadline, setup_only=False):
    """Run one worker process; returns its result with setup_s filled in."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = _now()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload}: worker did not finish within {DEADLINE_S:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload}: worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = _now() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "psurf", "__init__.py")):
        raise SystemExit("psurf sources (src/psurf) are missing from this checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [_spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(extra // 2)]
    result = _spawn(args, deadline)
    setups.append(result["setup_s"])
    setups += [_spawn(args, deadline, setup_only=True)["setup_s"]
               for _ in range(extra - extra // 2)]
    values = dict(result["metrics"], setup_s=statistics.median(setups),
                  peak_rss_mb=result["peak_rss_mb"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not produced: {', '.join(missing)}")

    attempted, failed, known = result["attempted"], result["failed"], result["known_failed"]
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print("counts: " + json.dumps(dict(result["counts"], setup_samples=len(setups))))
    for m in wanted:
        print(f"  {m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'fail_frac':<28} {(failed + known) / attempted:.6g} "
          f"(failed checks / {attempted} attempted; {known} are known findings)")
    if result["failures"]:
        print("failed checks: " + ", ".join(result["failures"]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
