"""The symcrys benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; symcrys is imported from ./src.
Workloads: theta-blocks, typeA-canonical, crystal-combinatorics,
cli-queries (see perfbench/README.md).

--trace 0 prints the end-to-end metrics.  Set-up is timed in SETUP_PROBES
short processes plus the measured one, and the median is reported.

--trace 1 prints the per-layer metrics.  An untraced process runs for half
of --seconds, then a traced process runs the same number of rounds; their
median round times give trace.overhead_ratio.  Spans are written to
perfbench/results/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Any error exits non-zero without
printing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("theta-blocks", "typeA-canonical", "crystal-combinatorics", "cli-queries")
SETUP_PROBES = 10
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def worker(deadline, *args):
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[2:]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=left, text=True)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        raise BenchError("worker timed out: " + " ".join(cmd[2:]))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: " + " ".join(cmd[2:]))
    return json.loads(lines[-1])


def untraced(args, deadline):
    common = ["--workload", args.workload, "--seed", args.seed]
    setups = [worker(deadline, *common, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = worker(deadline, *common, "--seconds", args.seconds)
    setups.append(res["setup_s"])
    lat = res["latencies"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["round_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "query_p50_s": percentile(lat, 0.5),
        "query_p90_s": percentile(lat, 0.9),
    }
    print(f"{args.workload}: {len(res['round_s'])} rounds, {len(lat)} well-formed "
          f"operations timed, {res['attempted']} attempted, {res['failed']} failed")
    print(f"measured: wall {statistics.median(res['round_measured_s']):.4f} s at "
          f"{statistics.median(res['speed']):.3f} times the reference unit time")
    return res, metrics


def traced(args, deadline):
    common = ["--workload", args.workload, "--seed", args.seed]
    base = worker(deadline, *common, "--seconds", args.seconds / 2)
    rounds = len(base["round_s"])
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl")
    res = worker(deadline, *common, "--rounds", rounds, "--trace", "--trace-out", spans)
    layers = dict(res["layers"])
    layers["trace.overhead_ratio"] = (statistics.median(res["round_s"])
                                      / statistics.median(base["round_s"]))
    print(f"{args.workload}: {rounds} untraced and {rounds} traced rounds; spans in {spans}")
    return res, layers


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "symcrys", "__init__.py")):
        print("error: no src/symcrys here; run from the root of a symcrys checkout",
              file=sys.stderr)
        return 2
    try:
        res, metrics = (traced if args.trace else untraced)(args, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in res["report"]:
        print(line)
    for line in res["failures"]:
        print(f"failed operation: {line}")
    for line in res["errors"]:
        print(f"check failed: {line}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if sorted(units) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
