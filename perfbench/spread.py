#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload (untraced, `run_seconds`
from BENCHMARK.json) and prints, per metric, the median of the runs and the
interquartile range as a share of that median, next to the metric's bound.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads scan_full,scan_range]

Each run's result line is appended to .bench_build/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    if "-" in spec:
        a, b = spec.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = os.path.join(ROOT, ".bench_build", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    worst = 0.0
    for wl in workloads:
        values = {}
        for seed in seeds(args.seeds):
            t0 = time.time()
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-3000:])
                sys.exit(f"{wl} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": wl, "seed": seed, "wall_s": time.time() - t0, **res}) + "\n")
            print(f"{wl} seed {seed}: {time.time() - t0:.0f} s, attempted {res['attempted']}, "
                  f"failed {res['failed']}", file=sys.stderr)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"\n{wl}: {len(seeds(args.seeds))} runs")
        print(f"  {'metric':34s} {'median':>12s} {'IQR/median':>10s} {'bound':>6s}")
        for k, xs in values.items():
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
            share = (q[2] - q[0]) / med if med else float("inf")
            worst = max(worst, share / bounds[k])
            print(f"  {k:34s} {med:12.4f} {share:10.4f} {bounds[k]:6.2f}"
                  f"{'  OVER BOUND' if share > bounds[k] else ''}")
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
