#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

Runs every workload once untraced and once traced on a small table, and
checks that:
  - the last output line is a result with `correct`, `attempted`, `failed`
    and `metrics`, and no operation failed;
  - every metric BENCHMARK.json names is printed, with its unit (end-to-end
    metrics untraced, per-layer metrics traced), and nothing else;
  - for one seed, the `.leco` part files of the scanned table are
    byte-identical across the two runs, so `compression_ratio.*` repeats.

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py
"""

import glob
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = 32768
SEED = 3


def table_hashes(workload):
    out = {}
    for path in sorted(glob.glob(os.path.join(ROOT, ".bench_build", "data", workload, "*", "*.leco"))):
        with open(path, "rb") as f:
            out[os.path.relpath(path, ROOT)] = hashlib.sha256(f.read()).hexdigest()
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        hashes = []
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(SEED), "--seconds", "1",
                                     "--trace", str(trace), "--rows", str(ROWS)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            where = f"{wl} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"{where}: correct={res.get('correct')} failed={res.get('failed')} "
                                f"attempted={res.get('attempted')}")
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append(f"{where}: metric {name}: expected unit {want.get(name)}, "
                                    f"printed {got.get(name)}")
            for name, m in res["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{where}: metric {name} has no numeric value")
            print(f"{where}: attempted={res['attempted']} failed={res['failed']} "
                  f"metrics={len(res['metrics'])}", file=sys.stderr)
            hashes.append(table_hashes(wl))
        if len(hashes) == 2 and (not hashes[0] or hashes[0] != hashes[1]):
            problems.append(f"{wl}: .leco part files differ between two runs of seed {SEED}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
