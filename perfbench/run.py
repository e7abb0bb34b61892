#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan_full --seed 1 --seconds 12 --trace 0

The program (`src/main/scala`) and the benchmark (`perfbench/src`) are
compiled together with the Scala compiler that ships with Spark
(`$SPARK_HOME/jars`) into `.bench_build/`; a build is reused while the
sources are unchanged. The benchmark itself runs in one JVM with an explicit
heap and prints its result as the last line of standard output. Results,
spans and the environment record are written to `.bench_build/results/`.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
HEAP = "3g"
# A fixed, large young generation under the parallel collector: most of what a
# query or a write allocates dies young, and G1's adaptive young sizing made
# write times vary by half from one write to the next. The survivor spaces are
# fixed too, and large, and objects stay in them for 15 collections, so that
# what a reader or writer holds when a collection runs counts in the after-GC
# heap of `heap_live_mb` while it is alive, instead of being promoted to the
# old generation, where it stays in that figure, dead, until a full GC.
GC_FLAGS = ["-XX:+UseParallelGC", "-Xmn1400m", "-XX:-UseAdaptiveSizePolicy", "-XX:SurvivorRatio=4",
            "-XX:MaxTenuringThreshold=15"]
DEADLINE_S = 170  # the whole invocation, build included, ends before 180 s
FIRST_BUILD_DEADLINE_S = 880
WORKLOADS = ("scan_full", "scan_range")
JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME", "")
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
    if not jars:
        fail(f"no Spark jars under {home}/jars (set SPARK_HOME)")
    return jars


def extra_jars():
    """Compile-scope dependencies of the program that Spark does not ship,
    taken from the local coursier cache (the build is offline)."""
    cache = os.environ.get("COURSIER_CACHE", os.path.expanduser("~/.cache/coursier"))
    return sorted(glob.glob(os.path.join(cache, "**", "duckdb_jdbc-*.jar"), recursive=True))[:1]


def sources():
    prog = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(ROOT, "perfbench", "src", "*.scala")))
    if not prog:
        fail("no program sources under src/main/scala: run from the root of a checkout")
    return prog + bench


def build(jars):
    """Compile into .bench_build/classes-<hash of sources>; reuse if present."""
    srcs = sources()
    h = hashlib.sha256()
    for path in srcs + jars:
        h.update(os.path.relpath(path, ROOT).encode())
        if path.endswith(".scala"):
            with open(path, "rb") as f:
                h.update(f.read())
    classes = os.path.join(BUILD, "classes-" + h.hexdigest()[:16])
    if os.path.isdir(classes):
        return classes, h.hexdigest()
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", "-cp", os.pathsep.join(jars), "scala.tools.nsc.Main",
           "-nowarn", "-deprecation:false", "-classpath", os.pathsep.join(jars), "-d", tmp] + srcs
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=FIRST_BUILD_DEADLINE_S - 60)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("compilation failed")
    os.rename(tmp, classes)
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
    return classes, h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=0,
                    help="rows of the table (0 = the benchmark's size; small values for the self-check)")
    args = ap.parse_args()

    started = time.time()
    jars = spark_jars() + extra_jars()
    built = any(os.path.isdir(p) for p in glob.glob(os.path.join(BUILD, "classes-*")))
    classes, src_hash = build(jars)
    deadline = (FIRST_BUILD_DEADLINE_S if not built else DEADLINE_S) - (time.time() - started)

    tmp = os.path.join(BUILD, "tmp")
    results = os.path.join(BUILD, "results")
    for d in (tmp, results):
        os.makedirs(d, exist_ok=True)
    cp = [classes, os.path.join(ROOT, "src", "main", "resources")] + jars
    # -UsePerfData: the JVM would otherwise write its counters under /tmp
    cmd = (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:-UsePerfData"] + GC_FLAGS
           + [f"-Djava.io.tmpdir={tmp}",
              f"-Dlog4j2.configurationFile={os.path.join(ROOT, 'perfbench', 'log4j2.properties')}"]
           + JAVA_OPENS
           + ["-cp", os.pathsep.join(cp), "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--rows", str(args.rows), "--heap", HEAP,
              "--commit", git_commit(), "--source-hash", src_hash[:16],
              "--work", BUILD, "--deadline", str(int(deadline))])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, cwd=ROOT)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=max(10.0, deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {time.time() - started:.0f} s")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("last line of the benchmark output is not a JSON result")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
