#!/usr/bin/env python3
"""Build and run the LLVA end-to-end benchmark.

    python3 perfbench/run.py --workload cold_start --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) under .bench_build/perfbench, or
under $CARGO_TARGET_DIR/perfbench when that is set; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's
own stdout is passed through, and its last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, printing no result, if the sources are missing, the
build fails, or the benchmark fails or runs too long.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LLVA sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, build_dir)
    run_build_step(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                   build_dir)
    binary = os.path.join(build_dir, "llva_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no llva_perfbench")
    return binary


def run_build_step(cmd, build_dir):
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    if res.returncode != 0:
        # A failed configure leaves a cache that would skip the next
        # configure; start clean next time.
        shutil.rmtree(build_dir, ignore_errors=True)
        fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = ap.parse_known_args()

    base = build_root()
    binary = build(os.path.join(base, "perfbench"))

    tmp_dir = os.path.join(base, "tmp", str(os.getpid()))
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmp-dir", tmp_dir] + extra
    if args.trace == "1":
        spans_dir = os.path.join(base, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if res.returncode != 0:
        fail("benchmark exited with %d" % res.returncode)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])
    sys.stdout.write(res.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
