#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the system under test).

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes. Checks that:
  1. a short run of every workload BENCHMARK.json lists, traced and
     untraced, reports exactly the metrics it names, with their units
     (live_update, kept out of the list, reports them and its own);
  2. a deliberately wrong reference yields success_ratio 0 (every
     request failed), correct = false, and no crash;
  3. the traced run agrees with the untraced run: the replay of every
     request reproduced its output, cache hits and translations
     (correct = true), and both ran the same number of requests;
  4. live_update ends with vm.retired_pending = 0;
  5. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra, cwd=ROOT, seconds=1):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(res):
    if res.returncode != 0:
        sys.exit("FAIL: exit %d\n%s" % (res.returncode, res.stderr[-2000:]))
    lines = res.stdout.strip().split("\n")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check(cond, what):
    if not cond:
        sys.exit("FAIL: " + what)
    print("ok:", what)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in [x["name"] for x in spec["workloads"]] + ["live_update"]:
        details = {}
        for trace in (0, 1):
            result, detail = parse(run(w, trace))
            details[trace] = detail
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if w == "live_update":
                got = {k: got[k] for k in wanted[trace] if k in got}
            check(got == wanted[trace],
                  "%s trace=%d reports every named metric with its unit"
                  % (w, trace))
            check(result["correct"] and result["attempted"] >= 1,
                  "%s trace=%d is correct" % (w, trace))
            if trace == 0:
                ratio = result["metrics"]["success_ratio"]["value"]
                check(abs(ratio - (1 - result["failed"] /
                                   result["attempted"])) < 1e-12,
                      "%s success_ratio matches failed/attempted" % w)
            if trace == 1 and w == "live_update":
                check(result["metrics"]["vm.retired_pending"]["value"]
                      == 0, "live_update ends with nothing retired")
        if w != "live_update":
            check(details[1]["traced_requests"] ==
                  details[1]["untraced_requests"],
                  "%s replays every untraced request" % w)

    result, _ = parse(run("cold_start", 0, "--corrupt-reference"))
    check(result["metrics"]["success_ratio"]["value"] == 0 and
          result["failed"] == result["attempted"] and
          not result["correct"],
          "a wrong reference fails every request without crashing")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run("cold_start", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(res.returncode != 0 and '"metrics"' not in res.stdout,
          "without the sources the benchmark fails and prints no result")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
