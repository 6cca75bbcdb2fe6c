#!/usr/bin/env python3
"""Render BENCH_throughput.json as the EXPERIMENTS.md A8 table.

    python3 bench/throughput_table.py [BENCH_throughput.json]

Prints one Markdown row per program: the median IPS of each engine
in M/s with its min-max over the timed trials, and the +smpl/switch
speedup of the medians with its min-max trial pairing.
"""

import json
import sys


def cell(row, col):
    m = 1e6
    return "%.1f (%.1f–%.1f)" % (row[col + "_ips"] / m,
                                 row[col + "_ips_min"] / m,
                                 row[col + "_ips_max"] / m)


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_throughput.json"
    with open(path) as f:
        rows = json.load(f)["rows"]
    print("| Program | interp (M/s) | switch, generic handlers (M/s) "
          "| threaded (M/s) | +sample 32 (M/s) | speedup |")
    print("|---------|-------------:|-------------:|---------------:"
          "|-----------------:|--------:|")
    for r in rows:
        print("| %s | %s | %s | %s | %s | %.2f× (%.2f–%.2f×) |" % (
            r["program"], cell(r, "interp"), cell(r, "switch"),
            cell(r, "threaded"), cell(r, "threaded_sampled"),
            r["speedup"], r["speedup_min"], r["speedup_max"]))


if __name__ == "__main__":
    main()
