#!/usr/bin/env python3
"""Render BENCH_throughput.json as the EXPERIMENTS.md A8 table.

    python3 bench/throughput_table.py [BENCH_throughput.json]

Prints one Markdown row per program: the median IPS of the
interpreter and of the simulator (exact and sampled profile counts)
in M/s, each with its min-max over the timed trials.
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
    print("| Program | interp (M/s) | threaded (M/s) "
          "| +sample 32 (M/s) |")
    print("|---------|-------------:|---------------:"
          "|-----------------:|")
    for r in rows:
        print("| %s | %s | %s | %s |" % (
            r["program"], cell(r, "interp"), cell(r, "threaded"),
            cell(r, "threaded_sampled")))


if __name__ == "__main__":
    main()
