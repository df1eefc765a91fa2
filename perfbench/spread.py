#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each end-to-end metric's
median and quartile spread ((Q3 - Q1) / median, statistics.quantiles n=4).

    python3 perfbench/spread.py --workload fleet-outage --seeds 1-10 --seconds 30
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=30)
    opts = parser.parse_args()
    first, last = (int(x) for x in opts.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        done = subprocess.run([sys.executable, RUN, "--workload", opts.workload, "--seed",
                               str(seed), "--seconds", str(opts.seconds), "--trace", "0"],
                              stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.splitlines()[-1])
        line = " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())
        print("seed %d correct=%s %s" % (seed, result["correct"], line), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        print("%-14s median %-12.6g spread %.4f" % (name, median, (q3 - q1) / median))


if __name__ == "__main__":
    main()
