#!/usr/bin/env python3
"""Builds and runs the artemis-cpp benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet-outage --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload fleet-fresh --seed 1 --seconds 1 --trace 0 --size smoke
    python3 perfbench/run.py --self-test

Run from the repository root. The engine and the harness are compiled from
source into .bench_build/perfbench (Release). Build output goes to stderr;
the last line of stdout is the result object. Each result is also appended,
with the host record, to .bench_build/perfbench/results.jsonl.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "artemis_perfbench")
TIMEOUT_S = 175


def build():
    """Configures (once) and builds the harness; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "artemis_perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run(args):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:  # run() has killed and reaped it
        sys.stdout.write(expired.stdout or "")
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1, []
    sys.stdout.write(done.stdout)
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    reference = os.path.join(HERE, "reference", "digests.txt")
    if opts.self_test:
        code, _ = run(["--self-test", "--reference", reference])
        return code

    harness_args = ["--workload", opts.workload, "--seed", str(opts.seed),
                    "--seconds", str(opts.seconds), "--trace", str(opts.trace),
                    "--size", opts.size, "--reference", reference]
    if opts.trace:
        spans = "spans-%s-%d.csv" % (opts.workload, opts.seed)
        harness_args += ["--spans", os.path.join(BUILD, spans)]
    code, lines = run(harness_args)
    if code != 0 or not lines:
        return code or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
    with open(os.path.join(BUILD, "results.jsonl"), "a") as log:
        log.write(json.dumps({"workload": opts.workload, "seed": opts.seed, "size": opts.size,
                              "seconds": opts.seconds, "trace": opts.trace, "host": host,
                              "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
