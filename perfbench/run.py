#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload nexus6_eval --seed 2017 --seconds 30 --trace 0

Builds perfbench/ (and with it the simulator from src/) into .bench_build/
on first use, runs one workload, and passes the binary's report through.
Its last stdout line is the result JSON. Exit status 2 means a bad command
line, 1 a failed build or run; nothing is printed on stdout then.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("nexus6_eval", "biglittle_eval", "chaos_campaigns")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be within 1..3600")
    return args


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path, encoding="utf-8", errors="replace") as text:
                    sys.stderr.write(text.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(build_dir, "spans-%s.json" % args.workload)]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    output = run.stdout.decode("utf-8", errors="replace")
    if run.returncode != 0:
        sys.stderr.write(output)
        sys.stderr.write("perfbench: binary exited with %d\n" % run.returncode)
        return 1
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(output)
        sys.stderr.write("perfbench: binary printed no result line\n")
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
