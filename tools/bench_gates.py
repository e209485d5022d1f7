#!/usr/bin/env python3
"""Wall-clock record of the eight snapshot-gated benches (BENCH_gates.json).

Runs each gated bench at --fast, with --jobs=1 and --jobs=4, ten times,
from a temporary directory, and reads the wall time each run writes to its
<snapshot>.perf.json sidecar. Each LABEL=BENCH_DIR argument names one
build of the benches (CI and the committed rows use Release builds) and
becomes one row of BENCH_gates.json at the repository root; a row with the
same label is replaced. With several builds the runs alternate between
them, one round at a time, so a slow spell of a shared machine hits every
row alike:

    python3 tools/bench_gates.py "before=../parent/build/bench" "after=build/bench"

A row holds, per (bench, jobs), the median and quartiles of the sidecar's
wall_seconds (wall_s), of the whole process's wall time (process_s) and of
its user + system CPU time (cpu_s, the work done whatever the worker
count), next to the machine's hardware_threads and its repetitions. A
bench that writes no sidecar, as the robustness benches did before they
gained one, gets wall_s null. Every row after the first also holds, per
(bench, jobs) and per measure, the number of rounds in which its run took
less than the first row's run of the same round (wins_vs_first, with the
first row's label in compared_with): quartiles of a shared machine can
part by chance, but a change that wins 9 or 10 of 10 rounds is not noise.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCHES = (
    "table3_controller_vs_default",
    "table4_background_loads",
    "table5_cpu_only_dvfs",
    "table6_biglittle",
    "robustness_fault_sweep",
    "robustness_thermal_soak",
    "robustness_timing_soak",
    "robustness_chaos_campaign",
)
JOBS = (1, 4)
REPETITIONS = 10
MEASURES = ("wall_s", "process_s", "cpu_s")


def summary(values):
    """Median and quartiles of @p values, or None when there are none."""
    if not values:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def children_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(binary, jobs, workdir):
    """Runs one bench; returns (process s, CPU s, sidecar JSON or None)."""
    snapshot = os.path.join(workdir, "snapshot.json")
    sidecar = snapshot + ".perf.json"
    if os.path.exists(sidecar):
        os.remove(sidecar)
    cpu_start = children_cpu_seconds()
    start = time.perf_counter()
    run = subprocess.run([binary, "--fast", "--jobs=%d" % jobs, "--json=" + snapshot],
                         cwd=workdir, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, check=False)
    elapsed = time.perf_counter() - start
    cpu = children_cpu_seconds() - cpu_start
    if run.returncode != 0:
        sys.stderr.write(run.stderr.decode("utf-8", errors="replace"))
        raise SystemExit("%s --jobs=%d exited with %d" % (binary, jobs, run.returncode))
    if not os.path.exists(sidecar):
        return elapsed, cpu, None
    with open(sidecar, encoding="utf-8") as text:
        return elapsed, cpu, json.load(text)


def wins(sample, first):
    """Rounds, per measure, in which @p sample ran faster than @p first."""
    return {key: sum(mine < theirs for mine, theirs in zip(sample[key], first[key]))
            if sample[key] and first[key] else None
            for key in MEASURES}


def measure(builds):
    """Rows for @p builds, a list of (label, bench directory)."""
    rows = [{"label": label, "hardware_threads": os.cpu_count(),
             "repetitions": REPETITIONS, "results": []}
            for label, _ in builds]
    for row in rows[1:]:
        row["compared_with"] = builds[0][0]
    with tempfile.TemporaryDirectory() as workdir:
        for bench in BENCHES:
            for jobs in JOBS:
                samples = [{key: [] for key in MEASURES} for _ in builds]
                for _ in range(REPETITIONS):
                    for (_, bench_dir), row, sample in zip(builds, rows, samples):
                        binary = os.path.abspath(os.path.join(bench_dir, bench))
                        elapsed, cpu, perf = run_once(binary, jobs, workdir)
                        sample["process_s"].append(elapsed)
                        sample["cpu_s"].append(cpu)
                        if perf is not None:
                            sample["wall_s"].append(float(perf["wall_seconds"]))
                            row["hardware_threads"] = perf["hardware_threads"]
                for index, (row, sample) in enumerate(zip(rows, samples)):
                    result = {"bench": bench, "jobs": jobs}
                    result.update({key: summary(values) for key, values in sample.items()})
                    if index > 0:
                        result["wins_vs_first"] = wins(sample, samples[0])
                    row["results"].append(result)
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("builds", nargs="+", metavar="LABEL=BENCH_DIR",
                        help="row label and the directory holding its bench binaries")
    args = parser.parse_args(argv)
    builds = []
    for build in args.builds:
        label, sep, bench_dir = build.partition("=")
        if not sep or not label or not bench_dir:
            parser.error("expected LABEL=BENCH_DIR, got %r" % build)
        builds.append((label, bench_dir))

    rows = measure(builds)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCH_gates.json")
    doc = {"bench": "gates", "fast": True, "rows": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as text:
            doc = json.load(text)
    # Rows carry their own repetitions; older files kept one for all rows.
    legacy = doc.pop("repetitions", None)
    for row in doc["rows"]:
        row.setdefault("repetitions", legacy)
    labels = {row["label"] for row in rows}
    doc["rows"] = [row for row in doc["rows"] if row["label"] not in labels] + rows
    with open(path, "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=2)
        out.write("\n")
    print("Wrote %s (rows %s)" % (path, ", ".join(sorted(labels))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
