#!/usr/bin/env python3
"""Builds the reoptdb end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload job_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The first run configures and builds the
engine and the driver into .bench_build/ (Release); later runs rebuild
incrementally. A --trace 0 run measures the seed's databases one after
another, each in its own perfbench process given an equal share of
--seconds, and pools their figures into the end-to-end metrics; a
--trace 1 run traces the seed's first database. Every metric is printed as
"name value unit (n=samples)", followed by the environment block; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. The full report, per-database figures and environment included,
is written to .bench_out/, next to the trace file of a --trace 1 run. The
exit code is non-zero on any answer mismatch, traced-replica divergence or
work-counter drift.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["job_cold", "job_eager", "service_zipf"]
# Databases per seed: kDatabasesPerSeed in perfbench.cc.
DATABASES = 5
# Time a run may take beyond --seconds: the set-ups, the answer checks and,
# for a seed with no committed answers, the re-opt-off reference runs.
RUN_MARGIN_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the engine sources (CMakeLists.txt, src/) are not "
            "next to perfbench/; run from a full checkout of the repository")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def run_database(workload, args, database, seconds, deadline):
    """Runs one perfbench process; returns (report or None, exit code)."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % args.seed,
           "--database=%d" % database, "--seconds=%g" % seconds,
           "--trace=%d" % args.trace,
           "--answers=" + os.path.join(HERE, "answers"), "--out=" + OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within --seconds + %d s" %
            (workload, RUN_MARGIN_S))
        return None, 1
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        log("perfbench: %s database %d printed no report (exit %d)" %
            (workload, database, proc.returncode))
        return None, proc.returncode or 1


def percentile(values, p):
    """The p-quantile, smoothed: the mean of the samples ranked between
    p - w and p + w, with w = min(0.02, (1 - p) / 2).

    The latencies cluster by statement, so the sorted samples have gaps
    between clusters. On service_zipf one gap, from about 8.5 to 12.5 ms on
    a fast host, lies between the 95.0th and 95.7th percentile, and a
    nearest-rank p95 jumps across it when a few more or fewer replies land
    above it. The window average moves in proportion instead."""
    ordered = sorted(values)
    n = len(ordered)
    w = min(0.02, (1 - p) / 2)
    lo = max(0, math.floor((p - w) * n))
    hi = min(n, max(lo + 1, math.ceil((p + w) * n)))
    return statistics.fmean(ordered[lo:hi])


def end_to_end(reports):
    """The end-to-end metrics of a run, pooled over its databases, and the
    figures printed beside them: latency_p99_ms, only when at least ten
    samples lie beyond it."""
    latency = [v for r in reports for v in r["latency_ms"]]
    statements = sum(r["statements"] for r in reports)
    busy_s = sum(r["busy_s"] for r in reports)
    n = len(latency)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s",
                    len(reports)),
        "throughput_qps": (statements / busy_s, "1/s", statements),
        "latency_p50_ms": (percentile(latency, 0.50), "ms", n),
        "latency_p95_ms": (percentile(latency, 0.95), "ms", n),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports),
                        "MB", len(reports)),
    }
    extra = {}
    if n >= 1000:
        extra["latency_p99_ms"] = (percentile(latency, 0.99), "ms", n)
    return metrics, extra


def run_workload(workload, args):
    """Returns (report or None, exit code) for one workload."""
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    databases = 1 if args.trace else DATABASES
    reports = []
    status = 0
    for database in range(databases):
        report, code = run_database(workload, args, database,
                                    args.seconds / databases, deadline)
        if report is None:
            return None, code
        reports.append(report)
        status = status or code
    if args.trace:
        metrics = {name: (m["value"], m["unit"], m["samples"])
                   for name, m in reports[0]["metrics"].items()}
        extra = {name: (m["value"], m["unit"], m["samples"])
                 for name, m in reports[0]["workload_metrics"].items()}
    else:
        metrics, extra = end_to_end(reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    env = dict(reports[0]["env"])
    for key in ("database", "data_seed", "answers", "reference_s"):
        env[key] = [r["env"][key] for r in reports]
    result = {"workload": workload,
              "correct": all(r["correct"] for r in reports),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "workload_metrics": {k: {"value": v, "unit": u, "samples": n}
                                   for k, (v, u, n) in extra.items()},
              "env": env, "databases": reports}
    path = os.path.join(OUT, "result_%s_seed%d_trace%d.json" %
                        (workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print("== %s (seed %d, trace %d)" % (workload, args.seed, args.trace))
    for name, (value, unit, n) in list(metrics.items()) + list(extra.items()):
        print("  %-34s %14.6g %-6s (n=%d)" % (name, value, unit, n))
    print("  %-34s %14.6g %-6s (%d failed of %d attempted)" %
          ("error_rate", failed / attempted if attempted else 1.0, "ratio",
           failed, attempted))
    print("  env " + json.dumps(env, sort_keys=True))
    if reports[0].get("trace_file"):
        print("  trace " + os.path.relpath(reports[0]["trace_file"], ROOT))
    return result, status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 <= args.seed <= 2 ** 40 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2^40] and --seconds > 0")

    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        report, code = run_workload(workload, args)
        if report is None:
            return code
        status = status or code
        result["correct"] = result["correct"] and report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        for name, m in report["metrics"].items():
            key = name if len(workloads) == 1 else workload + "." + name
            result["metrics"][key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
