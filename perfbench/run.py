#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload udp-zipf --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The runner builds perfbench/ (which compiles
the repository's src/ from source) into $CARGO_TARGET_DIR, default
.bench_build, times the workload's set-up in fresh processes, runs the
workload, and prints a summary followed, as the last line of standard
output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, and a Chrome trace is written under
<build dir>/traces/. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("udp-zipf", "udp-miss", "verify-release")
SETUP_REPEATS = 15
RUN_TIMEOUT_S = 150
# Environment the verifier would otherwise honour; runs must not inherit it.
HERMETIC_UNSET = ("DNSV_STORE_DIR", "DNSV_STORE_FORCE", "DNSV_SOLVER_FORCE")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the perfbench target; False on failure."""
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def time_setup(binary, workload, work_dir, env):
    """Median wall time from spawning a fresh process until it reports ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([binary, "setup", workload, "--work-dir", work_dir],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, env=env)
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError("setup of %s failed (exit %s)" % (workload, proc.returncode))
        times.append(elapsed)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    try:
        setup_s = None
        if not args.trace:
            setup_s = time_setup(binary, args.workload, work_dir, env)
        done = subprocess.run(
            [binary, "run", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir, "--trace-out", trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # The verifier logs a line per summarized function; keep the rest.
    for line in done.stderr.splitlines():
        if not line.startswith("[I "):
            log(line)
    if done.returncode != 0 or not done.stdout.strip():
        log("perfbench exited with %d" % done.returncode)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    if args.trace:
        measured, wanted = result["layers"], spec["per_layer"]
    else:
        measured, wanted = dict(result["e2e"], setup_s=setup_s), spec["end_to_end"]
    metrics = {}
    correct = result["correct"]
    for metric in wanted:
        name = metric["name"]
        value = measured.get(name)
        if value is None and args.trace and name not in measured:
            value = 0  # a layer this workload does not exercise
        if value is None or not math.isfinite(value):
            log("metric %s was not measured" % name)
            correct = False
            value = 0
        metrics[name] = {"value": value, "unit": metric["unit"]}

    print("workload %s  seed %d  inputs %s  attempted %d  failed %d  correct %s" % (
        args.workload, args.seed, result["input_hash"], result["attempted"],
        result["failed"], correct))
    for problem in result["problems"]:
        print("  problem: " + problem)
    shown = dict(result["e2e"], **result["layers"])
    if setup_s is not None:
        shown["setup_s"] = setup_s
    for name in sorted(shown):
        print("  %-30s %.6g" % (name, shown[name] if shown[name] is not None else math.nan))
    if args.trace:
        print("  trace: " + trace_path)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
