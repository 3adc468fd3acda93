#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds liboal and the perfbench binary from
source into .bench_build/perfbench (CMake, Release), checks the benchmark's
own C++ sources with the repo's oal_lint, runs fleet_warm's untimed prepare
step when needed, then runs the workload and prints the binary's report.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
FIG3_BASELINE = os.path.join("bench", "baselines", "fig3_convergence.jsonl")
WORKLOADS = ("online_il_adapt", "gpu_enmpc_thermal", "fleet_warm")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 170  # the measured invocation must end well inside 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs cmd from the repo root with its output on stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no repository sources next to perfbench/ to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S) != 0:
            raise RuntimeError("cmake configure failed")
    if call(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench", "oal_lint"],
            BUILD_TIMEOUT_S) != 0:
        raise RuntimeError("build failed")


def lint_clean():
    """The benchmark's own sources must pass the repo's invariant checker."""
    return call([os.path.join(BUILD, "oal", "oal_lint"), HERE], 60) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    t0 = time.monotonic()
    lint_ok = lint_clean()
    if not lint_ok:
        log("perfbench: oal_lint found violations in perfbench/")

    exe = os.path.join(BUILD, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    store = None
    try:
        if args.workload == "online_il_adapt":
            cmd += ["--fig3-baseline", FIG3_BASELINE]
        elif args.workload == "fleet_warm":
            store = os.path.join(BUILD, f"store-{os.getpid()}")
            shutil.rmtree(store, ignore_errors=True)
            prepare = [exe, "--workload", "fleet_warm", "--seed", str(args.seed),
                       "--prepare", "--store", store]
            if call(prepare, RUN_DEADLINE_S) != 0:
                log("perfbench: fleet_warm prepare step failed")
                return 1
            cmd += ["--store", store]
        left = RUN_DEADLINE_S - (time.monotonic() - t0)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        log("perfbench: workload did not finish in time")
        return 1
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench: binary exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        log("perfbench: binary printed no result line")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in declared] != list(result["metrics"]):
        sys.stdout.write(proc.stdout)
        log("perfbench: binary metrics do not match BENCHMARK.json")
        return 1
    result["correct"] = bool(result["correct"]) and lint_ok
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
