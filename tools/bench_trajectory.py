#!/usr/bin/env python3
"""Alternating parent/change perfbench runs folded into one BENCH_<n>.json.

    python3 tools/bench_trajectory.py --parent <rev> --out BENCH_<n>.json \\
        [--pairs 10] [--workdir <dir>]

Run from anywhere inside the repository.  The change is the working tree;
the parent revision is exported with `git archive` into a new directory
under --workdir (default: the system temp dir), so reusing a workdir never
collides with an earlier export.  For each of the three BENCHMARK.json
workloads, pair i runs
`perfbench/run.py --workload W --seed i --seconds <run_seconds> --trace 0`
once in each tree, parent first on even pairs and change first on odd ones,
so slow drift in host load hits both sides alike.  Each tree builds its own
perfbench once (the first run of each tree pays the build).

The output records, per workload and side, every end-to-end metric's
per-run values, median, quartiles and IQR; how many pairs the change won
per metric (by the metric's "better" direction in BENCHMARK.json); the
"correct" flags; and the host load average before each run.  Wall-clock
numbers are tracked, never gated: nothing here fails on a slower run.
Only the standard library is used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export_tree(root, rev, workdir):
    """Writes revision `rev` of the repository at `root` into a new directory
    under `workdir` and returns its path."""
    os.makedirs(workdir, exist_ok=True)
    dest = tempfile.mkdtemp(prefix="parent-", dir=workdir)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return dest


def cpu_model():
    """The CPU model name from /proc/cpuinfo, or the machine type elsewhere."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value gives three equal numbers."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_perfbench(tree, workload, seed, seconds):
    """One perfbench invocation; returns (result dict or None, load average before it)."""
    load = list(os.getloadavg())
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except json.JSONDecodeError:
        result = None
    return result, load


def summarize(runs, metrics):
    out = {}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in runs if r is not None]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True, help="output JSON path")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    ap.add_argument("--workdir", help="where the parent export goes (default: the temp dir)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    declared = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    trees = {"parent": export_tree(root, args.parent, args.workdir or tempfile.gettempdir()),
             "change": root}

    report = {
        "parent": git(root, "rev-parse", args.parent),
        "change": "working tree",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "cpu": cpu_model()},
        "seconds": seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in workloads:
        runs = {"parent": [], "change": []}
        loads = {"parent": [], "change": []}
        seeds = list(range(args.pairs))
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                log(f"bench_trajectory: {workload} pair {i + 1}/{args.pairs} seed {seed}: {side}")
                result, load = run_perfbench(trees[side], workload, seed, seconds)
                runs[side].append(result)
                loads[side].append(load)
        entry = {"seeds": seeds, "repetitions": args.pairs}
        for side in ("parent", "change"):
            entry[side] = {
                "metrics": summarize(runs[side], declared),
                "correct": [r is not None and bool(r["correct"]) for r in runs[side]],
                "failed_runs": sum(r is None for r in runs[side]),
                "loadavg_1_5_15": loads[side],
            }
        wins = {}
        for name, better in declared.items():
            won = 0
            for p, c in zip(runs["parent"], runs["change"]):
                if p is None or c is None:
                    continue
                pv, cv = p["metrics"][name]["value"], c["metrics"][name]["value"]
                won += (cv < pv) if better == "lower" else (cv > pv)
            wins[name] = won
        entry["change_better_pairs"] = wins
        report["workloads"][workload] = entry
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    log(f"bench_trajectory: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
