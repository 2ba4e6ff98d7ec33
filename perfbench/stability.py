#!/usr/bin/env python3
"""Stability record for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, for every end-to-end metric, the median, the first
and third quartiles (Python's statistics.quantiles, n=4), and the
quartile spread as a share of the median next to the metric's bound.
It also checks that every run was correct and that distinct seeds gave
distinct output digests.

    python3 perfbench/stability.py [--seeds 10] [--workloads a,b] [--trace]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), None)
    return result, digest, elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in names:
        values = {m["name"]: [] for m in metrics}
        digests = []
        longest = 0.0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, digest, elapsed = run_once(bench, workload, seed, args.trace)
            longest = max(longest, elapsed)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                ok = False
            digests.append(digest)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        distinct = len(set(digests)) == len(digests)
        ok &= distinct
        print(f"\n{workload}: {args.seeds} seeds, distinct digests: {distinct}, "
              f"longest run {longest:.1f} s")
        print("| metric | median | q1 | q3 | (q3-q1)/median | bound |")
        print("|---|---|---|---|---|---|")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = " (above a third of the bound)"
                ok = False
            b = "" if bound is None else f"{bound}"
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f}{flag} | {b} |")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
