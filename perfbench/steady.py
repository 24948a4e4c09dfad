#!/usr/bin/env python3
"""Steadiness mode: runs each workload N times with distinct seeds,
alternating the order of the workloads from one repetition to the next,
and prints every end-to-end metric's median, quartiles and spread against
the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workloads serve --first-seed 100
    python3 perfbench/steady.py --runs 10 --traced        # + tracing overhead

Run it from the repository root. The spread is the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median; a metric is steady when its spread is within its bound. With
--traced, one traced run per workload follows and its end-to-end values
are compared with the untraced medians: the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

TRACED_PREFIX = "traced-e2e "


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    traced = None
    for line in lines:
        if line.startswith(TRACED_PREFIX):
            traced = json.loads(line[len(TRACED_PREFIX):])
    return result, traced, wall, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    shares = {w: set() for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            seed = args.first_seed + i
            result, _, wall, lines = run_once(cmd, w, seed, seconds, 0)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: a check failed:\n" + "\n".join(lines[-6:]))
            walls[w].append(wall)
            shares[w].add((result["failed"], result["attempted"]))
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"run {i + 1}/{args.runs} {w:<9} seed {seed:<4} {wall:5.1f}s "
                  + " ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m in bounds),
                  flush=True)

    print()
    print(f"{'workload':<9} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'steady':>6}")
    for w in workloads:
        for m, bound in bounds.items():
            v = values[w][m]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            ok = "yes" if spread <= bound else ("n/a" if m == "setup_s" else "NO")
            print(f"{w:<9} {m:<32} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>7.3f} {bound:>6.2f} {ok:>6}")
        failed = sorted(f / a for f, a in shares[w])
        print(f"{w:<9} failed share {failed}; wall per run "
              f"{min(walls[w]):.1f}-{max(walls[w]):.1f}s")

    if args.traced:
        print()
        print(f"{'workload':<9} {'metric':<32} {'untraced':>12} {'traced':>12} {'overhead':>9}")
        for w in workloads:
            _, traced, _, _ = run_once(cmd, w, args.first_seed, seconds, 1)
            for m in bounds:
                med = statistics.median(values[w][m])
                t = traced[m]["value"]
                print(f"{w:<9} {m:<32} {med:>12.5g} {t:>12.5g} {(t / med - 1):>+9.1%}")


if __name__ == "__main__":
    main()
