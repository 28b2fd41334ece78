#!/usr/bin/env python3
"""Compares two checkouts on the end-to-end benchmark in alternating pairs.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        [--workloads scifi_batch,swifi_archive] [--pairs 10] [--seed 1] \
        [--seconds 35] [--json out.json]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, one after the other; the side that runs
first alternates from pair to pair, so drift on the host (thermal state,
other load) falls on both sides alike. For every end-to-end metric that
BENCHMARK.json declares, the table gives each side's median and quartiles,
the number of pairs the change won, the change of the medians, and a verdict:

  unresolved  the parent's interquartile range exceeds the metric's bound,
              so these runs cannot tell a bounded regression from noise
  WORSE       the change's median is worse than the parent's by more than
              the bound
  gain        the change's median is better by more than the parent's IQR
              and the change won at least 9 of 10 pairs
  ok          none of the above

Bounds and the better direction come from the change checkout's
BENCHMARK.json. Every run must report correct=true with 0 failed
operations; any that does not is listed and the script exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout, workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=checkout, capture_output=True,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "failed": -1, "metrics": {},
                "error": result.stderr[-2000:]}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric, parent, change):
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))
    delta = (c_med - p_med) / p_med if p_med else 0.0
    worse = -delta if higher else delta
    iqr = p_q3 - p_q1
    if p_med and iqr / p_med > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "WORSE"
    elif abs(c_med - p_med) > iqr and worse < 0 and wins * 10 >= 9 * len(parent):
        verdict = "gain"
    else:
        verdict = "ok"
    return {"parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "wins": wins, "delta": delta, "verdict": verdict}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    sides = {"parent": args.parent, "change": args.change}
    raw = {}
    bad = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                result = run_bench(sides[side], workload, args.seed,
                                   args.seconds)
                runs[side].append(result)
                if not result.get("correct") or result.get("failed") != 0:
                    bad.append(f"{workload} pair {pair} {side}")
                print(f"# {workload} pair {pair + 1}/{args.pairs} {side} done",
                      file=sys.stderr, flush=True)
        raw[workload] = runs

        print(f"\n{workload} (seed {args.seed}, {args.pairs} pairs, "
              f"{args.seconds:g} s runs)")
        print(f"{'metric':<12} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>6} {'delta':>8}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                parent = [r["metrics"][name]["value"] for r in runs["parent"]]
                change = [r["metrics"][name]["value"] for r in runs["change"]]
            except KeyError:
                print(f"{name:<12} missing from some runs")
                continue
            row = compare(metric, parent, change)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{name:<12} {fmt(row['parent']):>32} "
                  f"{fmt(row['change']):>32} "
                  f"{row['wins']:>3}/{len(parent):<2} {row['delta']:>+8.1%}  "
                  f"{row['verdict']}")

    if args.json:
        args.json.write_text(json.dumps(raw, indent=1))
    if bad:
        print("\nruns not correct or with failed operations: " + ", ".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
