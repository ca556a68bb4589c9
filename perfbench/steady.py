#!/usr/bin/env python3
"""Steadiness check for the benchmark: run every workload untraced under
several seeds, in two sets of runs taken in turn, and report for every
end-to-end metric of each set the median, the quartiles, and the quartile
spread as a share of the median next to the metric's bound, then how far the
second set's median moved from the first's in the worse direction.

Run from the repository root after building the benchmark once:

    python3 perfbench/steady.py --runs 10

Set 1 uses seeds 1..runs and set 2 seeds 101..100+runs; the runs alternate
between the sets and the workloads, so both sets see the same phases of a
shared machine. The benchmark binary is taken from $CARGO_TARGET_DIR (default
perfbench/target)/release/perfbench. Results go to standard output: a table
per workload and set, one JSON object per workload and set, and the
comparison of the sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SET_SEEDS = [1, 101]


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    ).stdout
    lines = out.strip().splitlines()
    for line in lines:
        if line.startswith("# env load"):
            print(f"  {workload} seed {seed} {line[6:]}", file=sys.stderr)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(workload, first_seed, runs, values, bounds):
    print(f"== {workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
    summary = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound, "values": vs}
        flag = ""
        if spread > bound:
            flag = "  <-- above its bound"
        elif spread > bound / 3:
            flag = "  <-- above a third of its bound"
        print(f"  {name:<28} median {med:14.6f}  q1 {q1:14.6f}  q3 {q3:14.6f}"
              f"  spread {spread:7.4f}  bound {bound}{flag}")
    print(json.dumps({"workload": workload, "first_seed": first_seed,
                      "summary": summary}))
    return summary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    target_dir = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = os.path.join(target_dir, "release", "perfbench")

    values = {(w, s): {} for w in workloads for s in SET_SEEDS}
    for i in range(args.runs):
        for workload in workloads:
            for first in SET_SEEDS:
                metrics = run(binary, workload, first + i, spec["run_seconds"])
                for name, value in metrics.items():
                    values[(workload, first)].setdefault(name, []).append(value)

    for workload in workloads:
        medians = [summarise(workload, first, args.runs,
                             values[(workload, first)], bounds)
                   for first in SET_SEEDS]
        print(f"== {workload}: set 2 against set 1")
        for name, bound in bounds.items():
            a, b = medians[0][name]["median"], medians[1][name]["median"]
            worse = (a - b if better[name] == "higher" else b - a) / a if a else 0.0
            flag = "  <-- worse by more than its bound" if worse > bound else ""
            print(f"  {name:<28} set 1 {a:14.6f}  set 2 {b:14.6f}"
                  f"  worse by {worse:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
