#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads build,refresh,serve --seeds 1-10

Runs the command in BENCHMARK.json once per (workload, seed), from the
repository root, and prints for every metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound. Writes the raw results
as JSON with ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="build,refresh,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    results = {}
    ok = True
    for workload in args.workloads.split(","):
        rows = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            if run.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(run.stderr)
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}")
            row = json.loads(last)
            ok &= row["correct"] and row["failed"] == 0
            rows.append(row)
            values = " ".join(
                f"{k}={v['value']:.4g}" for k, v in row["metrics"].items()
            )
            print(f"{workload} seed={seed} correct={row['correct']} {values}", flush=True)
        results[workload] = rows
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(
                f"  {workload:8} {name:14} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                f"spread={spread:.4f} bound={bound} {verdict}"
            )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
