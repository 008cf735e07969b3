#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on one workload with several seeds
and prints each metric's median and quartile spread (as a share of the
median) next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload bulk_reduce --runs 10 [--trace 0]

Run from the root of a checkout. A spread above a third of its bound means
the metric is not steady enough to gate on.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable] + bench["command"][1:] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = benchlib.median(vals)
        spread = benchlib.quartile_spread(vals) if len(vals) >= 2 and med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:32s} median {med:14.4f}  spread {spread:7.4f}  bound {bound}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
