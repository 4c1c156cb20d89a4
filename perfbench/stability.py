#!/usr/bin/env python3
"""Runs one perfbench workload k times, each with another seed, and
prints the median, quartiles, min and max of every metric, with the
quartile spread as a share of the median (the figure `BENCHMARK.json`'s
bounds are set against) and the share of failed operations.

    python3 perfbench/stability.py --workload plan --runs 10 [--first-seed 1]

Run it from the repository root. Each run lasts the `run_seconds` of
`BENCHMARK.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        results.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}"
          f" {'min':>12} {'max':>12}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bounds[name]:>6} {min(values):12.6g} {max(values):12.6g}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share: {shares}; all correct: {all(r['correct'] for r in results)}")


if __name__ == "__main__":
    main()
