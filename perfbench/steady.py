"""Steadiness report: run one workload under several seeds and print
each end-to-end metric's median, quartiles and spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload faults --runs 10

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; it
is compared with a third of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {k: [] for k in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of "
                  f"{result['attempted']} operations failed")
        line = [f"seed {seed:>3}"]
        for k in bounds:
            values[k].append(result["metrics"][k]["value"])
            line.append(f"{k}={values[k][-1]:.6g}")
        print("  ".join(line), flush=True)
    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for k, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds[k] / 3 else "  WIDE"
        print(f"{k:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bounds[k] / 3:>8.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
