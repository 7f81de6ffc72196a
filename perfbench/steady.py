#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and report, for
every end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--first-seed 100] [--workload NAME]

Each run is a fresh process of `run.py` with seed first-seed + i.  A
metric is marked steady when its spread is under a third of its bound,
and the command exits 1 when one is not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    status = 0
    for name in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{name} seed {seed}: " + json.dumps(result), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n== {name}: correct={correct} failed share={sorted(shares)}")
        status |= 0 if correct and len(shares) == 1 else 1
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = spread(values)
            ok = s < bound / 3
            status |= 0 if ok else 1
            print(f"  {metric:16s} median {statistics.median(values):12.6g}  "
                  f"spread {s:7.2%}  bound {bound:.0%}  {'ok' if ok else 'UNSTEADY'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
