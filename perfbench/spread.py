#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 4 5 --seconds 20 [--trace 1]

Spread is (Q3 - Q1) / median with quartiles as statistics.quantiles(n=4)
gives them, the statistic a metric's bound in BENCHMARK.json is held to.
Each seed's final result line is appended to --log as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log", default=os.path.join(HERE, "out", "spread.jsonl"))
    args = ap.parse_args()
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    values: dict[str, list] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(args.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "trace": args.trace, **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: checks failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in
                                           result["metrics"].items() if m["value"] is not None),
              flush=True)
    if len(args.seeds) >= 2:
        for name, vals in values.items():
            if None not in vals:
                s = spread(vals)
                print(f"{name:45s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
