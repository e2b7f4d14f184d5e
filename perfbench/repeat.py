"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload sweep --seeds 1-10 [--seconds 20] [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, and prints for every
metric the median, the quartiles (statistics.quantiles, n=4) and the spread
(interquartile range over median), plus the failed share of attempted
commands. The runs' result lines are appended to perfbench/_work/repeat.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
            args.seconds = json.load(f)["run_seconds"]

    results = []
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(os.path.join(HERE, "_work", "repeat.jsonl"), "a", encoding="utf-8") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.5g}"
                                           for k, m in result["metrics"].items()), flush=True)

    print(f"{args.workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed/attempted={sorted({r['failed'] / r['attempted'] for r in results})}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:24s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
