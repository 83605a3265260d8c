"""Run one workload over several seeds and report each metric's quartiles.

    python3 bench/spread.py --workload evaluate --seeds 1-10 [--seconds 20] [--trace 0]

Runs bench/run.py once per seed, one after another, from the checkout root,
and prints per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, plus the failed share of each run and the
medians and spreads of the raw timings and per-part throughputs the runs print
on standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds_from(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_from, default=seeds_from("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    root = BENCH.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["side"] = next(json.loads(line) for line in reversed(proc.stderr.splitlines())
                              if line.startswith('{"rounds"'))
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - start
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']:.1f}s "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if args.trace == 0), flush=True)

    print(f"\n{args.workload}: {len(runs)} runs, {seconds:g} s each")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:<36} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
    side = {name: [r["side"][name] for r in runs] for name, value in runs[0]["side"].items()
            if isinstance(value, float)}
    side.update({name: [r["side"]["detail"][name]["value"] for r in runs]
                 for name in runs[0]["side"]["detail"]})
    for name, values in side.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        print(f"  (stderr) {name:<27} median={med:.6g} min={min(values):.6g} "
              f"max={max(values):.6g} spread={(q3 - q1) / med:.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"  failed shares: {shares}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
