"""Benchmark of ighit: one workload, one seed, one process.

    python3 bench/run.py --workload {verify,evaluate,sample} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ighit is imported from its src/ directory.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 the run is traced and the metrics are
the per-layer ones.  The end-to-end timings are scaled to the reference host
speed that bench/speed.py measures around each timed unit; the raw timings
and the per-part throughputs go to standard error.  See bench/README.md for the
workloads, references and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools are capped at one thread, so a run uses one core
# whatever the host's core count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 15


def setup_probes(checkpoints) -> list:
    """(start, seconds) of set-up in fresh interpreters (import plus cache warm-up)."""
    probes = []
    checkpoints.take()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        start, seconds = proc.stdout.strip().splitlines()[-1].split()
        probes.append((float(start), float(seconds)))
        checkpoints.take()
    return probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "evaluate", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ighit" / "__init__.py").is_file():
        print(f"bench: no ighit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the run and its child processes share one core, so that the speed
    # checkpoints measure the core that the timed work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(BENCH)]
    import speed
    checkpoints = None if args.trace else speed.Checkpoints()
    probes = [] if args.trace else setup_probes(checkpoints)
    import setup_probe
    setup_probe.setup()
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    rounds = (workloads.TRACED_ROUNDS[args.workload] if args.trace
              else workloads.rounds_for(args.workload, args.seconds))
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, rounds, checkpoints, ROOT)
    finally:
        if tracer is not None:
            tracer.uninstall()
    import checks
    attempted, failed, correct = checks.judge(result.ops)

    raw_round_s = statistics.fmean(sum(s for _, s in spans) for spans in result.rounds)
    detail = {workloads.PART_RATES[kind]: {"value": n / s, "unit": "1/s"}
              for kind, (n, s) in sorted(result.parts.items()) if s > 0}
    if args.workload == "verify":
        detail["verify_s"] = {"value": raw_round_s, "unit": "s"}
    side = {"rounds": len(result.rounds), "raw_round_s": raw_round_s,
            "measured_s": raw_round_s * len(result.rounds), "detail": detail}
    if tracer is not None:
        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        round_s = statistics.fmean(checkpoints.normalised(spans) for spans in result.rounds)
        side.update(raw_setup_s=statistics.median(s for _, s in probes),
                    kernel_s=statistics.fmean(s for _, s in checkpoints.points))
        metrics = {
            "setup_s": {"value": statistics.median(checkpoints.normalised([p]) for p in probes),
                        "unit": "s"},
            "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MB"},
            "round_s": {"value": round_s, "unit": "s"},
        }
    print(json.dumps(side), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
