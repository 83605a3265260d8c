#!/usr/bin/env python3
"""Layer microbenchmark: sampler, special-function, table and residual throughput at fixed sizes.

    python scripts/bench_layers.py [--src DIR]
    python scripts/bench_layers.py --baseline ROOT --out BENCH_N.json

The first form times each layer in LAYERS for the ighit under --src (default:
this checkout's src/) and prints one JSON object: per layer its item count,
the median and every one of REPEAT timed calls after one warm-up call, items
per second at the median, and the minor page faults (`ru_minflt`) of each
timed call with their median, which show the memory traffic of fresh
allocations.  The process uses one core and one BLAS thread, as bench/run.py
does.

The second form compares this checkout with another one at ROOT (for example
a clone of the commit before a change).  For each of PAIRS pairs, with the
order of the two sides alternating, it runs the first form for both
checkouts in fresh interpreters, then times each of PROCESSES whole (a
bare `import ighit` and five `python -m ighit` commands, in a scratch
directory, the median of REPEAT runs on one core), then `bench/run.py --workload W --seed 101+pair --seconds S` in
each checkout for every workload W and the run length S that BENCHMARK.json
declares.  It writes one JSON file with the host's core count and Python and
numpy versions, every layer timing, every process time, every benchmark run
(its last standard-output line and its standard-error detail line), and per
side the median and quartiles of each metric, with the number of pairs in
which the checkout read lower.  A comparison takes about 25 minutes on a
2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5
PAIRS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def box_points(np, n: int) -> list:
    """n fixed (delta, gamma, t, x) from the parameter box of bench/box.py.

    delta uniform on (0.5, 2); gamma 0 with probability 1/4, else uniform on
    (0.5, 3); t log-uniform on (0.25, 4); x uniform below (gamma t + 5 sqrt(t))/delta.
    """
    rng = np.random.default_rng(10)
    d = rng.uniform(0.5, 2.0, n)
    g = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.5, 3.0, n))
    t = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n))
    x = rng.uniform(0.0, 1.0, n) * (g * t + 5.0 * np.sqrt(t)) / d
    return list(zip(d.tolist(), g.tolist(), t.tolist(), x.tolist()))


def convolution_tables(ig, np) -> list:
    """The Levy-tail convolution oracle at the points `ighit verify` gives it:
    density_two_routes' 15 (delta = gamma = 1, x in {0.25, 0.5, 1, 2, 4} at
    t in {0.5, 1, 2}) and pde_ts_n2's 5 (index 1/2, mu = 1, the corners and
    centre of its box), one call per t.
    """
    # IGParams is the IG model; --baseline checkouts older than that need the
    # IGSubordinator wrapper, which they still define
    ig_model = getattr(ig, "IGSubordinator", lambda p: p)(ig.IGParams(1.0, 1.0))
    ts_model = ig.TemperedStableSubordinator(0.5, 1.0)
    sets = [(ig_model, t, [0.25, 0.5, 1.0, 2.0, 4.0]) for t in (0.5, 1.0, 2.0)]
    sets += [(ts_model, 0.7, [0.4, 1.0]), (ts_model, 1.1, [0.4, 1.0]), (ts_model, 0.9, [0.7])]
    return [ig.hit_pdf_convolution(np.array(xs), t, model) for model, t, xs in sets]


# name, items per call, call(ig, np, rng, n).  The density layers pass their
# IGParams through HittingDensityEval/SubordinatedEval because --baseline runs
# these calls against older checkouts too, whose density functions take only
# that wrapper.
LAYERS = (
    # the sample workload's call shape: estimate_moment asks the sampler for
    # chunks of 65,536 draws, 64 of them here.  It runs first because a larger
    # allocation before it (the next layer's 2^20 draws) raises the C
    # allocator's mmap and trim thresholds, after which its chunks reuse the
    # heap without the page faults the workload's process pays
    ("ts_moment_third_chunked", 1 << 22,
     lambda ig, np, rng, n: ig.estimate_moment(
         lambda m, r: ig.ts_sample(1.0, 1.0 / 3.0, 1.0, r, size=m), 1.0, n,
         int(rng.integers(1 << 30)))),
    ("ts_sample_third_mu1", 1 << 20,
     lambda ig, np, rng, n: ig.ts_sample(1.0, 1.0 / 3.0, 1.0, rng, size=n)),
    ("ts_sample_0.7_mu1", 1 << 20,
     lambda ig, np, rng, n: ig.ts_sample(1.0, 0.7, 1.0, rng, size=n)),
    ("stable_sample_half", 1 << 20,
     lambda ig, np, rng, n: ig.stable_sample(1.0, 0.5, rng, size=n)),
    ("stable_sample_third", 1 << 20,
     lambda ig, np, rng, n: ig.stable_sample(1.0, 1.0 / 3.0, rng, size=n)),
    ("stable_sample_0.7", 1 << 20,
     lambda ig, np, rng, n: ig.stable_sample(1.0, 0.7, rng, size=n)),
    ("sample_hitting_times", 10 ** 6,
     lambda ig, np, rng, n: ig.sample_hitting_times(1.0, n, ig.IGParams(1.0, 1.0),
                                                    1.0 / 1024.0, int(rng.integers(1 << 30)))),
    ("erfcx", 10 ** 6,
     lambda ig, np, rng, n: ig.erfcx(np.linspace(-5.0, 30.0, n))),
    # about one hit_pdf_table column of sub_pdf_table's v-rule (96 panels of
    # 12 nodes), a size where per-call overhead outweighs per-point cost
    ("erfcx_rule", 1164,
     lambda ig, np, rng, n: ig.erfcx(np.linspace(0.0, 6.0, n))),
    ("ig_cdf", 10 ** 6,
     lambda ig, np, rng, n: ig.ig_cdf(np.linspace(1e-3, 10.0, n), 1.0, ig.IGParams(1.0, 1.0))),
    # the IG density on the fine grid of the pde_frac_ig record (192 x 131)
    ("ig_pdf_table", 192 * 131,
     lambda ig, np, rng, n: ig.ig_pdf((np.arange(1, 193) / 128.0)[:, None],
                                      0.5 + np.arange(-1, 130) / 256.0, ig.IGParams(1.0, 0.0))),
    # `ighit paths` at its defaults (T = 5, dt = 0.001: a first piece of
    # 10,000 steps), and a tempered stable path of mean rate 5e-4 that
    # doubles its pieces to about 204,800 steps before it passes T = 1.  The
    # IG model is IGParams itself, wrapped in IGSubordinator where an older
    # --baseline checkout still defines it (its hitting_path tests for it)
    ("hitting_path_ig", 1,
     lambda ig, np, rng, n: ig.hitting_path(
         getattr(ig, "IGSubordinator", lambda p: p)(ig.IGParams(1.0, 1.0)), 5.0, 0.001, rng)),
    ("hitting_path_ts_extend", 1,
     lambda ig, np, rng, n: ig.hitting_path(ig.TemperedStableSubordinator(0.5, 1e6),
                                            1.0, 0.01, rng)),
    # the kernels of the index-1/3 tempered-stable Levy tail (upper_gamma: the
    # series below x = 1, the continued fraction above) and stable density
    ("upper_gamma_minus_third", 10 ** 4,
     lambda ig, np, rng, n: ig.upper_gamma(-1.0 / 3.0, np.logspace(-3.0, 2.0, n))),
    ("bessel_k_third", 10 ** 3,
     lambda ig, np, rng, n: ig.bessel_k(1.0 / 3.0, np.logspace(-3.0, 2.0, n))),
    # the scalar oracle as the evaluate workload queries it, the Levy-tail
    # convolution oracle as the verify battery does, and the exact index-1/3
    # stable hitting density, whose kernel is bessel_k
    ("hit_pdf_integral", 1000,
     lambda ig, np, rng, n: [ig.hit_pdf_integral(x, t, ig.HittingDensityEval(ig.IGParams(d, g)))
                             for d, g, t, x in box_points(np, n)]),
    ("hit_pdf_convolution", 20, lambda ig, np, rng, n: convolution_tables(ig, np)),
    ("stable_hit_pdf_third", 256,
     lambda ig, np, rng, n: ig.stable_hit_pdf(np.linspace(0.05, 20.0, n), 1.0, 1.0 / 3.0)),
    # the general-index stable density on u in [0.3, 70], where an inversion
    # route also runs (`ighit stable --beta 0.7` maps x in [0.05, 2.45] there),
    # and the index-1/3 stable distribution function
    ("stable_pdf_0.7", 400,
     lambda ig, np, rng, n: ig.stable_pdf(np.geomspace(0.3, 70.0, n), 1.0, 0.7)),
    ("stable_cdf_third", 100,
     lambda ig, np, rng, n: ig.stable_cdf(np.geomspace(0.05, 50.0, n), 1.0, 1.0 / 3.0)),
    # Kanter's rule near index 1 (0.999), far in the tail (w about 1e5)
    ("stable_cdf_0.999", 64,
     lambda ig, np, rng, n: ig.stable_cdf(np.linspace(0.9e5, 1.1e5, n), 1.0, 0.999)),
    # and nearer (0.9999) in the bulk, where Kanter's panel edges took
    # powers of 4 beyond the float range
    ("stable_cdf_0.9999", 200,
     lambda ig, np, rng, n: ig.stable_cdf(np.linspace(0.2, 3.0, n), 1.0, 0.9999)),
    ("hit_pdf_table", 256,
     lambda ig, np, rng, n: ig.hit_pdf_table(np.linspace(0.0, 4.0, n), 1.0,
                                             ig.HittingDensityEval(ig.IGParams(1.0, 1.0)))),
    ("sub_pdf_table", 256,
     lambda ig, np, rng, n: ig.sub_pdf_table(np.linspace(-4.0, 4.0, n), 1.0,
                                             ig.SubordinatedEval(ig.IGParams(1.0, 1.0)))),
    # the fine levels of the pde_subordinated (63 x 27, gamma 1) and
    # pde_frac_subordinated (131 x 96, gamma 0) grids, whose times span
    # several cutoffs, and the driftless hitting table on pde_frac_hitting's
    # fine grid (323 x 128)
    ("sub_pdf_table_pde_grid", 63 * 27,
     lambda ig, np, rng, n: ig.sub_pdf_table(0.3 + np.arange(-2, 61) / 48.0,
                                             0.5 + np.arange(-1, 26) / 48.0,
                                             ig.SubordinatedEval(ig.IGParams(1.0, 1.0)))),
    ("sub_pdf_table_frac_grid", 131 * 96,
     lambda ig, np, rng, n: ig.sub_pdf_table(0.25 + np.arange(-1, 130) / 128.0,
                                             np.arange(1, 97) / 128.0,
                                             ig.SubordinatedEval(ig.IGParams(1.0, 0.0)))),
    ("hit_pdf_table_driftless_grid", 323 * 128,
     lambda ig, np, rng, n: ig.hit_pdf_table((0.25 + np.arange(-1, 322) / 256.0)[:, None],
                                             np.arange(1, 129)[None, :] / 128.0,
                                             ig.HittingDensityEval(ig.IGParams(1.0, 0.0)))),
    # the tempered-stable hitting table at indices 0.7 and 0.2 (the widest
    # unit-law ladder) on an 80 x 30 grid, and at index 1/3 on both
    # refinement levels of the pde_ts_n3_sign record's grid
    ("ts_hit_table_0.7", 80 * 30,
     lambda ig, np, rng, n: ig.ts_hit_pdf_table(np.linspace(0.05, 4.0, 80),
                                                np.linspace(0.1, 3.0, 30), 0.7, 1.0)),
    ("ts_hit_table_0.2", 80 * 30,
     lambda ig, np, rng, n: ig.ts_hit_pdf_table(np.linspace(0.05, 4.0, 80),
                                                np.linspace(0.1, 3.0, 30), 0.2, 1.0)),
    ("ts_hit_table_third_ts3", 9 * 6 + 13 * 9,
     lambda ig, np, rng, n: [ig.ts_hit_pdf_table(0.5 + h * np.arange(-2, nx + 3),
                                                 0.6 + h * np.arange(-1, nt + 2), 1.0 / 3.0, 1.0)
                             for h, nx, nt in ((1.0 / 8.0, 4, 3), (1.0 / 16.0, 8, 6))]),
    # the grids of the pde_ts_n3_sign (PDE_BOXES["ts3"], both signs),
    # pde_subordinated, pde_frac_hitting, pde_frac_ig, pde_frac_subordinated
    # and (numeric transform) pde_pseudo_lt records of `ighit verify`: one
    # residual each
    ("residual_ts_n3", 1,
     lambda ig, np, rng, n: ig.residual_ts_pde(
         3, 1.0, ig.GridBox(0.5, 1.0, 0.6, 1.0, 1.0 / 8.0, 1.0 / 8.0))),
    ("residual_subordinated", 1,
     lambda ig, np, rng, n: ig.residual_subordinated(
         ig.IGParams(1.0, 1.0), ig.GridBox(0.3, 1.5, 0.5, 1.0, 1.0 / 24.0, 1.0 / 24.0))),
    ("residual_frac_hitting", 1,
     lambda ig, np, rng, n: ig.residual_frac_hitting(
         ig.GridBox(0.25, 1.5, 0.3, 1.0, 1.0 / 256.0, 1.0 / 64.0))),
    ("residual_frac_ig", 1,
     lambda ig, np, rng, n: ig.residual_frac_ig(
         ig.GridBox(0.3, 1.5, 0.5, 1.0, 1.0 / 64.0, 1.0 / 256.0))),
    ("residual_subordinated_frac", 1,
     lambda ig, np, rng, n: ig.residual_subordinated_frac(
         ig.GridBox(0.25, 1.25, 0.3, 0.75, 1.0 / 128.0, 1.0 / 64.0))),
    ("residual_pseudo_lt_numeric", 1,
     lambda ig, np, rng, n: ig.residual_pseudo_lt(
         ig.IGParams(1.0, 1.0), [0.5, 1.0], [0.5, 0.9], source="numeric")),
)


# whole processes, as a user starts them: a bare import, and the commands at
# their default flags (density and cdf require a --t)
PROCESSES = (
    ("import", ["-c", "import ighit"]),
    ("verify", ["-m", "ighit", "verify"]),
    ("density", ["-m", "ighit", "density", "--t", "1"]),
    ("cdf", ["-m", "ighit", "cdf", "--t", "1"]),
    ("moments", ["-m", "ighit", "moments"]),
    ("stable", ["-m", "ighit", "stable"]),
)


def one_core() -> None:
    """Run this process, and the BLAS pools numpy starts, on a single core."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_layers(src: Path) -> dict:
    one_core()
    sys.path.insert(0, str(src))
    import numpy as np
    import ighit as ig
    if not Path(ig.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench_layers: imported ighit from {ig.__file__}, not from {src}")

    out = {}
    for name, n, call in LAYERS:
        rng = np.random.default_rng(2024)
        call(ig, np, rng, n)
        runs, faults = [], []
        for _ in range(REPEAT):
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            call(ig, np, rng, n)
            runs.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
        median = statistics.median(runs)
        out[name] = {"items": n, "median_s": median, "runs_s": runs, "per_s": n / median,
                     "minflt": statistics.median(faults), "runs_minflt": faults}
    return out


def time_processes(src: Path) -> dict:
    """Median wall seconds, over REPEAT runs, of each of PROCESSES in a fresh
    interpreter importing ighit from src.

    The processes run on one core with one BLAS thread, as bench/run.py's do,
    and write their outputs into a scratch directory.
    """
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(THREAD_VARS, "1")}
    core = {min(os.sched_getaffinity(0))}
    out = {}
    with tempfile.TemporaryDirectory(prefix="bench_layers_") as tmp:
        for name, argv in PROCESSES:
            runs = []
            for _ in range(REPEAT):
                start = time.perf_counter()
                subprocess.run([sys.executable, *argv], cwd=tmp, env=env, check=True,
                               capture_output=True,
                               preexec_fn=lambda: os.sched_setaffinity(0, core))
                runs.append(time.perf_counter() - start)
            out[name] = statistics.median(runs)
    return out


def host() -> dict:
    import numpy as np
    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def compare(baseline: Path) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    sides = {"baseline": baseline.resolve(), "current": ROOT}
    layers = {side: [] for side in sides}
    processes = {side: [] for side in sides}
    runs = {w: {side: [] for side in sides} for w in workloads}
    for pair in range(PAIRS):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        seed = 101 + pair
        for side in order:
            proc = subprocess.run(
                [sys.executable, __file__, "--src", str(sides[side] / "src")],
                capture_output=True, text=True, check=True)
            layers[side].append(json.loads(proc.stdout))
        for side in order:
            processes[side].append(time_processes(sides[side] / "src"))
        for workload in workloads:
            for side in order:
                proc = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds)],
                    cwd=sides[side], capture_output=True, text=True, check=True)
                runs[workload][side].append({
                    "seed": seed, "first": side == order[0],
                    "result": json.loads(proc.stdout.strip().splitlines()[-1]),
                    "detail": json.loads(proc.stderr.strip().splitlines()[-1])})
                print(workload, seed, side,
                      runs[workload][side][-1]["result"]["metrics"]["round_s"]["value"],
                      file=sys.stderr)
    summary = {}
    for workload, by_side in runs.items():
        metrics = by_side["baseline"][0]["result"]["metrics"]
        summary[workload] = {name: {side: quartiles([r["result"]["metrics"][name]["value"]
                                                     for r in by_side[side]])
                                    for side in sides}
                             for name in metrics}
        for name in metrics:
            summary[workload][f"{name}_lower_pairs"] = sum(
                c["result"]["metrics"][name]["value"] < b["result"]["metrics"][name]["value"]
                for b, c in zip(by_side["baseline"], by_side["current"]))
        summary[workload]["all_correct"] = all(
            r["result"]["correct"] and r["result"]["failed"] == 0
            for side in sides for r in by_side[side])
    layer_summary = {side: {name: quartiles([run[name]["median_s"] for run in layers[side]])
                            for name, _, _ in LAYERS}
                     for side in sides}
    fault_summary = {side: {name: quartiles([run[name]["minflt"] for run in layers[side]])
                            for name, _, _ in LAYERS}
                     for side in sides}
    process_summary = {side: {name: quartiles([run[name] for run in processes[side]])
                              for name, _ in PROCESSES}
                       for side in sides}
    process_summary["lower_pairs"] = {
        name: sum(c[name] < b[name] for b, c in zip(processes["baseline"], processes["current"]))
        for name, _ in PROCESSES}
    return {"host": host(), "pairs": PAIRS, "seconds": seconds,
            "layers": {"summary_s": layer_summary, "summary_minflt": fault_summary,
                       "runs": layers},
            "processes": {"summary_s": process_summary, "runs": processes},
            "workloads": {"summary": summary, "runs": runs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.baseline is None:
        print(json.dumps(time_layers(args.src)))
        return 0
    if args.out is None:
        parser.error("--baseline needs --out")
    report = compare(args.baseline)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
