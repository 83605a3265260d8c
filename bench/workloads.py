"""The three workloads: what each one asks of ighit, timed from outside.

Each workload returns the operations it attempted, with their inputs and the
program's outputs, so that checks.py can judge them against the independent
references after the measurement.  Calls go through the package namespace at
call time, so a traced run sees every one of them.
"""

from __future__ import annotations

import contextlib
import json
import math
import pickle
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import battery
import box
import ighit as ig

# rounds of a traced run; fixed so that its counts repeat exactly for a seed
TRACED_ROUNDS = {"verify": 1, "evaluate": 40, "sample": 2}
VERIFY_BATTERIES = 2

SAMPLE_DRAWS = 20_000           # one default batch of sample_hitting_times
FINE_DT = 1.0 / 1024.0
COARSE_DT = 1.0 / 64.0
TS_BETA, TS_MU, TS_T = 1.0 / 3.0, 1.0, 1.0
TS_DRAWS = 1 << 22


@dataclass
class Op:
    """One attempted operation: its kind, inputs and output (or error)."""

    kind: str
    args: dict
    fixed: bool = False         # seed-independent query with a known fault
    value: object = None
    error: str | None = None
    start: float = 0.0          # perf_counter when the call began
    seconds: float = 0.0


@dataclass
class Result:
    ops: list
    rounds: list                # (start, seconds) of each timed call, by round
    parts: dict                 # operation kind -> [items, seconds]
    peak_rss_mb: float          # of the process(es) that ran the workload


def _call(op: Op, fn, *args):
    op.start = time.perf_counter()
    try:
        op.value = fn(*args)
    except Exception as exc:  # the failure is the finding; record and go on
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - op.start
    return op


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rounds(run_round, rounds: int, checkpoints, workdir: Path, untimed_ops=()) -> Result:
    """Run `rounds` whole rounds; `untimed_ops` are checked but not timed.

    Given `checkpoints` (None in a traced run), they are taken before the
    first round, after each round and by the timer within.  Each round's
    operations are spooled to a scratch file until the checks, so that only
    the spans of the timed calls stay in memory and the peak read at the end
    of the measurement is mostly the program's own.
    """
    spans, parts = [], {}
    with contextlib.ExitStack() as stack:
        spool = stack.enter_context(tempfile.TemporaryFile(dir=workdir, prefix=".bench_tmp_"))
        if checkpoints is not None:
            checkpoints.take()
            stack.enter_context(checkpoints.timer())
        for index in range(rounds):
            ops = run_round(index)
            if checkpoints is not None:
                checkpoints.take()
            spans.append([(op.start, op.seconds) for op in ops])
            for op in ops:
                part = parts.setdefault(op.kind, [0, 0.0])
                part[0] += op.args.get("items", 1)
                part[1] += op.seconds
            pickle.dump(ops, spool)
        peak_rss_mb = _peak_rss_mb()
        spool.seek(0)
        ops = list(untimed_ops) + [op for _ in spans for op in pickle.load(spool)]
    return Result(ops, spans, parts, peak_rss_mb)


# ---------------------------------------------------------------------------
# verify: full batteries through the CLI entry point
# ---------------------------------------------------------------------------

def run_verify(seed: int, rounds: int, checkpoints, workdir: Path) -> Result:
    """Full `ighit verify` batteries, each in a fresh process, one after another.

    A fresh process per battery is what a user runs, and keeps a cache filled
    by one battery from speeding up the next.  A traced run (no `checkpoints`)
    has to patch the package, so it runs its single battery in this process.
    """
    ops = []
    with tempfile.TemporaryDirectory(dir=workdir, prefix=".bench_tmp_") as tmp:
        for index in range(rounds):
            out = Path(tmp) / f"verification_{index}.json"
            if checkpoints is None:
                value = battery.run_battery(str(out))
            else:
                proc = subprocess.run([sys.executable, battery.__file__, str(out)],
                                      capture_output=True, text=True, timeout=170)
                lines = proc.stdout.strip().splitlines()
                value = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
                    "exit_code": proc.returncode, "start": 0.0, "seconds": 0.0,
                    "stdout": "", "peak_rss_mb": 0.0}
                checkpoints.add(value.get("checkpoints", []))
            value["report"] = (json.loads(out.read_text(encoding="utf-8"))
                               if out.exists() else None)
            ops.append(Op("battery", {}, value=value, start=value["start"],
                          seconds=value["seconds"]))
    return Result(ops, [[(op.start, op.seconds)] for op in ops],
                  {"battery": [len(ops), sum(op.seconds for op in ops)]},
                  max(op.value["peak_rss_mb"] for op in ops))


# ---------------------------------------------------------------------------
# evaluate: fresh user queries
# ---------------------------------------------------------------------------

FAILING_TABLE_X = np.arange(0.0, 3.0 + 1e-9, 0.5)
FAILING_SUB_X = np.arange(-3.0, 3.0 + 1e-9, 0.5)
# (delta, gamma, t, x): a point below gamma ~ 2e-5, and a point at moderate
# gamma where the scalar route fails, found by a random draw
FAILING_POINTS = ((1.0, 1e-6, 1.0, 1.0),
                  (1.800922532974708, 0.17343985951489324, 1.0735234377212077,
                   0.1342961070399304))


def _ig_table(d, g, t, xs):
    return ig.hit_pdf_table(xs, t, ig.HittingDensityEval(ig.IGParams(d, g)))


def _sub_table(d, g, t, xs):
    return ig.sub_pdf_table(xs, t, ig.SubordinatedEval(ig.IGParams(d, g)))


def _moment(which, d, g, t, q=None):
    p = ig.IGParams(d, g)
    if which == "mean":
        return ig.hit_mean(t, p)
    if which == "second":
        return ig.hit_second_moment(t, p)
    if which == "variance":
        return ig.hit_variance(t, p)
    return ig.hit_moment(q, t, p)


def _point(d, g, t, x):
    return ig.hit_pdf_integral(x, t, ig.HittingDensityEval(ig.IGParams(d, g)))


def evaluate_round(rng) -> list:
    """The query mix of one round, its inputs drawn from rng."""
    ops = []
    n = box.TABLE_POINTS

    for _ in range(box.DENSITY_TABLES_PER_ROUND):
        d, g, t = box.draw_params(rng)
        xs = np.linspace(0.0, box.x_end(t, d, g, rng.uniform(4.0, 7.0)), n)
        args = dict(delta=d, gamma=g, t=t, xs=xs, items=n)
        ops.append(_call(Op("density_table", args), _ig_table, d, g, t, xs))

    for beta in (0.5, 1.0 / 3.0):
        t = math.exp(rng.uniform(math.log(box.T[0]), math.log(box.T[1])))
        upper = box.stable_x_end(t, beta) * rng.uniform(0.5, 1.0)
        xs, wts = box.gauss_panels(np.linspace(0.0, upper, n // 16 + 1), 16)
        args = dict(beta=beta, t=t, xs=xs, weights=wts, upper=upper, items=n)
        ops.append(_call(Op("stable_table", args), ig.stable_hit_pdf, xs, t, beta))

    d, g, t = box.draw_params(rng)
    xs = np.linspace(0.0, box.x_end(t, d, g, rng.uniform(4.0, 7.0)), n)
    args = dict(delta=d, gamma=g, t=t, xs=xs, items=n)
    ops.append(_call(Op("cdf_table", args), ig.hit_cdf, xs, t, ig.IGParams(d, g)))

    d, g, t = box.draw_params(rng)
    half = 1.5 * math.sqrt(box.x_end(t, d, g, rng.uniform(4.0, 7.0)))
    xs = np.linspace(-half, half, n)
    args = dict(delta=d, gamma=g, t=t, xs=xs, items=n)
    ops.append(_call(Op("sub_table", args), _sub_table, d, g, t, xs))

    d, g, t = box.draw_params(rng)
    q = rng.uniform(*box.Q)
    for which in ("mean", "second", "variance", "fractional"):
        args = dict(which=which, delta=d, gamma=g, t=t, q=q)
        ops.append(_call(Op("moment", args), _moment, which, d, g, t, q))

    for _ in range(box.POINTS_PER_ROUND):
        d, g, t = box.draw_params(rng)
        x = rng.uniform(0.0, box.x_end(t, d, g, 5.0))
        args = dict(delta=d, gamma=g, t=t, x=x)
        ops.append(_call(Op("point", args), _point, d, g, t, x))

    return ops


def fixed_queries() -> list:
    """The seed-independent small-gamma queries with known faults, once per run.

    The table grid and the adaptive scalar route miss the width-gamma/sqrt(2)
    peak of their integrand, the scalar route always below gamma ~ 2e-5 and
    at scattered points above, and the closed second moment cancels as
    gamma -> 0.  They run once before the timed rounds, so `failed` is the
    same on every run, seed and speed.
    """
    ops = []
    for d, g, t, x in FAILING_POINTS:
        args = dict(delta=d, gamma=g, t=t, x=x)
        ops.append(_call(Op("point", args, fixed=True), _point, d, g, t, x))
    for g in (0.001, 0.01):
        args = dict(delta=1.0, gamma=g, t=1.0, xs=FAILING_TABLE_X, items=FAILING_TABLE_X.size)
        ops.append(_call(Op("density_table", args, fixed=True),
                         _ig_table, 1.0, g, 1.0, FAILING_TABLE_X))
    args = dict(delta=1.0, gamma=0.01, t=1.0, xs=FAILING_SUB_X, items=FAILING_SUB_X.size)
    ops.append(_call(Op("sub_table", args, fixed=True), _sub_table, 1.0, 0.01, 1.0, FAILING_SUB_X))
    for which in ("second", "variance"):
        for g in (1e-10, 1e-12):
            args = dict(which=which, delta=1.0, gamma=g, t=1.0, q=None)
            ops.append(_call(Op("moment", args, fixed=True), _moment, which, 1.0, g, 1.0))
    return ops


def run_evaluate(seed: int, rounds: int, checkpoints, workdir: Path) -> Result:
    rng = np.random.default_rng([seed, 1])
    return _rounds(lambda _i: evaluate_round(rng), rounds, checkpoints, workdir,
                   fixed_queries())


# ---------------------------------------------------------------------------
# sample: Monte Carlo without quadrature
# ---------------------------------------------------------------------------

def _ts_sampler(size, rng):
    return ig.ts_sample(TS_T, TS_BETA, TS_MU, rng, size=size)


def sample_round(seed: int, index: int) -> list:
    base = (seed * 1_000_003 + index) * 4
    p = ig.IGParams(1.0, 1.0)
    ops = []
    for part, dt, sub in (("fine_draws", FINE_DT, 0), ("coarse_draws", COARSE_DT, 1)):
        args = dict(dt=dt, n=SAMPLE_DRAWS, items=SAMPLE_DRAWS)
        ops.append(_call(Op(part, args), ig.sample_hitting_times,
                         1.0, SAMPLE_DRAWS, p, dt, base + sub))
    for q, sub in ((1.0, 2), (2.0, 3)):
        args = dict(q=q, n=TS_DRAWS, items=TS_DRAWS)
        ops.append(_call(Op("ts_draws", args), ig.estimate_moment,
                         _ts_sampler, q, TS_DRAWS, base + sub))
    return ops


def run_sample(seed: int, rounds: int, checkpoints, workdir: Path) -> Result:
    return _rounds(lambda i: sample_round(seed, i), rounds, checkpoints, workdir)


# Seconds of one round at the time the benchmark was defined, on the 2-vCPU
# reference host.  An untraced run does round(seconds / nominal) whole rounds:
# its operation count, and so its failed count and share, depend on --seconds
# alone, not on the speed of the program or of the host.
NOMINAL_ROUND_S = {"evaluate": 0.1, "sample": 10.0}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds of an untraced run of `seconds` (verify: its batteries)."""
    if workload == "verify":
        return VERIFY_BATTERIES
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


WORKLOADS = {"verify": run_verify, "evaluate": run_evaluate, "sample": run_sample}

# per-part throughputs reported on standard error, by operation kind
PART_RATES = {
    "battery": "batteries_per_s",
    "density_table": "density_table_points_per_s",
    "stable_table": "stable_table_points_per_s",
    "cdf_table": "cdf_table_points_per_s",
    "sub_table": "subordinated_points_per_s",
    "moment": "moment_queries_per_s",
    "point": "point_queries_per_s",
    "fine_draws": "draws_per_s",
    "coarse_draws": "coarse_draws_per_s",
    "ts_draws": "ts_draws_per_s",
}
