"""Judge every operation of a run against the independent references.

An operation fails when it raised or its output is outside the tolerance of
its reference.  The run is correct when no operation failed other than the
fixed, seed-independent queries that carry a known fault.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from scipy import special

import references as R
import workloads as W

# the program's default NumericSpec tolerances
ABS_TOL, REL_TOL = 1e-10, 1e-8
# Gaver-Stehfest inversion: the package documents ~1e-6 relative in the bulk
ILT_REL_TOL = 1e-5
# mass of a stable table: Gauss sum over the table plus the reference tail
MASS_TOL = 1e-8

EXPECTED_VERDICTS = {
    "density_two_routes": "confirmed", "density_prefactor": "corrected",
    "mean_m1": "confirmed", "second_moment_m2": "corrected",
    "moment_lt_numerator": "corrected", "lt_time_inversion": "confirmed",
    "spatial_lt_prefactor": "corrected", "llt": "confirmed",
    "boundary_value": "corrected", "boundary_slope": "confirmed",
    "tail_bound": "bounded-only", "variance_large_t": "corrected",
    "nonlevy_witness": "confirmed", "stable_hit_density": "confirmed",
    "stable_hit_tail_rate": "confirmed", "pde_hitting": "confirmed",
    "pde_ig": "confirmed", "pde_ts_n2": "confirmed", "pde_ts_n3_sign": "confirmed",
    "pde_pseudo_lt": "confirmed", "pde_frac_hitting": "confirmed",
    "pde_frac_ig": "confirmed", "pde_subordinated": "confirmed",
    "pde_frac_subordinated": "confirmed",
}


def within(value, ref, abs_tol=ABS_TOL, rel_tol=REL_TOL) -> bool:
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return False
    return bool(np.all(np.abs(value - ref) <= np.maximum(abs_tol, rel_tol * np.abs(ref))))


@lru_cache(maxsize=None)
def _fixed_moment(q, gamma):
    return R.hit_moment_mp(q, 1.0, 1.0, gamma)


def _moment_ok(a, value) -> bool:
    d, g, t, which = a["delta"], a["gamma"], a["t"], a["which"]
    if a["q"] is None:              # fixed small-gamma queries, in mpmath
        m1, m2 = _fixed_moment(1, g), _fixed_moment(2, g)
    else:
        m1, m2 = R.hit_moment(1.0, t, d, g), R.hit_moment(2.0, t, d, g)
    if which == "mean":
        return within(value, m1)
    if which == "second":
        return within(value, m2)
    if which == "variance":
        return within(value, m2 - m1 * m1)
    return within(value, R.hit_moment(a["q"], t, d, g), rel_tol=ILT_REL_TOL)


def _stable_ok(a, value) -> bool:
    beta, t = a["beta"], a["t"]
    if not within(value, R.stable_hit_pdf(a["xs"], t, beta)):
        return False
    mass = float(a["weights"] @ value) + R.stable_hit_survival(a["upper"], t, beta)
    return abs(mass - 1.0) <= MASS_TOL


@lru_cache(maxsize=None)
def _grid_law(dt):
    return R.grid_law(1.0, 1.0, 1.0, dt)


def _draws_ok(a, value) -> bool:
    dt, n = a["dt"], a["n"]
    grid, cdf, mean, var = _grid_law(dt)
    steps = np.rint(value / dt).astype(np.int64)
    if value.shape != (n,) or steps.min() < 1 or not np.allclose(steps * dt, value,
                                                                  rtol=1e-12, atol=0):
        return False
    counts = np.bincount(np.minimum(steps, grid.size - 1), minlength=grid.size)
    ecdf = np.cumsum(counts) / n            # share of draws <= k dt
    dkw = float(np.max(np.abs(ecdf - cdf)))
    z = abs(float(value.mean()) - mean) / math.sqrt(var / n)
    return dkw <= R.dkw_epsilon(n) and z <= R.Z_BAND


def _ts_ok(a, value) -> bool:
    mean, var, second, var_second = R.ts_moments(W.TS_T, W.TS_BETA, W.TS_MU)
    target, spread = (mean, var) if a["q"] == 1.0 else (second, var_second)
    return abs(value.value - target) <= R.Z_BAND * math.sqrt(spread / a["n"])


def _record_value_checks(rec) -> bool:
    """The report's moment, transform and mass values against the references."""
    v = rec["values"]
    rid = rec["id"]
    m2 = R.hit_moment(2.0, 1.0, 1.0, 1.0)
    if rid == "mean_m1":
        m1 = R.hit_moment(1.0, 1.0, 1.0, 1.0)
        return (within(v["closed"], m1) and within(v["quadrature"], m1)
                and within(v["ilt"], m1, rel_tol=ILT_REL_TOL))
    if rid == "second_moment_m2":
        return (within(v["corrected"], m2) and within(v["quadrature"], m2)
                and within(v["ilt"], m2, rel_tol=ILT_REL_TOL)
                and within(v["printed"], 2.0 * m2)
                and within(v["driftless_quadrature_t1"], R.hit_moment(2.0, 1.0, 1.0, 0.0)))
    if rid == "moment_lt_numerator":
        return (within(v["quadrature"], m2)
                and within(v["corrected_ilt"], m2, rel_tol=ILT_REL_TOL)
                and within(v["printed_ilt"], 2.0 * m2, rel_tol=ILT_REL_TOL))
    if rid == "spatial_lt_prefactor":
        mu, t, g = v["mu"], v["t"], 0.5
        ref = R.hit_lt_space(mu, t, 1.0, g)
        return (within(v["corrected"], ref) and within(v["direct_quadrature"], ref)
                and within(v["literal"], ref * math.exp(0.5 * (t - 1.0) * g * g))
                and within(v["driftless_value"], R.hit_lt_space(1.0, 1.0, 1.0, 0.0))
                and within(v["driftless_closed"], special.erfcx(1.0 / math.sqrt(2.0))))
    if rid == "density_prefactor":
        return (within(v["corrected_mass"], 1.0)
                and within(v["literal_mass"], math.exp(0.5 * (v["t"] - 1.0))))
    if rid == "boundary_value":
        ref = float(R.hit_pdf(0.0, v["t"], 1.0, 1.0))
        return within(v["corrected"], ref) and within(v["levy_tail"], ref)
    return True


def _battery_outcomes(op) -> list:
    """(record id, ok) for each record the battery should produce."""
    ids = list(EXPECTED_VERDICTS)
    out = op.value or {}
    report = out.get("report")
    if op.error or out.get("exit_code") != 0 or not report:
        return [(rid, False) for rid in ids]
    records = {r["id"]: r for r in report["records"]}
    printed = out["stdout"].splitlines()
    outcomes = []
    for rid in ids:
        rec = records.get(rid)
        ok = (rec is not None and rec["verdict"] == EXPECTED_VERDICTS[rid]
              and any(line.split()[:2] == [rid, rec["verdict"]] for line in printed)
              and _record_value_checks(rec))
        outcomes.append((rid, ok))
    if [r["id"] for r in report["records"]] != ids:
        outcomes.append(("record_set", False))
    return outcomes


CHECKS = {
    "density_table": lambda a, v: within(v, R.hit_pdf(a["xs"], a["t"], a["delta"], a["gamma"])),
    "cdf_table": lambda a, v: within(v, R.hit_cdf(a["xs"], a["t"], a["delta"], a["gamma"])),
    "sub_table": lambda a, v: within(v, R.sub_pdf(a["xs"], a["t"], a["delta"], a["gamma"])),
    "stable_table": _stable_ok,
    "moment": _moment_ok,
    "point": lambda a, v: within(v, R.hit_pdf(a["x"], a["t"], a["delta"], a["gamma"])),
    "fine_draws": _draws_ok,
    "coarse_draws": _draws_ok,
    "ts_draws": _ts_ok,
}


def judge(ops) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every operation of a run."""
    attempted = failed = 0
    correct = True
    for op in ops:
        if op.kind == "battery":
            outcomes = _battery_outcomes(op)
            attempted += len(EXPECTED_VERDICTS)
            bad = [rid for rid, ok in outcomes if not ok]
            failed += min(len(bad), len(EXPECTED_VERDICTS))
            if bad:
                correct = False
                print(f"verify: failed records {bad}", file=sys.stderr)
            continue
        attempted += 1
        ok = op.error is None and CHECKS[op.kind](op.args, op.value)
        if not ok:
            failed += 1
            if not op.fixed:
                correct = False
                shown = {k: v for k, v in op.args.items() if np.ndim(v) == 0}
                print(f"{op.kind} failed: {shown} {op.error or ''}", file=sys.stderr)
    return attempted, failed, correct
