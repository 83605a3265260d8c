"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, not computed; Monte Carlo items run on fixed
seeds through the shared session fixtures so the whole suite is deterministic.
"""

import json
import math
import os

import numpy as np
import pytest

from ighit.cli import main as cli_main
from ighit.hitting import (
    density_support_cutoff,
    hit_cdf,
    hit_lt_space,
    hit_lt_time,
    hit_mean,
    hit_moment,
    hit_moment_quadrature,
    hit_pdf_convolution,
    hit_pdf_integral,
    hit_pdf_table,
    hit_second_moment,
    hit_survival,
    hit_variance,
    printed_prefactor_ratio,
    stable_hit_pdf,
    stable_hit_tail_report,
    tail_report,
)
from ighit.montecarlo import ecdf_ks, ks_critical_1pct
from ighit.numerics import erfcx, integrate_interval, invert_laplace
from ighit.residuals import (
    GridBox,
    caputo_derivative,
    residual_frac_hitting,
    residual_frac_ig,
    residual_hitting_pde,
    residual_ig_pde,
    residual_subordinated,
    residual_subordinated_frac,
    residual_ts_pde,
)
from ighit.subordinated import sub_cdf_interpolant, sub_pdf_table
from ighit.subordinators import (
    IGParams,
    ig_cdf,
    ig_sample,
    stable_sample,
)
from ighit.verification import builder_ids

PARAM_SET = (IGParams(1.0, 1.0), IGParams(2.0, 0.5), IGParams(0.5, 2.0))


def report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion:02d}: PASS  {text}")


def test_criterion_01_driftless_closed_form():
    params = IGParams(1.0, 0.0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for x in np.arange(0.0, 5.0001, 0.05):
            closed = math.sqrt(2.0 / (math.pi * t)) * math.exp(-x * x / (2.0 * t))
            worst = max(worst, abs(hit_pdf_integral(float(x), t, params) - closed))
    assert worst <= 1e-8
    report(1, f"max closed-form deviation {worst:.2e} <= 1e-8")


def test_criterion_02_two_route_density_equality():
    worst = 0.0
    for params in PARAM_SET:
        for t in (0.5, 1.0, 2.0):
            for x in (0.25, 0.5, 1.0, 2.0, 4.0):
                diff = abs(hit_pdf_integral(x, t, params)
                           - hit_pdf_convolution(x, t, params))
                worst = max(worst, diff)
    assert worst <= 1e-6
    report(2, f"max route disagreement {worst:.2e} <= 1e-6 on 5x3 grid, 3 parameter sets")


def test_criterion_03_normalisation_and_errata_detection():
    worst = 0.0
    for params in PARAM_SET:
        for t in (0.5, 1.0, 4.0):
            worst = max(worst, abs(hit_moment_quadrature(0.0, t, params) - 1.0))
    assert worst <= 1e-6
    lit_mass = {}
    for params, t in ((IGParams(1.0, 1.0), 4.0), (IGParams(2.0, 0.5), 0.5)):
        mass = hit_moment_quadrature(0.0, t, params) * printed_prefactor_ratio(t, params)
        assert abs(mass - 1.0) > 10.0 * 1e-6
        expected = math.exp(0.5 * params.gamma ** 2 * (t - 1.0))
        assert mass == pytest.approx(expected, rel=1e-6)
        lit_mass[(params.delta, t)] = mass
    report(3, f"corrected mass off by {worst:.2e}; literal masses {lit_mass} fail")


def test_criterion_04_duality_cdf(h1_samples_11):
    params = IGParams(1.0, 1.0)
    step = 1e-4
    fd = (hit_cdf(0.7 + step, 1.0, params) - hit_cdf(0.7 - step, 1.0, params)) / (2 * step)
    dens = hit_pdf_integral(0.7, 1.0, params)
    assert abs(fd - dens) <= 1e-5
    n = h1_samples_11.size
    assert n == 100_000
    d = ecdf_ks(h1_samples_11, lambda x: hit_cdf(x, 1.0, params))
    crit = ks_critical_1pct(n)
    assert d < crit
    report(4, f"cdf-derivative error {abs(fd - dens):.2e}; KS {d:.4f} < {crit:.4f} on 1e5 paths")


def test_criterion_05_moments(h1_samples_11, h1_samples_10):
    p11 = IGParams(1.0, 1.0)
    # closed form vs quadrature vs inversion
    m1 = hit_mean(1.0, p11)
    m2 = hit_second_moment(1.0, p11)
    assert abs(m1 - hit_moment_quadrature(1.0, 1.0, p11)) <= 1e-6
    assert abs(m2 - hit_moment_quadrature(2.0, 1.0, p11)) <= 1e-6
    assert abs(m1 - hit_moment(1.0, 1.0, p11)) / m1 <= 1e-4
    assert abs(m2 - hit_moment(2.0, 1.0, p11)) / m2 <= 1e-4
    # Monte Carlo, 4 standard errors
    se1 = h1_samples_11.std() / math.sqrt(h1_samples_11.size)
    assert abs(h1_samples_11.mean() - m1) < 4.0 * se1
    sq = h1_samples_11 ** 2
    se2 = sq.std() / math.sqrt(sq.size)
    assert abs(sq.mean() - m2) < 4.0 * se2
    # driftless special case: the quadrature/MC value is 1.0, not 2t
    p10 = IGParams(1.0, 0.0)
    quad = hit_moment_quadrature(2.0, 1.0, p10)
    assert quad == pytest.approx(1.0, abs=1e-6)
    sq0 = h1_samples_10 ** 2
    se0 = sq0.std() / math.sqrt(sq0.size)
    assert abs(sq0.mean() - 1.0) < 4.0 * se0
    assert abs(quad - 2.0) > 0.9
    from ighit.verification import _rec_second_moment_m2
    assert _rec_second_moment_m2().verdict == "corrected"
    report(5, f"mean/second moment agree across 3 oracles; driftless value "
              f"{quad:.8f} flags the printed 2t as corrected")


def test_criterion_06_asymptotics():
    p11 = IGParams(1.0, 1.0)
    big = abs(hit_mean(400.0, p11) / 400.0 - 1.0)
    assert big < 0.01
    small = abs(hit_mean(1e-4, p11) / math.sqrt(1e-4) - math.sqrt(2.0 / math.pi))
    assert small < 0.01
    var_ratio = hit_variance(1e-4, p11) / math.sqrt(1e-4)
    assert var_ratio < 0.05
    report(6, f"mean/t off by {big:.2e} at t=400; mean/sqrt(t) off by {small:.2e} "
              f"and var/sqrt(t)={var_ratio:.2e} at t=1e-4")


def test_criterion_07_tail_bound():
    p11 = IGParams(1.0, 1.0)
    rep = tail_report(1.0, p11, np.linspace(2.0, 8.0, 25))
    ratios = rep.ratios()
    assert ratios.argmax() == 0 and ratios[-1] < ratios[0]
    p10 = IGParams(1.0, 0.0)
    surv3 = hit_survival(3.0, 1.0, p10)
    target = math.erfc(3.0 / math.sqrt(2.0))
    assert abs(surv3 - target) <= 1e-6
    report(7, f"survival/envelope ratio decreasing on [2,8]; driftless "
              f"survival(3)={surv3:.6f} matches erfc(3/sqrt(2))")


def test_criterion_08_transforms():
    p11 = IGParams(1.0, 1.0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        inv = invert_laplace(lambda s: hit_lt_time(0.7, s, p11), t)
        dens = hit_pdf_integral(0.7, t, p11)
        worst = max(worst, abs(inv - dens) / dens)
    assert worst <= 1e-4
    p105 = IGParams(1.0, 0.5)
    x_max = density_support_cutoff(1.0, p105)
    direct = integrate_interval(
        lambda xs: np.exp(-xs) * hit_pdf_table(xs, 1.0, p105),
        0.0, x_max, edges=np.linspace(0.0, x_max, 33))
    space = hit_lt_space(1.0, 1.0, p105)
    assert abs(space - direct) <= 1e-5
    driftless = hit_lt_space(1.0, 1.0, IGParams(1.0, 0.0))
    closed = erfcx(1.0 / math.sqrt(2.0))
    assert abs(driftless - closed) <= 1e-9
    report(8, f"time-transform inversion rel err {worst:.2e}; spatial transform "
              f"vs quadrature {abs(space - direct):.2e}; driftless value {driftless:.6f}")


def test_criterion_09_pde_residuals():
    p11 = IGParams(1.0, 1.0)
    p10 = IGParams(1.0, 0.0)
    runs = {
        "hitting": residual_hitting_pde(p11, GridBox(0.4, 1.6, 0.5, 1.5, 1 / 40, 1 / 40)),
        "hitting_driftless": residual_hitting_pde(
            p10, GridBox(0.2, 3.0, 0.5, 2.0, 1 / 32, 1 / 32)),
        "subordinator": residual_ig_pde(p11, GridBox(0.5, 2.5, 0.5, 1.5, 1 / 40, 1 / 40)),
        "tempered_n2": residual_ts_pde(2, 1.0, GridBox(0.3, 1.1, 0.6, 1.2, 1 / 32, 1 / 32))[0],
        "subordinated": residual_subordinated(
            p11, GridBox(0.3, 1.5, 0.5, 1.0, 1 / 32, 1 / 32)),
    }
    summary = {}
    for name, rep in runs.items():
        assert 3.5 <= rep.refinement_ratio <= 4.5, name
        assert rep.norms["max_rel"] < 1e-3, name
        summary[name] = (round(rep.refinement_ratio, 2),
                         float(f"{rep.norms['max_rel']:.2e}"))
    report(9, f"refinement ratios and interior relative residuals: {summary}")


def test_criterion_10_fractional_residuals():
    runs = {
        "hitting": residual_frac_hitting(GridBox(0.25, 1.5, 0.3, 1.0, 1 / 256, 1 / 64)),
        "subordinator": residual_frac_ig(GridBox(0.3, 1.5, 0.5, 1.0, 1 / 64, 1 / 256)),
        "subordinated": residual_subordinated_frac(
            GridBox(0.25, 1.25, 0.3, 0.75, 1 / 192, 1 / 64)),
    }
    orders = {}
    for name, rep in runs.items():
        assert 1.0 <= rep.fitted_order <= 2.0, name
        orders[name] = round(rep.fitted_order, 2)
    ts = np.linspace(0.0, 1.0, 1025)
    half_of_sqrt = caputo_derivative(ts, np.sqrt(ts), 0.5)
    assert abs(half_of_sqrt[-1] - math.sqrt(math.pi) / 2.0) < 1e-5
    half_of_linear = caputo_derivative(ts, ts, 0.5)
    assert np.max(np.abs(half_of_linear[1:] - 2.0 * np.sqrt(ts[1:] / math.pi))) < 1e-12
    report(10, f"fitted orders {orders} within 1.5 +/- 0.5; half-derivative "
               f"unit values reproduced")


def test_criterion_11_stable_family():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for x in np.linspace(0.05, 5.0, 100):
            closed = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
            worst = max(worst, abs(stable_hit_pdf(float(x), t, 0.5) - closed))
    assert worst <= 1e-8
    rep = stable_hit_tail_report(1.0, 0.5, np.linspace(8.0, 16.0, 17))
    fitted = rep.fitted_gaussian_rate
    assert abs(fitted - 0.25) / 0.25 <= 0.02
    from ighit.numerics import integrate_semi_infinite
    mass = integrate_semi_infinite(
        lambda x: stable_hit_pdf(np.maximum(x, 1e-300), 1.0, 0.5))
    assert abs(mass - 1.0) <= 1e-6
    report(11, f"half-index density exact to {worst:.2e}; fitted tail rate "
               f"{fitted:.4f} within 2% of 1/4; mass {mass:.8f}")


def test_criterion_12_samplers():
    p = IGParams(1.0, 1.0)
    rng = np.random.default_rng(1234)
    draws = ig_sample(1.0, p, rng, size=10 ** 6)
    se_mean = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 4.0 * se_mean
    center = draws - draws.mean()
    m4 = np.mean(center ** 4)
    se_var = math.sqrt((m4 - draws.var() ** 2) / draws.size)
    assert abs(draws.var() - 1.0) < 4.0 * se_var
    ks_draws = ig_sample(1.0, p, np.random.default_rng(77), size=10 ** 5)
    d = ecdf_ks(ks_draws, lambda x: ig_cdf(x, 1.0, p))
    assert d < ks_critical_1pct(ks_draws.size)
    stable = stable_sample(1.0, 0.5, np.random.default_rng(5150), size=10 ** 6)
    vals = np.exp(-stable)
    se_lt = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - math.exp(-1.0)) < 4.0 * se_lt
    report(12, f"sampler mean/variance within 4 SE; KS {d:.4f}; "
               f"stable transform value {vals.mean():.6f} vs {math.exp(-1.0):.6f}")


def test_criterion_13_subordinated(x1_samples_11):
    p11 = IGParams(1.0, 1.0)
    from ighit.subordinated import sub_pdf
    assert sub_pdf(1.3, 1.0, p11) == sub_pdf(-1.3, 1.0, p11)
    # mass and E X^2 by quadrature of the even density over [0, 8 sqrt(r_max)]
    x_max = 8.0 * math.sqrt(density_support_cutoff(1.0, p11, tail_tol=1e-11))
    edges = np.linspace(0.0, x_max, 65)
    mass = 2.0 * integrate_interval(lambda xs: sub_pdf_table(xs, 1.0, p11), 0.0, x_max,
                                    edges=edges)
    second = 2.0 * integrate_interval(lambda xs: xs * xs * sub_pdf_table(xs, 1.0, p11),
                                      0.0, x_max, edges=edges)
    assert abs(mass - 1.0) <= 1e-6
    m1 = hit_mean(1.0, p11)
    assert abs(second - m1) <= 1e-5
    sq = x1_samples_11 ** 2
    se = sq.std() / math.sqrt(sq.size)
    assert abs(sq.mean() - m1) < 4.0 * se
    cdf = sub_cdf_interpolant(1.0, p11)
    d = ecdf_ks(x1_samples_11, cdf)
    assert d < ks_critical_1pct(x1_samples_11.size)
    report(13, f"symmetric, mass {mass:.8f}, E X^2 vs clock mean off by "
               f"{abs(second - m1):.2e} (quadrature) and {abs(sq.mean() - m1):.4f} (MC); "
               f"KS {d:.4f}")


def test_criterion_14_paths_reproduction(tmp_path):
    args = ["paths", "--delta", "1", "--gamma", "1", "--T", "5",
            "--dt", "0.001", "--seed", "42", "--svg"]
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert cli_main(args + ["--out", "run1"]) == 0
        assert cli_main(args + ["--out", "run2"]) == 0
    finally:
        os.chdir(cwd)
    for suffix in ("_g.csv", "_h.csv", ".svg"):
        assert (tmp_path / f"run1{suffix}").read_bytes() == \
            (tmp_path / f"run2{suffix}").read_bytes()

    def load(path):
        rows = path.read_text().strip().split("\n")[1:]
        return np.array([[float(c) for c in r.split(",")] for r in rows])

    g = load(tmp_path / "run1_g.csv")
    h = load(tmp_path / "run1_h.csv")
    assert np.all(np.diff(g[:, 1]) > 0)          # strictly increasing, jumps
    assert np.all(np.diff(h[:, 1]) >= 0)         # nondecreasing inverse
    # the inverse is exactly the first grid time the path exceeds the level,
    # so it is constant precisely over the path's jump intervals
    idx = np.searchsorted(g[:, 1], h[:, 0], side="right")
    assert np.array_equal(h[:, 1], g[idx, 0])
    d_h = np.diff(h[:, 1])
    crossings = np.array([np.any((g[:, 1] > lo) & (g[:, 1] <= hi))
                          for lo, hi in zip(h[:-1, 0], h[1:, 0])])
    assert np.array_equal(d_h > 0, crossings)
    assert (d_h == 0).sum() > 0
    report(14, f"path pair byte-identical under the seed; "
               f"{int((d_h == 0).sum())} plateau steps align with jump intervals")


def test_criterion_15_nonlevy_witness():
    p10 = IGParams(1.0, 0.0)
    margin = abs(hit_mean(4.0, p10) - 4.0 * hit_mean(1.0, p10))
    assert margin > 0.5
    report(15, f"mean at t=4 differs from linear scaling by {margin:.4f} > 0.5")


def test_criterion_16_verify_command(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = cli_main(["verify", "--out", "verification.json"])
    finally:
        os.chdir(cwd)
    assert code == 0
    obj = json.loads((tmp_path / "verification.json").read_text())
    assert [r["id"] for r in obj["records"]] == builder_ids()
    verdicts = {r["id"]: r["verdict"] for r in obj["records"]}
    assert verdicts["density_prefactor"] == "corrected"
    assert verdicts["second_moment_m2"] == "corrected"
    assert verdicts["moment_lt_numerator"] == "corrected"
    assert verdicts["spatial_lt_prefactor"] == "corrected"
    assert verdicts["tail_bound"] == "bounded-only"
    assert verdicts["density_two_routes"] == "confirmed"
    assert verdicts["pde_hitting"] == "confirmed"
    assert verdicts["pde_ig"] == "confirmed"
    assert verdicts["pde_ts_n2"] == "confirmed"
    assert verdicts["pde_ts_n3_sign"] == "confirmed"
    assert verdicts["pde_pseudo_lt"] == "confirmed"
    assert verdicts["mean_m1"] == "confirmed"
    assert all(v != "failed" for v in verdicts.values())
    report(16, f"verify exit 0 with verdicts: " + ", ".join(
        f"{k}={v}" for k, v in sorted(verdicts.items())
        if v != "confirmed") + "; all others confirmed")
