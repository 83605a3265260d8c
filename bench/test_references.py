"""Self-tests of the benchmark: the references checked against each other.

A wrong reference must not be able to pass a wrong program, so every
reference is compared with a second one computed another way.  Run with

    python3 -m pytest bench -q
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

import box
import references as R

PARAMS = [(1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.5, 3.0), (0.5, 3.0, 0.25),
          (1.7, 2.6, 4.0), (1.0, 0.001, 1.0)]


@pytest.mark.parametrize("delta,gamma,t", PARAMS)
def test_density_has_unit_mass(delta, gamma, t):
    upper = box.x_end(t, delta, gamma, 12.0)
    mass, _ = integrate.quad(lambda x: float(R.hit_pdf(x, t, delta, gamma)), 0.0, upper,
                             epsabs=0.0, epsrel=1e-13, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("delta,gamma,t", PARAMS)
def test_density_is_derivative_of_cdf(delta, gamma, t):
    xs = np.linspace(0.05, box.x_end(t, delta, gamma, 6.0), 41)
    h = 1e-5
    fd = (R.hit_cdf(xs + h, t, delta, gamma) - R.hit_cdf(xs - h, t, delta, gamma)) / (2 * h)
    assert np.max(np.abs(fd - R.hit_pdf(xs, t, delta, gamma))) < 2e-8
    assert abs(float(R.hit_cdf(0.0, t, delta, gamma))) < 1e-15
    assert np.allclose(R.hit_cdf(xs, t, delta, gamma) + R.hit_survival(xs, t, delta, gamma),
                       1.0, rtol=0, atol=2e-16)


def test_density_matches_mpmath_evaluation():
    with mpmath.workdps(40):
        for delta, gamma, t in PARAMS:
            for x in (0.0, 0.3, 1.1, 2.5, box.x_end(t, delta, gamma, 5.0)):
                d, g, tt, xx = map(mpmath.mpf, (delta, gamma, t, x))
                a = (d * xx - g * tt) / mpmath.sqrt(tt)
                v = (d * xx + g * tt) / mpmath.sqrt(tt)
                exact = d * (2 * mpmath.npdf(a) / mpmath.sqrt(tt)
                             - g * mpmath.exp(-a * a / 2) * mpmath.erfc(v / mpmath.sqrt(2))
                             * mpmath.exp(v * v / 2))
                got = float(R.hit_pdf(x, t, delta, gamma))
                assert abs(got - float(exact)) <= 1e-14 * max(1.0, abs(float(exact)))


@pytest.mark.parametrize("q", [1.0, 2.0, 0.7])
def test_moment_quadrature_agrees_with_mpmath(q):
    for delta, gamma, t in PARAMS[:4]:
        assert R.hit_moment(q, t, delta, gamma) == pytest.approx(
            R.hit_moment_mp(q, t, delta, gamma), rel=1e-12)


def test_driftless_moments_are_half_normal():
    # gamma = 0: H(t) = |W_t| / delta
    assert R.hit_moment(1.0, 2.0, 1.0, 0.0) == pytest.approx(math.sqrt(4.0 / math.pi), rel=1e-12)
    assert R.hit_moment_mp(2.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_space_transform_driftless_closed_form():
    # gamma = 0, delta = 1: E exp(-mu |W_t|) = erfcx(mu sqrt(t/2))
    for mu, t in ((1.0, 1.0), (0.5, 2.0)):
        assert R.hit_lt_space(mu, t, 1.0, 0.0) == pytest.approx(
            special.erfcx(mu * math.sqrt(t / 2.0)), rel=1e-12)


@pytest.mark.parametrize("delta,gamma,t", PARAMS[:5])
def test_subordinated_density_matches_adaptive_quadrature(delta, gamma, t):
    xs = np.array([0.0, 0.01, 0.4, 1.3, 3.0])
    got = R.sub_pdf(xs, t, delta, gamma)
    upper = math.sqrt(box.x_end(t, delta, gamma, 12.0))
    for x, value in zip(xs, got):
        def f(v):
            return math.exp(-x * x / (2 * v * v)) * float(R.hit_pdf(v * v, t, delta, gamma)) if v > 0 else (
                float(R.hit_pdf(0.0, t, delta, gamma)) if x == 0 else 0.0)
        ref, _ = integrate.quad(f, 0.0, upper, points=[abs(x)] if 0 < abs(x) < upper else None,
                                epsabs=1e-14, epsrel=1e-13, limit=500)
        assert value == pytest.approx(math.sqrt(2.0 / math.pi) * ref, rel=1e-10, abs=1e-13)


def test_subordinated_density_has_unit_mass():
    delta, gamma, t = 1.3, 0.8, 1.7
    half = 12.0 * math.sqrt(box.x_end(t, delta, gamma, 12.0))
    pts, wts = box.gauss_panels(np.linspace(-half, half, 401), 16)
    assert float(wts @ R.sub_pdf(pts, t, delta, gamma)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("beta", [0.5, 1.0 / 3.0])
def test_stable_unit_density_has_the_stable_transform(beta):
    for s in (0.5, 1.0, 3.0):
        val, _ = integrate.quad(lambda u: math.exp(-s * u) * float(R.stable_unit_pdf(u, beta)),
                                0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400)
        assert val == pytest.approx(math.exp(-s ** beta), rel=1e-9)


@pytest.mark.parametrize("beta", [0.5, 1.0 / 3.0])
@pytest.mark.parametrize("t", [0.3, 1.0, 3.5])
def test_stable_hitting_density_mass_and_tail(beta, t):
    upper = box.stable_x_end(t, beta)
    pts, wts = box.gauss_panels(np.linspace(0.0, upper, 65), 16)
    assert float(wts @ R.stable_hit_pdf(pts, t, beta)) == pytest.approx(1.0, abs=1e-12)
    x = 0.4 * upper
    inner, _ = integrate.quad(lambda y: float(R.stable_hit_pdf(y, t, beta)), x, upper,
                              epsabs=0.0, epsrel=1e-12)
    assert R.stable_hit_survival(x, t, beta) == pytest.approx(inner, rel=1e-8, abs=1e-16)


@pytest.mark.parametrize("dt", [1.0 / 64.0, 1.0 / 1024.0])
def test_grid_law_mean_equals_direct_sum(dt):
    grid, cdf, mean, var = R.grid_law(1.0, 1.0, 1.0, dt)
    pmf = np.diff(np.concatenate([[0.0], cdf]))      # P(S = k dt)
    assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-15)
    assert mean == pytest.approx(float((grid * pmf).sum()), rel=1e-12)
    assert var + mean * mean == pytest.approx(float((grid * grid * pmf).sum()), rel=1e-12)
    # S = dt * (floor(H / dt) + 1) sits between H and H + dt
    h_mean = R.hit_moment(1.0, 1.0, 1.0, 1.0)
    assert h_mean < mean < h_mean + dt


def test_tempered_stable_moments_match_the_laplace_transform():
    t, beta, mu = 1.0, 1.0 / 3.0, 1.0
    with mpmath.workdps(30):
        lt = lambda s: mpmath.exp(-t * ((s + mu) ** beta - mu ** beta))
        moments = [(-1) ** n * mpmath.diff(lt, 0, n) for n in range(5)]
    mean, var, second, var_second = R.ts_moments(t, beta, mu)
    assert mean == pytest.approx(float(moments[1]), rel=1e-12)
    assert var == pytest.approx(float(moments[2] - moments[1] ** 2), rel=1e-12)
    assert second == pytest.approx(float(moments[2]), rel=1e-12)
    assert var_second == pytest.approx(float(moments[4] - moments[2] ** 2), rel=1e-12)


def test_band_false_alarm_rates():
    assert 2.0 * special.ndtr(-R.Z_BAND) <= 1e-6
    n = 20_000
    eps = R.dkw_epsilon(n)
    assert 2.0 * math.exp(-2.0 * n * eps * eps) == pytest.approx(R.DKW_ALPHA)


def test_benchmark_json_lists_the_traced_metrics():
    import tracing

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "round_s"}
    assert [w["name"] for w in spec["workloads"]] == ["verify", "evaluate", "sample"]
