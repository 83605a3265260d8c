import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ighit import hitting, subordinators
from ighit.errors import BudgetExceeded, DomainError
from ighit.numerics import (
    erfcx,
    integrate_interval,
    integrate_semi_infinite,
    invert_laplace,
    norm_cdf,
)
from ighit.hitting import hitting_path
from ighit.montecarlo import ecdf_ks, ks_critical_1pct
from ighit.subordinators import (
    PASS_BLOCK,
    IGParams,
    SamplePath,
    TemperedStableSubordinator,
    _ig_cdf,
    _kanter_draws,
    _kanter_floor,
    _unit_stable_cdf_pdf,
    ig_cdf,
    ig_levy_tail,
    ig_pdf,
    ig_psi,
    ig_sample,
    stable_cdf,
    stable_pdf,
    stable_sample,
    ts_levy_tail,
    ts_pdf,
    ts_half_ig_params,
    ts_psi,
    ts_sample,
)

LOOSE = {"abs_tol": 1e-9, "rel_tol": 1e-7}


class TestIGDistribution:
    def test_pdf_value_at_unit_point(self):
        # exponent ab - (a^2 + b^2)/2 vanishes at x = a = b = 1
        assert ig_pdf(1.0, 1.0, IGParams(1.0, 1.0)) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_pdf_mass_and_mean(self):
        p = IGParams(2.0, 0.5)
        mass = integrate_semi_infinite(lambda x: ig_pdf(x, 1.0, p))
        mean = integrate_semi_infinite(lambda x: x * ig_pdf(x, 1.0, p))
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(p.delta / p.gamma, abs=1e-7)

    def test_model_density_is_ig_pdf(self):
        # the model's marginal density and ig_pdf round alike: at this a, 22
        # of the 40 values differed when the model took numpy's log and square
        p = IGParams(1.0, 0.7)
        u = np.linspace(0.05, 4.0, 40)
        a = 1.5201862298474473
        assert np.array_equal(p.marginal_pdf(u, a), ig_pdf(u, a, p))

    def test_params_are_the_model(self):
        # the members delegate to the ig_* functions; tail_exponent is a class
        # constant, not a field, so equality and hashing see delta and gamma only
        p = IGParams(1.0, 0.7)
        assert [f.name for f in dataclasses.fields(p)] == ["delta", "gamma"]
        assert p.tail_exponent == 0.5 and p == IGParams(1.0, 0.7)
        s = np.linspace(0.0, 4.0, 9)
        assert np.array_equal(p.psi(s), ig_psi(s, p))
        assert np.array_equal(p.levy_tail(s[1:]), ig_levy_tail(s[1:], p))
        draws = p.sample_increment(0.3, np.random.default_rng(5), size=7)
        assert np.array_equal(draws, ig_sample(0.3, p, np.random.default_rng(5), 7))

    def test_pdf_and_cdf_broadcast_over_time(self):
        p = IGParams(1.3, 0.7)
        xs, ts = np.linspace(0.1, 3.0, 7), np.array([0.25, 1.0, 2.5])
        rows = np.stack([ig_pdf(xs, float(t), p) for t in ts], axis=1)
        assert np.array_equal(ig_pdf(xs[:, None], ts, p), rows)
        rows = np.stack([ig_cdf(xs, float(t), p) for t in ts], axis=1)
        assert np.array_equal(ig_cdf(xs[:, None], ts, p), rows)
        assert type(ig_pdf(1.0, 1.0, p)) is float and type(ig_cdf(1.0, 1.0, p)) is float

    def test_pdf_domain(self):
        with pytest.raises(DomainError):
            ig_pdf(0.0, 1.0, IGParams(1.0, 1.0))
        with pytest.raises(DomainError):
            ig_pdf(1.0, -1.0, IGParams(1.0, 1.0))

    def test_cdf_limits(self):
        p = IGParams(2.0, 0.5)
        assert ig_cdf(0.0, 1.0, p) == 0.0
        assert ig_cdf(-3.0, 1.0, p) == 0.0
        assert ig_cdf(1e9, 1.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_infinite_limits(self):
        p = IGParams(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ig_cdf(math.inf, 1.0, p) == 1.0
            assert ig_cdf(-math.inf, 1.0, p) == 0.0
            assert np.array_equal(ig_cdf(np.array([-math.inf, 0.0, math.inf]), 1.0, p),
                                  [0.0, 0.0, 1.0])
        assert isinstance(ig_cdf(math.inf, 1.0, p), float)

    def test_cdf_matches_quadrature(self):
        p = IGParams(2.0, 0.5)
        quad = integrate_interval(lambda x: ig_pdf(np.maximum(x, 1e-300), 1.0, p), 0.0, 3.0)
        assert ig_cdf(3.0, 1.0, p) == pytest.approx(quad, abs=1e-8)

    def test_cdf_overflow_safe_branch(self):
        # 2ab far beyond exp overflow territory
        val = ig_cdf(1.0, 1.0, IGParams(40.0, 40.0))
        assert 0.0 <= val <= 1.0 and math.isfinite(val)
        assert val == pytest.approx(0.5, abs=0.2)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 20.0), st.floats(0.01, 20.0))
    def test_cdf_monotone(self, x1, x2):
        p = IGParams(1.5, 0.8)
        lo, hi = min(x1, x2), max(x1, x2)
        assert ig_cdf(lo, 1.0, p) <= ig_cdf(hi, 1.0, p) + 1e-15


class TestIGSampler:
    def test_moments(self):
        rng = np.random.default_rng(2024)
        d = ig_sample(1.0, IGParams(1.0, 1.0), rng, size=10 ** 6)
        se_mean = d.std() / math.sqrt(d.size)
        assert abs(d.mean() - 1.0) < 4.0 * se_mean
        m4 = np.mean((d - d.mean()) ** 4)
        se_var = math.sqrt((m4 - d.var() ** 2) / d.size)
        assert abs(d.var() - 1.0) < 4.0 * se_var

    def test_ks_against_cdf(self):
        rng = np.random.default_rng(7)
        p = IGParams(1.0, 1.0)
        d = ig_sample(1.0, p, rng, size=10 ** 5)
        assert ecdf_ks(d, lambda x: ig_cdf(x, 1.0, p)) < ks_critical_1pct(d.size)

    def test_ks_at_small_shape_times_drift(self):
        # a gamma = 1e-8: the smaller root a/b + nu/(2b^2) - sqrt(.)/(2b^2)
        # cancelled here, and 18 % of the draws fell to a clamp at 1e-300
        rng = np.random.default_rng(1)
        p = IGParams(1e-4, 1e-4)
        d = ig_sample(1.0, p, rng, size=10 ** 5)
        assert ecdf_ks(d, lambda x: ig_cdf(x, 1.0, p)) < ks_critical_1pct(d.size)

    def test_underflowing_drift_squared_gives_finite_draws(self):
        # gamma^2 underflows to 0 while (delta t / gamma)^2 = 1e-200 does not
        # overflow; every draw is accepted, where a^2 underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = ig_sample(1.0, IGParams(1e-300, 1e-200), np.random.default_rng(0), 4)
        assert np.all(np.isfinite(d) & (d >= 0))

    def test_overflowing_shape_times_drift_gives_the_mean(self):
        # a gamma = 1e350 overflows a float while the mean a/gamma = 1e50 does
        # not; the law's relative spread, sqrt(mean / a^2) = 1e-175, is nil
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = ig_sample(1.0, IGParams(1e200, 1e150), np.random.default_rng(0), 100)
        assert np.allclose(d, 1e50, rtol=1e-14, atol=0.0)

    def test_driftless_delegates_to_stable_representation(self):
        rng = np.random.default_rng(11)
        a = 1.3
        d = ig_sample(1.0, IGParams(a, 0.0), rng, size=10 ** 5)
        # one-sided 1/2-stable law: P(X <= x) = erfc(a / sqrt(2x))
        cdf = lambda x: np.array([math.erfc(a / math.sqrt(2.0 * xi)) for xi in x])
        assert ecdf_ks(d, cdf) < ks_critical_1pct(d.size)


class TestLevyTailAndExponent:
    def test_driftless_closed_form(self):
        val = ig_levy_tail(1.0, IGParams(1.0, 0.0))
        assert val == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_tail_matches_quadrature(self):
        p = IGParams(1.0, 1.0)
        quad = integrate_semi_infinite(
            lambda y: p.delta * (2.0 * math.pi * (1.0 + y) ** 3) ** -0.5
            * np.exp(-0.5 * (1.0 + y)))
        assert ig_levy_tail(1.0, p) == pytest.approx(quad, abs=1e-9)

    def test_infinite_activity(self):
        assert ig_levy_tail(1e-8, IGParams(1.0, 1.0)) > 1e3

    def test_psi_basics(self):
        assert ig_psi(0.0, IGParams(1.0, 1.0)) == 0.0
        assert ig_psi(2.0, IGParams(1.0, 0.0)) == pytest.approx(2.0, rel=1e-14)

    def test_psi_domain_edges(self):
        # the branch points themselves are admitted: s = -gamma^2/2, -mu, 0
        assert ig_psi(-0.5, IGParams(2.0, 1.0)) == -2.0
        assert ts_psi(-1.0, 0.5, 1.0) == -1.0
        assert TemperedStableSubordinator(0.5, 0.0).psi(0.0) == 0.0

    @pytest.mark.parametrize("call", [
        lambda: ig_psi(-0.5 - 1e-9, IGParams(1.0, 1.0)),
        lambda: ig_psi(np.array([1.0, -1e-12]), IGParams(1.0, 0.0)),
        lambda: ts_psi(-2.0, 0.5, 1.0),
        lambda: ts_psi(-1e-12, 1.0 / 3.0, 0.0),
        lambda: TemperedStableSubordinator(0.5, 0.0).psi(-1.0),
        lambda: TemperedStableSubordinator(0.5, 1.0).psi(np.array([0.0, -1.5])),
        lambda: IGParams(1.0, 1.0).psi(complex(-1.0, 0.0)),
    ], ids=["ig", "ig_driftless_array", "ts", "ts_untempered", "stable", "ts_model",
            "ig_model_on_cut"])
    def test_psi_rejects_real_s_below_domain(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: TemperedStableSubordinator(0.5, 0.0).psi(-1.0),
        lambda: ts_psi(np.array([1.0, -1e-12]), 1.0 / 3.0, 0.0),
    ], ids=["model", "array"])
    def test_untempered_psi_bound_reads_zero(self, call):
        # the lower end -mu is -0.0 at mu = 0, which printed as "-0"
        with pytest.raises(DomainError, match=r"^ts_psi: real s must be >= 0$"):
            call()

    def test_psi_on_talbot_contour_unchanged(self):
        # the fixed-Talbot nodes: one on the positive real axis, the rest above it
        m, t = 24, 0.7
        r = 2.0 * m / (5.0 * t)
        theta = np.arange(1, m) * math.pi / m
        s = np.concatenate([[complex(r)], r * theta * (1.0 / np.tan(theta) + 1j)])
        p = IGParams(1.0, 1.0)
        exact = 2.0 * p.delta * s / (np.sqrt(p.gamma ** 2 + 2.0 * s) + p.gamma)
        assert np.array_equal(ig_psi(s, p), exact)
        assert np.array_equal(ts_psi(s, 0.5, 1.0), (s + 1.0) ** 0.5 - 1.0)
        assert np.array_equal(TemperedStableSubordinator(1.0 / 3.0, 0.0).psi(s), s ** (1.0 / 3.0))
        assert ig_psi(complex(0.3, -2.0), p) == (2.0 * p.delta * complex(0.3, -2.0)
                                                 / (np.sqrt(complex(1.6, -4.0)) + 1.0))
        driftless = IGParams(1.0, 0.0)
        assert np.array_equal(ig_psi(s, driftless), np.sqrt(2.0 * s))

    def test_psi_increasing_and_concave(self):
        ss = np.linspace(0.0, 8.0, 200)
        for model in (IGParams(1.0, 1.0),
                      TemperedStableSubordinator(0.5, 0.0),
                      TemperedStableSubordinator(0.5, 1.0)):
            vals = np.asarray(model.psi(ss))
            assert vals[0] == pytest.approx(0.0, abs=1e-14)
            assert np.all(np.diff(vals) > 0)
            assert np.all(np.diff(vals, 2) < 1e-12)

    def test_levy_tail_nonincreasing(self):
        us = np.linspace(0.05, 5.0, 120)
        for model in (IGParams(1.0, 1.0),
                      TemperedStableSubordinator(0.5, 0.0),
                      TemperedStableSubordinator(0.5, 1.0)):
            tails = np.asarray(model.levy_tail(us))
            assert np.all(np.diff(tails) < 0)
            assert np.all(tails > 0)

    def test_psi_slope_at_origin_is_mean_rate(self):
        p = IGParams(2.0, 0.5)
        h = 1e-7
        slope = (ig_psi(h, p) - ig_psi(0.0, p)) / h
        assert slope == pytest.approx(p.delta / p.gamma, rel=1e-6)
        assert p.delta / p.gamma == 4.0

    def test_tail_exponent_consistency(self):
        # s * LT(levy_tail)(s) recovers the Laplace exponent
        for model in (IGParams(1.0, 1.0),
                      TemperedStableSubordinator(0.5, 0.0),
                      TemperedStableSubordinator(0.5, 1.0)):
            p_exp = model.tail_exponent
            q = 1.0 / (1.0 - p_exp)
            for s in (0.5, 1.0, 2.0):
                def f(v):
                    u = v ** q
                    return np.exp(-s * u) * model.levy_tail(u) * q * v ** (q - 1.0)
                val = s * integrate_semi_infinite(f, **LOOSE)
                assert val == pytest.approx(float(model.psi(s)), abs=1e-6)

    def test_marginal_lt_consistency(self):
        # LT of the marginal density equals exp(-x psi(s))
        for model in (IGParams(1.0, 1.0),
                      TemperedStableSubordinator(0.5, 0.0),
                      TemperedStableSubordinator(0.5, 1.0)):
            for x in (0.5, 1.0, 2.0):
                for s in (0.5, 1.0, 2.0):
                    val = integrate_semi_infinite(
                        lambda u: np.exp(-s * u)
                        * model.marginal_pdf(np.maximum(u, 1e-300), x), **LOOSE)
                    assert val == pytest.approx(math.exp(-x * float(model.psi(s))),
                                                abs=1e-6)

    def test_marginal_mass(self):
        for model in (IGParams(1.0, 1.0),
                      TemperedStableSubordinator(0.5, 0.0),
                      TemperedStableSubordinator(0.5, 1.0)):
            for x in (0.5, 1.0, 2.0):
                mass = integrate_semi_infinite(
                    lambda u: model.marginal_pdf(np.maximum(u, 1e-300), x),
                    abs_tol=1e-9, rel_tol=1e-6)
                assert mass == pytest.approx(1.0, abs=1e-6)


class TestStableFamily:
    def test_half_index_closed_form(self):
        val = stable_pdf(1.0, 1.0, 0.5)
        closed = math.exp(-0.25) / (2.0 * math.sqrt(math.pi))
        assert val == pytest.approx(closed, rel=1e-14)
        assert closed == pytest.approx(0.219696, abs=5e-7)

    def test_half_index_mass(self):
        mass = integrate_semi_infinite(
            lambda u: stable_pdf(np.maximum(u, 1e-300), 1.0, 0.5), abs_tol=1e-9, rel_tol=1e-6)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_ig_driftless_is_half_stable(self):
        # IG(a, 0) at x equals the half-index density with time a*sqrt(2):
        # both transforms are exp(-a sqrt(2 s))
        a = 1.3
        for x in (0.2, 0.7, 2.5):
            assert ig_pdf(x, 1.0, IGParams(a, 0.0)) == pytest.approx(
                stable_pdf(x, a * math.sqrt(2.0), 0.5), rel=1e-13)

    def test_third_index_lt_consistency(self):
        # Bessel-form density integrates back to the transform
        for s in (0.5, 2.0):
            val = integrate_semi_infinite(
                lambda u: np.exp(-s * u) * stable_pdf(np.maximum(u, 1e-300), 1.3, 1.0 / 3.0))
            assert val == pytest.approx(math.exp(-1.3 * s ** (1.0 / 3.0)), abs=1e-8)

    @staticmethod
    def _series_oracle(w: float, beta: float, terms: int = 150) -> float:
        # convergent series for the unit stable density, reliable in the bulk
        parts = []
        for k in range(1, terms + 1):
            parts.append((-1) ** (k + 1)
                         * math.gamma(beta * k + 1.0) / math.factorial(k)
                         * math.sin(math.pi * beta * k) * w ** (-beta * k - 1.0))
        assert abs(parts[-1]) < 1e-13 * abs(math.fsum(parts))
        return math.fsum(parts) / math.pi

    def test_general_index_ilt_route_bulk(self):
        # real-axis inversion of e^(-s^beta), a low-accuracy oracle route; in
        # the bulk it tracks the convergent series oracle to a few percent
        ws = np.array([0.6, 1.0])
        vals = invert_laplace(lambda s: np.exp(-s ** 0.75), ws)
        for w, val in zip(ws, vals):
            assert val == pytest.approx(self._series_oracle(w, 0.75), rel=5e-2)

    def test_general_index_ilt_detects_onset_garbage(self):
        # in the steep left onset the inversion cannot be trusted and says so
        from ighit.errors import NumericalInstability
        with pytest.raises(NumericalInstability):
            invert_laplace(lambda s: np.exp(-s ** 0.75), np.array([0.18]))

    @staticmethod
    def _onset(beta: float) -> float:
        # w where the least exponent (1 - beta)(w/beta)^(-beta/(1-beta)) is 30
        return beta * (30.0 / (1.0 - beta)) ** (-(1.0 - beta) / beta)

    def test_kanter_matches_closed_forms(self):
        # Kanter's integral against the beta = 1/2 density and CDF and the
        # beta = 1/3 Bessel density, from the e^(-30) onset up to 1e5; at the
        # onset the rule's nodes lie within 1e-3 of u = 0, where sin u and
        # sin(beta u) must be taken of one and the same u
        w = np.geomspace(self._onset(0.5), 1e5, 300)
        cdf, pdf = _unit_stable_cdf_pdf(w, 0.5)
        assert np.allclose(pdf, stable_pdf(w, 1.0, 0.5), rtol=1e-13, atol=0.0)
        assert np.allclose(cdf, stable_cdf(w, 1.0, 0.5), rtol=1e-13, atol=0.0)
        w = np.geomspace(self._onset(1.0 / 3.0), 1e5, 300)
        pdf = _unit_stable_cdf_pdf(w, 1.0 / 3.0)[1]
        assert np.allclose(pdf, stable_pdf(w, 1.0, 1.0 / 3.0), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.7, 0.9, 0.95, 0.99])
    def test_kanter_matches_series(self, beta):
        # at beta = 0.99, w = 1 is beyond the series oracle's 150 terms
        for w in (1.0, 2.0, 5.0) if beta < 0.99 else (2.0, 5.0):
            pdf = _unit_stable_cdf_pdf(w, beta)[1]
            assert pdf == pytest.approx(self._series_oracle(w, beta), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.7, 0.9, 0.95, 0.99, 0.999])
    def test_kanter_cdf_integrates_density(self, beta):
        # F(b) - F(a) against adaptive quadrature of f, over panels from the
        # e^(-30) onset into the power-law tail
        edges = self._onset(beta) * np.array([1.0, 2.0, 10.0, 1e2, 1e4])
        cdf = _unit_stable_cdf_pdf(edges, beta)[0]
        for a, b, fa, fb in zip(edges[:-1], edges[1:], cdf[:-1], cdf[1:]):
            mass = integrate_interval(lambda w: _unit_stable_cdf_pdf(w, beta)[1], a, b,
                                      abs_tol=1e-300, rel_tol=1e-13)
            assert fb - fa == pytest.approx(mass, rel=1e-11)
        assert cdf[0] < 1e-12 and np.all(np.diff(cdf) > 0)

    @pytest.mark.parametrize("beta", [0.2, 0.7, 0.9, 0.99, 0.999])
    def test_kanter_array_matches_scalar_calls(self, beta):
        # the panels of a point do not depend on the other points of a call,
        # and each panel's sum on its row's position: one call of many points
        # and one call per point agree bit for bit, onset to far tail
        w = np.geomspace(0.9 * self._onset(beta), 1e6, 97)
        cdf, pdf = _unit_stable_cdf_pdf(w, beta)
        singles = np.array([_unit_stable_cdf_pdf(x, beta) for x in w])
        assert np.array_equal(cdf, singles[:, 0]) and np.array_equal(pdf, singles[:, 1])

    def test_kanter_underflow_and_tail(self):
        # deep in the onset both values underflow to 0; far in the tail
        # F -> 1 and f -> sin(pi beta) Gamma(1 + beta) w^(-1-beta) / pi
        cdf, pdf = _unit_stable_cdf_pdf(np.array([1e-300, 1e300]), 0.7)
        assert cdf[0] == 0.0 and pdf[0] == 0.0
        assert cdf[1] == 1.0
        tail = math.sin(0.7 * math.pi) * math.gamma(1.7) * 1e300 ** -1.7 / math.pi
        assert pdf[1] == pytest.approx(tail, rel=1e-12)

    def test_third_index_cdf_against_bessel_density(self):
        # beta = 1/3 distribution function (Kanter's integral) against
        # adaptive quadrature of the Bessel-form density
        t = 1.3
        xs = np.array([0.05, 0.4, 1.0, 5.0, 50.0])
        cdf = stable_cdf(xs, t, 1.0 / 3.0)
        for x, val in zip(xs, cdf):
            mass = integrate_interval(
                lambda u: stable_pdf(np.maximum(u, 1e-300), t, 1.0 / 3.0), 0.0, x,
                abs_tol=1e-15, rel_tol=1e-13)
            assert val == pytest.approx(mass, rel=1e-12)

    def test_ts_reduces_to_stable_when_untempered(self):
        assert ts_pdf(1.0, 1.0, 0.5, 0.0) == pytest.approx(
            stable_pdf(1.0, 1.0, 0.5), rel=1e-14)

    @pytest.mark.parametrize("beta", [1.0 / 3.0, 0.5, 0.7], ids=["third", "half", "general"])
    def test_untempered_model_is_the_stable_one(self, beta):
        # at mu = 0 the tempered model's pieces are the stable ones, bit for bit
        model = TemperedStableSubordinator(beta, 0.0)
        s = np.array([0.0, 0.3, 1.0, 7.5])
        u = np.geomspace(1e-3, 40.0, 9)
        assert np.array_equal(model.psi(s), s ** beta)
        assert model.psi(2.0) == 2.0 ** beta
        assert np.array_equal(model.levy_tail(u), u ** (-beta) / math.gamma(1.0 - beta))
        assert model.levy_tail(0.7) == np.asarray(0.7) ** (-beta) / math.gamma(1.0 - beta)
        assert np.array_equal(model.marginal_pdf(u, 1.3), stable_pdf(u, 1.3, beta))
        assert model.marginal_pdf(0.7, 1.3) == stable_pdf(0.7, 1.3, beta)

    @pytest.mark.parametrize("beta, value", [
        (0.5, 2.8209479177387814347e164), (1.0 / 3.0, 2.4616270387388277098e129)],
        ids=["half", "third"])
    def test_closed_forms_finite_where_the_power_overflows(self, beta, value):
        # u^(-3/2) overflows at u = 1e-210 but the density, at t = 1e-150, does
        # not.  References: mpmath 1.3.0 at 40 digits, evaluating the closed
        # forms t u^(-3/2) e^(-t^2/(4u)) / (2 sqrt(pi)) (index 1/2) and
        # t^(3/2) u^(-3/2) K_(1/3)(2 t^(3/2) / sqrt(27 u)) / (3 pi) (index 1/3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = stable_pdf(1e-210, 1e-150, beta)
            table = stable_pdf(np.array([1e-210, 1.0]), 1e-150, beta)
            tiny = stable_pdf(1e-300, 1.0, beta)
        assert scalar == pytest.approx(value, rel=1e-13)
        assert table[0] == scalar and table[1] == stable_pdf(1.0, 1e-150, beta)
        # where the damping factor underflows the density is still 0
        assert tiny == 0.0

    def test_ts_mass(self):
        mass = integrate_semi_infinite(
            lambda u: ts_pdf(np.maximum(u, 1e-300), 1.0, 0.5, 1.0))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_ts_levy_constant_reproduces_exponent(self):
        # with c = beta / Gamma(1 - beta) the Levy integral of (1 - e^(-su))
        # gives (s + mu)^beta - mu^beta; checked at beta=1/2, mu=1, s=2
        beta, mu, s = 0.5, 1.0, 2.0
        c = beta / math.gamma(1.0 - beta)

        def f(v):
            u = v * v
            return (1.0 - np.exp(-s * u)) * c * np.exp(-mu * u) * u ** -1.5 * 2.0 * v

        val = integrate_semi_infinite(f)
        assert val == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-8)
        assert ts_psi(s, beta, mu) == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-14)

    def test_ts_levy_tail_quadrature(self):
        beta, mu = 0.5, 1.0
        c = beta / math.gamma(1.0 - beta)
        quad = integrate_semi_infinite(
            lambda y: c * np.exp(-mu * (0.7 + y)) * (0.7 + y) ** (-beta - 1.0))
        assert ts_levy_tail(0.7, beta, mu) == pytest.approx(quad, rel=1e-8)

    @pytest.mark.parametrize("u, value", [
        (10.0, 3.556945250450337202370249e-7), (316.0, 2.895729149014565647073973e-142)])
    def test_half_index_tail_far_out(self, u, value):
        # the index-1/2 tail is the IG tail of ts_half_ig_params(mu):
        # e^(-mu u)/sqrt(pi u) - sqrt(mu) erfc(sqrt(mu u)), which cancels as mu u
        # grows.  References: mpmath 1.3.0 at 50 digits, from that closed form
        # and from Gamma(-1/2, mu u) / (2 sqrt(pi)) alike, at mu = 1
        assert ts_levy_tail(u, 0.5, 1.0) == pytest.approx(value, rel=1e-13, abs=0.0)
        assert ts_levy_tail(u, 0.5, 1.0) == ig_levy_tail(u, ts_half_ig_params(1.0))

    def test_ts_levy_tail_third_index(self):
        beta, mu = 1.0 / 3.0, 0.8
        c = beta / math.gamma(1.0 - beta)
        quad = integrate_semi_infinite(
            lambda y: c * np.exp(-mu * (0.5 + y)) * (0.5 + y) ** (-beta - 1.0))
        assert ts_levy_tail(0.5, beta, mu) == pytest.approx(quad, rel=1e-8)

    def test_ts_levy_tail_array_matches_points(self):
        # mu * u spans both upper_gamma branches
        u = np.array([[1e-6, 0.01, 0.3], [0.9, 1.25, 1.3], [2.0, 7.5, 40.0]])
        out = ts_levy_tail(u, 1.0 / 3.0, 0.8)
        assert out.shape == u.shape
        points = np.array([[ts_levy_tail(float(ui), 1.0 / 3.0, 0.8) for ui in row] for row in u])
        assert np.array_equal(out, points)

    @pytest.mark.parametrize("u", [math.nan, math.inf, np.array([0.5, math.nan])])
    def test_ts_levy_tail_non_finite(self, u):
        with pytest.raises(DomainError):
            ts_levy_tail(u, 1.0 / 3.0, 0.8)

    @pytest.mark.parametrize("beta", [0.5, 1.0 / 3.0, 0.7], ids=["half", "third", "general"])
    def test_densities_broadcast_over_time(self, beta):
        # one call over (x, u) pairs, as the grid convolution makes it, with
        # more than 256 pairs so bessel_k runs in chunks
        us = np.geomspace(1e-3, 3.0, 40)
        xs = np.linspace(0.25, 2.0, 8)
        for fn in (lambda u, t: stable_pdf(u, t, beta),
                   lambda u, t: ts_pdf(u, t, beta, 0.8)):
            table = fn(us[None, :], xs[:, None])
            assert table.shape == (xs.size, us.size)
            rows = np.array([fn(us, float(x)) for x in xs])
            assert np.allclose(table, rows, rtol=1e-13, atol=0.0)
        assert ts_pdf(0.7, np.array([1.3]), beta, 0.8) == pytest.approx(
            ts_pdf(0.7, 1.3, beta, 0.8), rel=1e-15)


NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: ig_levy_tail(NAN, IGParams(1.0, 1.0)),
    lambda: ig_levy_tail(np.array([0.5, math.inf]), IGParams(1.0, 1.0)),
    lambda: ig_pdf(NAN, 1.0, IGParams(1.0, 1.0)),
    lambda: ts_levy_tail(NAN, 0.5, 0.0),
    lambda: ts_levy_tail(NAN, 0.5, 1.0),
    lambda: ts_levy_tail(NAN, 1.0 / 3.0, 0.0),
    lambda: ts_pdf(NAN, 1.0, 1.0 / 3.0, 1.0),
    lambda: ts_pdf(1.0, NAN, 1.0 / 3.0, 1.0),
    lambda: ts_pdf(1.0, np.array([1.0, math.inf]), 0.5, 1.0),
    lambda: stable_pdf(NAN, 1.0, 1.0 / 3.0),
    lambda: stable_pdf(1.0, NAN, 0.5),
    lambda: stable_pdf(NAN, 1.0, 0.75),
    lambda: stable_sample(NAN, 1.0 / 3.0, np.random.default_rng(0), size=3),
    lambda: stable_sample(math.inf, 1.0 / 3.0, np.random.default_rng(0), size=3),
    lambda: ts_sample(1.0, 1.0 / 3.0, NAN, np.random.default_rng(0), size=3),
    lambda: ts_sample(NAN, 1.0 / 3.0, 1.0, np.random.default_rng(0), size=3),
    lambda: ts_sample(1.0, 1.0 / 3.0, math.inf, np.random.default_rng(0), size=3),
    lambda: ts_sample(1.0, NAN, 1.0, np.random.default_rng(0), size=3),
    lambda: TemperedStableSubordinator(0.5, NAN),
    lambda: TemperedStableSubordinator(0.5, math.inf),
    lambda: ts_pdf(1.0, 1.0, 1.0 / 3.0, NAN),
    lambda: ts_psi(1.0, 1.0 / 3.0, NAN),
    lambda: ts_levy_tail(1.0, 1.0 / 3.0, NAN),
    lambda: stable_cdf(NAN, 1.0, 0.5),
    lambda: stable_cdf(1.0, NAN, 0.5),
    lambda: ig_cdf(NAN, 1.0, IGParams(1.0, 1.0)),
    lambda: ig_cdf(np.array([0.5, NAN, math.inf]), 1.0, IGParams(1.0, 1.0)),
    lambda: ig_psi(NAN, IGParams(1.0, 1.0)),
    lambda: ig_psi(np.array([1.0, math.inf]), IGParams(1.0, 1.0)),
    lambda: ig_psi(complex(NAN, 1.0), IGParams(1.0, 1.0)),
    lambda: ts_psi(NAN, 0.5, 1.0),
    lambda: ts_psi(-math.inf, 0.5, 1.0),
    lambda: TemperedStableSubordinator(0.5, 0.0).psi(NAN),
    lambda: TemperedStableSubordinator(0.5, 1.0).psi(math.inf),
    lambda: hitting_path(IGParams(1.0, 1.0), math.inf, 0.1,
                         np.random.default_rng(0)),
    lambda: hitting_path(IGParams(1.0, 1.0), NAN, 0.1,
                         np.random.default_rng(0)),
    lambda: hitting_path(IGParams(1.0, 1.0), 1e300, 1e-300,
                         np.random.default_rng(0)),
], ids=["ig_tail_u_nan", "ig_tail_u_inf", "ig_pdf_x_nan", "stable_tail_u_nan",
        "ts_tail_half_u_nan", "ts_tail_untempered_u_nan", "ts_pdf_u_nan", "ts_pdf_t_nan",
        "ts_pdf_t_inf", "stable_pdf_u_nan", "stable_pdf_t_nan", "stable_pdf_inverted_u_nan",
        "stable_sample_t_nan", "stable_sample_t_inf", "ts_sample_mu_nan", "ts_sample_t_nan",
        "ts_sample_mu_inf", "ts_sample_beta_nan", "ts_model_mu_nan", "ts_model_mu_inf",
        "ts_pdf_mu_nan", "ts_psi_mu_nan", "ts_tail_mu_nan", "stable_cdf_x_nan", "stable_cdf_t_nan",
        "ig_cdf_x_nan", "ig_cdf_x_array_nan", "ig_psi_s_nan", "ig_psi_s_inf",
        "ig_psi_s_complex_nan", "ts_psi_s_nan", "ts_psi_s_minus_inf", "stable_psi_s_nan",
        "ts_model_psi_s_inf", "hitting_path_horizon_inf", "hitting_path_horizon_nan",
        "hitting_path_step_count_inf"])
def test_non_finite_input_rejected(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("draw", [
    lambda rng: stable_sample(math.inf, 0.5, rng, size=3),
    lambda rng: ts_sample(NAN, 1.0 / 3.0, 1.0, rng, size=3),
    lambda rng: ts_sample(1.0, 1.0 / 3.0, math.inf, rng, size=3),
    # an index outside (0, 1) is a domain error, not an exhausted budget
    # (mu^beta t = 1e6 lies far beyond log TRIAL_CAP), and
    # so is a negative size, at every index
    lambda rng: ts_sample(1.0, 1.5, 1e4, rng, size=3),
    lambda rng: ts_sample(1.0, 0.0, 1.0, rng, size=3),
    lambda rng: ts_sample(1.0, 1.0 / 3.0, 1.0, rng, size=-2),
    lambda rng: ts_sample(1.0, 1.0 / 3.0, 1.0, rng, size=(2, -1)),
    lambda rng: ts_sample(1.0, 0.5, 1.0, rng, size=-2),
    lambda rng: stable_sample(1.0, 1.0 / 3.0, rng, size=-2),
    lambda rng: stable_sample(1.0, 0.7, rng, size=(2, -1)),
    lambda rng: ig_sample(1.0, IGParams(1.0, 1.0), rng, size=-2),
    lambda rng: ig_sample(1.0, IGParams(1.0, 0.0), rng, size=(2, -1)),
    # the draws scale by t^(1/beta), which overflows a float here
    lambda rng: stable_sample(1e100, 0.2, rng),
    lambda rng: ts_sample(1e100, 0.2, 0.0, rng, size=3),
    # the IG draws scale by (delta t / gamma)^2, and by (delta t)^2 at gamma = 0
    lambda rng: ig_sample(1e200, IGParams(1.0, 1.0), rng, size=3),
    lambda rng: ig_sample(1e200, IGParams(1.0, 0.0), rng, size=3),
], ids=["stable_t_inf", "ts_t_nan", "ts_mu_inf", "ts_beta_above_one", "ts_beta_zero",
        "ts_size_negative", "ts_shape_negative", "ts_half_size_negative",
        "stable_size_negative", "stable_shape_negative", "ig_size_negative",
        "ig_driftless_shape_negative", "stable_scale_overflow", "ts_scale_overflow",
        "ig_scale_overflow", "ig_driftless_scale_overflow"])
def test_samplers_reject_before_drawing(draw):
    rng = np.random.default_rng(10)
    with pytest.raises(DomainError):
        draw(rng)
    assert rng.random() == np.random.default_rng(10).random()


def _kanter(t, beta, u, e):
    """The general Kanter formula on given uniforms u in (0, pi) and exponentials e."""
    ratio = (1.0 - beta) / beta
    return t ** (1.0 / beta) * (np.sin(beta * u) * np.sin((1.0 - beta) * u) ** ratio
                                / (np.sin(u) ** (1.0 / beta) * e ** ratio))


def _kanter_whole_arrays(t, beta, u, p):
    """`_kanter_draws` as whole-array expressions on U = pi u and p = E^((1-beta)/beta)."""
    if beta == 1.0 / 3.0:
        q = 4.0 * np.cos(beta * u) ** 2
        s = q / ((p * (q - 1.0)) * (q - 1.0) * (q - 1.0))
    elif beta == 0.5:
        c = np.cos(beta * u)
        s = 1.0 / (4.0 * c * c * p)
    else:
        ratio = (1.0 - beta) / beta
        s = (np.sin(beta * u) * np.sin((1.0 - beta) * u) ** ratio
             / (np.sin(u) ** (1.0 / beta) * p))
    return t ** (1.0 / beta) * s


def _power_whole_arrays(e, beta):
    """`_exponential_power` as a new array: E^((1-beta)/beta)."""
    if beta == 1.0 / 3.0:
        return e * e
    if beta == 0.5:
        return e
    return e ** ((1.0 - beta) / beta)


def _stable_whole_arrays(t, beta, rng, size):
    """`stable_sample` as whole-array expressions, one new array per operation.

    A single draw is a one-element array here, so that, as on the 0-d arrays
    of `stable_sample`, every operation takes numpy's array route.
    """
    u = math.pi * rng.random((1,) if size is None else size)
    e = rng.standard_exponential(u.shape)
    out = _kanter_whole_arrays(t, beta, u, _power_whole_arrays(e, beta))
    return float(out[0]) if size is None else out


def _ts_whole_arrays(t, beta, mu, rng, size):
    """`ts_sample` as whole-array expressions, block by block.

    A block proposes min(PASS_BLOCK, ceil(missing e^lam)): E and V for all,
    U only for those V <= e^(-mu floor / E^ratio) keeps, and it appends the
    draws that V <= e^(-mu x) accepts, up to the size asked for.
    """
    n = 1 if size is None else int(np.prod(size))
    growth = math.exp(mu ** beta * t)
    floor = _kanter_floor(t, beta)
    out = np.empty(0)
    while out.size < n:
        m = min(PASS_BLOCK, math.ceil((n - out.size) * growth))
        e = rng.standard_exponential(m)
        v = rng.random(m)
        p = _power_whole_arrays(e, beta)
        survive = v <= np.exp(-mu * floor / p)
        p, v = p[survive], v[survive]
        draws = _kanter_whole_arrays(t, beta, math.pi * rng.random(p.size), p)
        accepted = draws[v <= np.exp(draws * -mu)]
        out = np.concatenate([out, accepted[:n - out.size]])
    return float(out[0]) if size is None else out.reshape(size)


BLOCK_EDGE_SIZES = [None, 1, PASS_BLOCK - 1, PASS_BLOCK, PASS_BLOCK + 1, 4 * PASS_BLOCK + 3,
                    (3, 5)]
BLOCK_EDGE_IDS = ["scalar", "one", "block_less_one", "block", "block_plus_one",
                  "four_blocks_plus_three", "grid"]


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES, ids=BLOCK_EDGE_IDS)
@pytest.mark.parametrize("mu", [1e-300, 1.0], ids=["untempered", "tempered"])
@pytest.mark.parametrize("beta", [1.0 / 3.0, 0.7], ids=["third", "general"])
def test_ts_blocks_bit_identical_to_whole_passes(beta, mu, size):
    # the in-place two-stage blocks draw the same numbers, in the same order,
    # and leave the generator where the whole-array blocks do; at mu = 1e-300
    # e^lam rounds to 1 and no proposal is rejected, so a block holds as many
    # proposals as draws are missing and the sizes land on block edges (mu = 0
    # itself is `stable_sample`); single draws repeat, since a last-bit
    # difference shows in a few percent
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(300 if size is None else 1):
        d = ts_sample(1.3, beta, mu, rng, size)
        expected = _ts_whole_arrays(1.3, beta, mu, ref, size)
        assert type(d) is type(expected)
        assert np.array_equal(d, expected)
        assert np.shape(d) == np.shape(expected)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES, ids=BLOCK_EDGE_IDS)
@pytest.mark.parametrize("beta", [1.0 / 3.0, 0.5, 0.7], ids=["third", "half", "general"])
def test_ts_untempered_is_stable_sample(beta, size):
    # mu = 0 draws `stable_sample`'s numbers and leaves the generator where it does
    rng, ref = np.random.default_rng(33), np.random.default_rng(33)
    d = ts_sample(1.3, beta, 0.0, rng, size)
    expected = stable_sample(1.3, beta, ref, size)
    assert type(d) is type(expected)
    assert np.array_equal(d, expected)
    assert np.shape(d) == np.shape(expected)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("beta", [0.2, 1.0 / 3.0, 0.7, 0.9],
                         ids=["fifth", "third", "general", "near_one"])
def test_ts_squeeze_below_every_kanter_draw(beta):
    # stage 1 of ts_sample rejects on floor / E^ratio, so the floor must lie
    # at or below the rounded draw at E = 1 for every U, down to u = 2^-53,
    # the least positive uniform, and up to within 2^-53 of 1
    edge = np.geomspace(2.0 ** -53, 1e-3, 2000)
    u = np.concatenate([edge, np.linspace(0.0, 1.0, 200_001)[1:-1], 1.0 - edge])
    for t in (1.0, 1.3):
        draws = _kanter_draws(t, beta, u.copy(), np.ones_like(u), np.empty_like(u))
        assert np.all(np.isfinite(draws))
        assert np.all(_kanter_floor(t, beta) <= draws)


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES, ids=BLOCK_EDGE_IDS)
@pytest.mark.parametrize("beta", [1.0 / 3.0, 0.5, 0.7], ids=["third", "half", "general"])
def test_stable_in_place_bit_identical_to_whole_arrays(beta, size):
    rng, ref = np.random.default_rng(32), np.random.default_rng(32)
    for _ in range(300 if size is None else 1):
        d = stable_sample(0.8, beta, rng, size)
        expected = _stable_whole_arrays(0.8, beta, ref, size)
        assert type(d) is type(expected)
        assert np.array_equal(d, expected)
        assert np.shape(d) == np.shape(expected)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("beta", [0.999, 0.9999, 0.99999])
def test_kanter_near_index_one_raises_no_warning(beta):
    # the points of `ighit stable`'s default grid, x in 0.05:4:0.05 at t = 1;
    # at 0.9999 the powers of 4 of Kanter's panel edges overflowed
    u = np.arange(1, 81) * 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = stable_pdf(u ** (-1.0 / beta), 1.0, beta)
        cdf = stable_cdf(u ** (-1.0 / beta), 1.0, beta)
    assert np.all(np.isfinite(dens)) and np.all((cdf >= 0.0) & (cdf <= 1.0))


def _ig_cdf_both_forms(x, a, b):
    """`_ig_cdf` with the plain and the erfcx form evaluated at every point."""
    sq = np.sqrt(x)
    u = b * sq - a / sq
    v = b * sq + a / sq
    with np.errstate(over="ignore"):
        small = 2.0 * a * b <= 30.0
        plain = norm_cdf(u) + np.where(small, np.exp(2.0 * a * b), 0.0) * norm_cdf(-v)
        scaled = norm_cdf(u) + 0.5 * np.exp(-0.5 * u * u) * erfcx(v / math.sqrt(2.0))
    return np.clip(np.where(small, plain, scaled), 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (20.0, 2.0), (0.3, 0.01), (5.0, 3.0)])
def test_ig_cdf_takes_one_form_per_point(a, b):
    # each point evaluates only the form it keeps, to the same bits
    x = np.geomspace(1e-4, 1e4, 10 ** 5)
    assert np.array_equal(_ig_cdf(x, np.asarray(a), b), _ig_cdf_both_forms(x, np.asarray(a), b))
    shapes = np.geomspace(0.01, 50.0, x.size)
    assert np.array_equal(_ig_cdf(x, shapes, b), _ig_cdf_both_forms(x, shapes, b))


@pytest.mark.parametrize("beta", [0.5, 1.0 / 3.0, 0.7], ids=["half", "third", "inverted"])
def test_stable_cdf_limits(beta):
    # the quadrature routes integrate up to x, so x = inf must not reach them
    assert stable_cdf(math.inf, 1.0, beta) == 1.0
    assert np.array_equal(stable_cdf(np.array([-1.0, 0.0, math.inf]), 1.0, beta),
                          [0.0, 0.0, 1.0])


class TestSamplers:
    def test_stable_laplace_convention(self):
        rng = np.random.default_rng(5)
        d = stable_sample(1.0, 0.5, rng, size=10 ** 6)
        vals = np.exp(-d)
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-1.0)) < 4.0 * se

    def test_ts_untempered_matches_stable(self):
        rng = np.random.default_rng(6)
        d = ts_sample(1.0, 0.5, 0.0, rng, size=10 ** 5)
        cdf = lambda x: stable_cdf(x, 1.0, 0.5)
        assert ecdf_ks(d, cdf) < ks_critical_1pct(d.size)

    def test_ts_tilted_laplace_value(self):
        rng = np.random.default_rng(8)
        d = ts_sample(1.0, 0.5, 1.0, rng, size=2 * 10 ** 5)
        vals = np.exp(-d)
        se = vals.std() / math.sqrt(vals.size)
        target = math.exp(-(math.sqrt(2.0) - 1.0))
        assert abs(vals.mean() - target) < 4.0 * se
        assert target == pytest.approx(math.exp(-0.414214), abs=1e-6)

    @pytest.mark.parametrize("beta", [1.0 / 3.0, 0.5, 0.7, 0.99, 0.999],
                             ids=["third", "half", "general", "near_one", "nearer_one"])
    def test_stable_closed_forms_match_kanter(self, beta):
        # the same (U, E) from a cloned generator: the closed forms at 1/3
        # and 1/2 draw the same random numbers, in the same order, as the
        # general formula, and agree with it to rounding; near beta = 1 a
        # draw with U within 0.003 of pi (about 0.1 % of them) is still finite
        rng = np.random.default_rng(20)
        clone = copy.deepcopy(rng)
        d = stable_sample(1.3, beta, rng, size=10 ** 6)
        u = clone.uniform(0.0, math.pi, d.size)
        general = _kanter(1.3, beta, u, clone.standard_exponential(d.size))
        rel = np.abs(d / general - 1.0)
        if beta == 1.0 / 3.0:
            # 4c^2 - 1 loses relative accuracy like eps / (pi - u) near u = pi
            assert np.all(rel <= 1e-13 * np.maximum(1.0, 1.0 / (math.pi - u)))
        elif beta == 0.5:
            assert np.all(rel <= 1e-14)
        else:
            assert np.array_equal(d, general)
            assert np.all(np.isfinite(d))
        assert rng.random() == clone.random()
        one = stable_sample(1.3, beta, np.random.default_rng(20))
        again = np.random.default_rng(20)
        assert type(one) is float
        assert one == pytest.approx(_kanter(1.3, beta, again.uniform(0.0, math.pi),
                                            again.standard_exponential()), rel=1e-13)

    @pytest.mark.parametrize("beta, mu", [
        (1.0 / 3.0, 1.0), (1.0 / 3.0, 0.0), (0.2, 0.3), (0.2, 3.0), (0.7, 0.3), (0.7, 3.0),
    ], ids=["tempered", "untempered", "fifth_mu0.3", "fifth_mu3", "general_mu0.3",
            "general_mu3"])
    def test_ts_third_laplace_values(self, beta, mu):
        # e^(-t ((s + mu)^beta - mu^beta)) at t = 1; index 1/3 at mu = 1 is the
        # benchmark's case, and mu = 3 at index 0.7 takes e^(3^0.7) = 8.7
        # proposals per draw
        d = ts_sample(1.0, beta, mu, np.random.default_rng(22), size=2 * 10 ** 5)
        for s in (0.5, 2.0):
            vals = np.exp(-s * d)
            se = vals.std() / math.sqrt(vals.size)
            target = math.exp(-((s + mu) ** beta - mu ** beta))
            assert abs(vals.mean() - target) < 4.0 * se

    def test_ts_appends_in_order_of_acceptance(self):
        # the first block proposes ceil(1000 e) = 2719 (E, V) pairs and draws U
        # for those the squeeze keeps; its accepted draws lead the output, and
        # those beyond the 1000 asked for are dropped (1011 at this seed)
        rng = np.random.default_rng(23)
        clone = copy.deepcopy(rng)
        d = ts_sample(1.0, 1.0 / 3.0, 1.0, rng, size=1000)
        e = clone.standard_exponential(2719)
        v = clone.random(2719)
        survive = v <= np.exp(-_kanter_floor(1.0, 1.0 / 3.0) / (e * e))
        u, e, v = clone.random(np.count_nonzero(survive)), e[survive], v[survive]
        first = _kanter_draws(1.0, 1.0 / 3.0, u, e * e, np.empty_like(u))
        kept = first[v <= np.exp(-first)]
        lead = min(kept.size, d.size)
        assert lead > 0
        assert np.array_equal(d[:lead], kept[:lead])

    def test_ts_sample_shapes(self):
        rng = np.random.default_rng(24)
        one = ts_sample(1.0, 1.0 / 3.0, 1.0, rng)
        assert type(one) is float and one > 0
        grid = ts_sample(1.0, 1.0 / 3.0, 1.0, rng, size=(3, 4))
        assert grid.shape == (3, 4) and np.all(grid > 0)
        empty = ts_sample(1.0, 1.0 / 3.0, 1.0, rng, size=0)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_ts_budget_exceeded(self, monkeypatch):
        rng = np.random.default_rng(9)
        with pytest.raises(BudgetExceeded):
            ts_sample(4.0, 1.0 / 3.0, 400.0, rng, size=4)
        # mu^beta t = 1.6e6: e^(mu^beta t) overflows a float, yet the budget,
        # not an OverflowError, ends the call
        with pytest.raises(BudgetExceeded):
            ts_sample(100.0, 0.7, 1e6, rng, size=2)
        # e^(mu^beta t) alone beyond the budget raises before the first
        # block, with the generator untouched
        rng = np.random.default_rng(9)
        with pytest.raises(BudgetExceeded):
            ts_sample(100.0, 0.7, 1e6, rng, size=4096)
        monkeypatch.setattr(subordinators, "TRIAL_CAP", 8)
        with pytest.raises(BudgetExceeded):
            ts_sample(1.0, 0.7, 3.0, rng, size=4)
        assert rng.random() == np.random.default_rng(9).random()

    def test_ts_half_index_is_the_ig_law(self):
        # index 1/2 draws the IG marginal at ts_half_ig_params(mu) directly:
        # the same numbers as ig_sample on the same generator, no rejection
        for mu in (1.0, 400.0):
            d = ts_sample(4.0, 0.5, mu, np.random.default_rng(25), size=(3, 4))
            ig = ig_sample(4.0, ts_half_ig_params(mu), np.random.default_rng(25), (3, 4))
            assert np.array_equal(d, ig)
        assert type(ts_sample(1.0, 0.5, 1.0, np.random.default_rng(25))) is float


class TestPaths:
    def test_monotone_and_shape(self):
        rng = np.random.default_rng(3)
        path = hitting_path(IGParams(1.0, 1.0), 1.0, 1 / 16, rng)[0]
        # a first piece of 2 horizon, 32 steps, on the grid dt k
        assert path.times.size >= 33
        assert np.array_equal(path.times, np.arange(path.times.size) / 16)
        assert path.values[0] == 0.0
        assert path.is_nondecreasing
        assert np.all(np.diff(path.values) > 0)

    def test_endpoint_mean(self):
        rng = np.random.default_rng(12)
        model = IGParams(1.0, 1.0)
        ends = np.array([hitting_path(model, 1.0, 1 / 8, rng)[0].values[8]
                         for _ in range(10 ** 4)])
        se = ends.std() / math.sqrt(ends.size)
        assert abs(ends.mean() - 1.0) < 4.0 * se

    def test_increment_aggregation_exact(self):
        # G(1) built from dt = 1/16 increments follows IG(delta, gamma) exactly
        rng = np.random.default_rng(13)
        p = IGParams(1.0, 1.0)
        incs = ig_sample(1 / 16, p, rng, size=(10 ** 5, 16))
        g1 = incs.sum(axis=1)
        assert ecdf_ks(g1, lambda x: ig_cdf(x, 1.0, p)) < ks_critical_1pct(g1.size)

    def test_extension_stops_at_the_step_cap(self, monkeypatch):
        # a horizon the path cannot reach within the cap (its mean rate is
        # 5e-4) raises once the path has used every step the cap allows
        monkeypatch.setattr(hitting, "_MAX_PATH_STEPS", 1000)
        model = TemperedStableSubordinator(0.5, 1e6)
        with pytest.raises(DomainError, match="did not pass"):
            hitting_path(model, 1.0, 1 / 16, np.random.default_rng(5))

    def test_extension_cuts_its_last_piece_to_the_cap(self, monkeypatch):
        # pieces of 32, 32, 64, 128 and 256 steps end at 512; a doubled piece
        # would pass the cap of 1000, so the last one takes the 488 left,
        # and this path passes the horizon only within those
        monkeypatch.setattr(hitting, "_MAX_PATH_STEPS", 1000)
        path = hitting_path(TemperedStableSubordinator(0.5, 500.0), 1.0, 1 / 16,
                            np.random.default_rng(3))[0]
        assert path.times.size - 1 == 1000
        assert path.values[512] <= 1.0 < path.values[-1]

    def test_extension_doubles_its_pieces(self):
        # pieces of 2, 2, 4, 8, ... time units at dt = 1/16 from the start
        path = hitting_path(TemperedStableSubordinator(0.5, 100.0), 1.0, 1 / 16,
                            np.random.default_rng(6))[0]
        assert path.values[-1] > 1.0 and path.is_nondecreasing
        assert path.times.size - 1 in {32 * (2 ** k) for k in range(1, 8)}

    def test_increments_uncorrelated(self):
        rng = np.random.default_rng(14)
        path = hitting_path(IGParams(1.0, 1.0), 1250.0, 1 / 16, rng)[0]
        incs = np.diff(path.values)
        lag1 = np.corrcoef(incs[:-1], incs[1:])[0, 1]
        assert abs(lag1) < 4.0 / math.sqrt(incs.size)

    def test_path_serialisation_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        path = hitting_path(IGParams(1.0, 1.0), 1.0, 1 / 4, rng)[0]
        csv_file = tmp_path / "path.csv"
        path.to_csv(csv_file)
        rows = csv_file.read_text().strip().split("\n")
        assert rows[0] == "t,value"
        parsed = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        assert np.array_equal(parsed[:, 0], path.times)
        assert np.array_equal(parsed[:, 1], path.values)

    def test_extension_continues_the_first_piece(self):
        # at seed 1 the first piece (2 horizon, 200 steps) of this tempered
        # stable path stays below the horizon, so the path must be extended
        model = TemperedStableSubordinator(0.5, 1.0)
        dt = 1 / 100
        first = np.cumsum(model.sample_increment(dt, np.random.default_rng(1), size=200))
        assert first[-1] <= 1.0
        path = hitting_path(model, 1.0, dt, np.random.default_rng(1))[0]
        assert path.values[-1] > 1.0
        assert path.times.size > 201
        assert np.array_equal(path.values[:201], np.r_[0.0, first])
        assert np.array_equal(path.times, dt * np.arange(path.times.size))
        assert path.is_nondecreasing

    def test_bad_grid_rejected(self):
        with pytest.raises(DomainError):
            SamplePath(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
