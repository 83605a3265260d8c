import math

import numpy as np
import pytest

from ighit.errors import DomainError
from ighit.montecarlo import MCEstimate, ecdf_ks, estimate_moment, ks_critical_1pct


class TestEstimateMoment:
    def test_degenerate_sampler(self):
        est = estimate_moment(lambda n, rng: np.full(n, 3.0), q=2.0, n=5000, seed=1)
        assert est.value == 9.0
        assert est.std_error == 0.0
        assert est.n_samples == 5000

    def test_deterministic_given_seed(self):
        sampler = lambda n, rng: rng.standard_normal(n) ** 2
        a = estimate_moment(sampler, 1.0, 200_000, seed=77)
        b = estimate_moment(sampler, 1.0, 200_000, seed=77)
        assert a.value == b.value and a.std_error == b.std_error

    def test_gaussian_second_moment(self):
        sampler = lambda n, rng: rng.standard_normal(n)
        est = estimate_moment(sampler, 2.0, 400_000, seed=5)
        assert abs(est.value - 1.0) < 4.0 * est.std_error

    def test_se_scaling(self):
        sampler = lambda n, rng: rng.standard_normal(n)
        small = estimate_moment(sampler, 2.0, 50_000, seed=9)
        big = estimate_moment(sampler, 2.0, 200_000, seed=9)
        assert big.std_error == pytest.approx(0.5 * small.std_error, rel=0.2)

    def test_elapsed_excluded_from_serialisation(self):
        est = estimate_moment(lambda n, rng: np.ones(n), 1.0, 100, seed=2)
        assert isinstance(est, MCEstimate)
        assert "elapsed" not in est.to_dict()

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            estimate_moment(lambda n, rng: np.ones(n), 1.0, 1, seed=3)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_rejected(self, q):
        with pytest.raises(DomainError):
            estimate_moment(lambda n, rng: rng.random(n), q, 10, seed=0)

    @pytest.mark.parametrize("n", [2.5, 10.0, math.nan], ids=["fractional", "float", "nan"])
    def test_non_integral_count_rejected(self, n):
        with pytest.raises(DomainError):
            estimate_moment(lambda n, rng: rng.random(n), 1.0, n, seed=0)

    def test_numpy_integer_count(self):
        est = estimate_moment(lambda n, rng: np.full(n, 2.0), 1.0, np.int64(10), seed=0)
        assert est.value == 2.0 and est.n_samples == 10

    def test_subordinator_increment_mean(self):
        from ighit.subordinators import IGParams, ig_sample
        p = IGParams(1.0, 1.0)
        est = estimate_moment(lambda n, rng: ig_sample(1.0, p, rng, n), 1.0,
                              300_000, seed=41)
        assert abs(est.value - p.delta / p.gamma) < 4.0 * est.std_error


class TestKolmogorovSmirnov:
    def test_null_calibration(self):
        # uniform samples against the uniform distribution function: the 1%
        # test should pass at least 49 of these 50 fixed seeds
        passes = 0
        for seed in range(50):
            u = np.random.default_rng(seed).uniform(size=2000)
            d = ecdf_ks(u, lambda x: np.clip(x, 0.0, 1.0))
            passes += d < ks_critical_1pct(u.size)
        assert passes >= 49

    def test_power_against_shift(self):
        u = np.random.default_rng(4).uniform(size=20_000) + 0.1
        d = ecdf_ks(u, lambda x: np.clip(x, 0.0, 1.0))
        assert d > 5.0 * ks_critical_1pct(u.size)

    @pytest.mark.parametrize("samples", [[], [0.5]], ids=["none", "one"])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(DomainError, match="^ecdf_ks: samples"):
            ecdf_ks(samples, lambda x: x)

    def test_hitting_time_samples_match_duality_cdf(self, params_11, h1_samples_11):
        from ighit.hitting import hit_cdf
        d = ecdf_ks(h1_samples_11, lambda x: hit_cdf(x, 1.0, params_11))
        assert d < ks_critical_1pct(h1_samples_11.size)


class TestHistogram:
    def test_driftless_hitting_histogram_tracks_density(self, h1_samples_10):
        # bin heights follow the half-normal density within 3 sigma of the
        # per-bin sampling noise
        heights, edges = np.histogram(h1_samples_10, bins=40, density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        widths = np.diff(edges)
        density = np.sqrt(2.0 / math.pi) * np.exp(-centers ** 2 / 2.0)
        n = h1_samples_10.size
        p = density * widths
        sigma = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / n) / widths
        core = density * widths * n > 50
        assert np.all(np.abs(heights[core] - density[core])
                      <= 3.0 * sigma[core] + 0.05 * density[core])
