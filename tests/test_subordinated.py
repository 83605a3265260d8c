import math
import tracemalloc

import numpy as np
import pytest

from ighit.errors import DomainError
from ighit.hitting import (
    density_support_cutoff,
    hit_mean,
    hit_pdf_table,
    hitting_path,
)
from ighit.numerics import composite_gauss, integrate_interval
from ighit.montecarlo import ecdf_ks, ks_critical_1pct
from ighit.subordinated import (
    sub_cdf_interpolant,
    sub_pdf,
    sub_pdf_table,
    sub_sample_path,
    sub_sample_values,
)
from ighit.subordinators import IGParams


def _mass_and_second_moment(t, params):
    """(integral of u, integral of x^2 u) over the line: quadrature of the even
    table over [0, 8 sqrt(r_max)], r_max the hitting density's support cutoff."""
    x_max = 8.0 * math.sqrt(density_support_cutoff(t, params, tail_tol=1e-11))
    edges = np.linspace(0.0, x_max, 65)
    mass = integrate_interval(lambda xs: sub_pdf_table(xs, t, params), 0.0, x_max, edges=edges)
    second = integrate_interval(lambda xs: xs * xs * sub_pdf_table(xs, t, params), 0.0, x_max,
                                edges=edges)
    return 2.0 * mass, 2.0 * second


def _table_at_one_time(xs, t, params):
    """The one-time tabulation as a loop over batches of x, kernel built afresh."""
    v_max = math.sqrt(density_support_cutoff(t, params, tail_tol=1e-11))
    edges = np.unique(np.concatenate([[0.0], np.geomspace(v_max * 1e-4, v_max, 96)]))
    pts, wts = composite_gauss(edges, 12)
    weights = wts * hit_pdf_table(pts * pts, t, params)
    inv_2v2 = 1.0 / (2.0 * pts * pts)
    out = np.empty_like(xs)
    for start in range(0, xs.size, 256):
        chunk = xs[start:start + 256]
        out[start:start + 256] = np.exp(-np.outer(chunk * chunk, inv_2v2)) @ weights
    return out * math.sqrt(2.0 / math.pi)


class TestDensity:
    def test_symmetry(self, params_11):
        assert sub_pdf(1.3, 1.0, params_11) == sub_pdf(-1.3, 1.0, params_11)
        xs = np.array([-2.0, -0.7, 0.7, 2.0])
        tab = sub_pdf_table(xs, 1.0, params_11)
        assert tab[0] == pytest.approx(tab[3], rel=1e-12)
        assert tab[1] == pytest.approx(tab[2], rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda params: sub_pdf(math.nan, 1.0, params),
        lambda params: sub_pdf(math.inf, 1.0, params),
        lambda params: sub_pdf(0.5, math.nan, params),
        lambda params: sub_pdf(0.5, math.inf, params),
        lambda params: sub_pdf_table(np.array([0.5, math.nan]), 1.0, params),
        lambda params: sub_pdf_table(np.array([0.5, 1.0]), math.nan, params),
    ], ids=["pdf_x_nan", "pdf_x_inf", "pdf_t_nan", "pdf_t_inf", "table_x_nan", "table_t_nan"])
    def test_non_finite_input_rejected(self, params_11, call):
        with pytest.raises(DomainError):
            call(params_11)

    @pytest.mark.parametrize("delta,gamma", [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_mass_and_conditional_variance(self, delta, gamma, t):
        params = IGParams(delta, gamma)
        mass, second = _mass_and_second_moment(t, params)
        assert mass == pytest.approx(1.0, abs=1e-8)
        # E X(t)^2 = E H(t): the Gaussian layer contributes its clock variance
        assert second == pytest.approx(hit_mean(t, params), abs=1e-7)

    def test_driftless_second_moment(self, params_10):
        mass, second = _mass_and_second_moment(1.0, params_10)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert second == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-7)

    def test_table_matches_scalar(self, params_11):
        xs = np.array([0.0, 0.4, 1.1, 2.6])
        tab = sub_pdf_table(xs, 1.0, params_11)
        scal = np.array([sub_pdf(float(x), 1.0, params_11) for x in xs])
        assert np.max(np.abs(tab - scal)) < 1e-10

    @pytest.mark.parametrize("gamma,xs,ts", [
        # the tables of the pde_frac_subordinated and pde_subordinated records,
        # 96 times on 4 cutoffs and 29 on 26, and grids at twice their steps,
        # 48 times on 4 cutoffs and 15 on 13
        (0.0, 0.25 + (1 / 128) * np.arange(-1, 130), np.arange(1, 97) / 128),
        (1.0, 0.3 + np.arange(-4, 63) * (1 / 48), 0.5 + np.arange(-2, 27) * (1 / 48)),
        (0.0, 0.25 + (1 / 128) * np.arange(-1, 130), np.arange(1, 49) / 64),
        (1.0, 0.3 + (1 / 24) * np.arange(-2, 32), 0.5 + (1 / 24) * np.arange(-1, 14)),
        # several batches of x, repeated times
        (0.5, np.linspace(-6.0, 6.0, 600), np.array([2.0, 0.3, 1.0, 0.3])),
    ], ids=["frac_box", "pde_box", "frac_box_coarse", "pde_box_coarse", "batches"])
    def test_one_time_tables_match_batch_loop(self, gamma, xs, ts):
        # a grid's columns share one ladder over all its cutoffs, so they are
        # not the one-time tables bit for bit; test_grid_matches_mixture
        # pins their accuracy
        params = IGParams(1.0, gamma)
        assert sub_pdf_table(xs, ts, params).shape == (xs.size, ts.size)
        for t in ts:
            assert np.array_equal(sub_pdf_table(xs, float(t), params),
                                  _table_at_one_time(xs, float(t), params))

    @pytest.mark.parametrize("gamma,xs,ts,points", [
        # the tables of the pde_subordinated and pde_frac_subordinated
        # records; reference values from mpmath at 30 digits: the mixture
        # sqrt(2/pi) * integral over v of e^(-x^2/2v^2) h(v^2, t), h in closed
        # form with erfcx = e^(z^2) erfc(z), by tanh-sinh quadrature on
        # [0, x/8, x/4, x/2, x, 2x, 1, 2, 3, 4, 6, inf], which Gauss-Legendre
        # quadrature on the same cells matched to all 30 digits
        (1.0, 0.3 + np.arange(-4, 63) * (1 / 48), 0.5 + np.arange(-2, 27) * (1 / 48), [
            (2, 1, 0.476017981152261636596949798239),
            (2, 24, 0.381403045336335123569491087199),
            (64, 27, 0.120081125194907781399426065733),
            (33, 14, 0.232045403711055827949491705797),
            (12, 21, 0.338580656334290782066098630502),
            (22, 3, 0.301305352810904935164274956179),
            (52, 6, 0.136077540789269094124362554316),
        ]),
        (0.0, 0.25 + (1 / 128) * np.arange(-1, 130), np.arange(1, 97) / 128, [
            (0, 0, 0.79621688944694951560498262394),
            (0, 10, 0.726006139902271189761722068882),
            (0, 43, 0.608808504660384559413759321492),
            (130, 95, 0.113138229101464256129288064594),
            (65, 47, 0.245352234982926258323201353405),
            (5, 90, 0.514202105667899105473571127895),
            (100, 3, 0.0397663049193802600535189094895),
        ]),
    ], ids=["pde_box", "frac_box"])
    def test_grid_matches_mixture(self, gamma, xs, ts, points):
        grid = sub_pdf_table(xs, ts, IGParams(1.0, gamma))
        for i, j, ref in points:
            assert abs(grid[i, j] - ref) < 1e-14 * grid[:, j].max()

    def test_weight_blocks_hold_peak_memory(self):
        # the pde_frac_subordinated record's fine grid, 131 x by 96 t: blocked
        # weights keep the table under the battery's peak (pde_frac_hitting)
        xs, ts = 0.25 + (1 / 128) * np.arange(-1, 130), np.arange(1, 97) / 128
        params = IGParams(1.0, 0.0)
        tracemalloc.start()
        try:
            sub_pdf_table(xs, ts, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_grid_shape_and_scalar_oracle(self, params_11):
        xs = np.array([[0.0, 0.4], [1.1, 2.6]])
        ts = np.array([0.5, 1.0, 1.7])
        grid = sub_pdf_table(xs, ts, params_11)
        assert grid.shape == (2, 2, 3)
        assert sub_pdf_table(xs, 1.0, params_11).shape == (2, 2)
        scal = np.array([[sub_pdf(float(x), float(t), params_11) for t in ts]
                         for x in xs.ravel()])
        assert np.max(np.abs(grid.reshape(4, 3) - scal)) < 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus_inf"])
    def test_grid_rejects_non_finite_t(self, params_11, bad):
        with pytest.raises(DomainError):
            sub_pdf_table(np.array([0.5, 1.0]), np.array([0.5, bad]), params_11)

    def test_cdf_interpolant(self, params_11):
        cdf = sub_cdf_interpolant(1.0, params_11)
        assert float(cdf(0.0)) == 0.5
        assert float(cdf(12.0)) == pytest.approx(1.0, abs=1e-8)
        assert float(cdf(-12.0)) == pytest.approx(0.0, abs=1e-8)
        xs = np.linspace(-5, 5, 101)
        vals = cdf(xs)
        assert np.all(np.diff(vals) >= 0)


class TestPaths:
    def test_plateaus_exactly_constant(self, params_11):
        seed = 9
        dt = 1 / 128
        x_path = sub_sample_path(params_11, 1.0, dt, np.random.default_rng(seed))
        # rebuild the driving clock with the same stream to locate its plateaus
        h_path = hitting_path(params_11, 1.0, dt, np.random.default_rng(seed))[1]
        assert np.array_equal(h_path.times, x_path.times)
        dh = np.diff(h_path.values)
        dx = np.diff(x_path.values)
        plateaus = dh == 0.0
        assert plateaus.sum() > 0
        assert np.all(dx[plateaus] == 0.0)
        assert np.any(dx[~plateaus] != 0.0)

    def test_marginal_against_density(self, params_11, x1_samples_11):
        cdf = sub_cdf_interpolant(1.0, params_11)
        n = 100_000
        assert x1_samples_11.size == n
        assert ecdf_ks(x1_samples_11, cdf) < ks_critical_1pct(n)

    def test_sample_moments(self, params_11, x1_samples_11):
        n = x1_samples_11.size
        se_mean = x1_samples_11.std() / math.sqrt(n)
        assert abs(x1_samples_11.mean()) < 4.0 * se_mean
        sq = x1_samples_11 ** 2
        se_sq = sq.std() / math.sqrt(n)
        assert abs(sq.mean() - hit_mean(1.0, params_11)) < 4.0 * se_sq

    def test_sample_values_deterministic(self, params_11):
        a = sub_sample_values(1.0, 500, params_11, 1 / 128, seed=4)
        b = sub_sample_values(1.0, 500, params_11, 1 / 128, seed=4)
        assert np.array_equal(a, b)
