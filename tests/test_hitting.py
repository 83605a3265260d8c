import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ighit import convolution, hitting
from ighit.errors import (
    DomainError,
    NonConvergence,
    NumericalInstability,
    _finite,
    _finite_nonnegative,
    _finite_positive,
)
from ighit.numerics import (
    _gauss_rule,
    erfcx,
    integrate_interval,
    integrate_semi_infinite,
    invert_laplace,
    invert_laplace_talbot,
)
from ighit.hitting import (
    _PDF_ABS_TOL,
    TailBoundReport,
    _osc_noise_estimate,
    density_support_cutoff,
    hit_boundary_slope,
    hit_boundary_value,
    hit_cdf,
    hit_lt_space,
    hit_lt_space_closed,
    hit_lt_time,
    hit_llt,
    hit_mean,
    hit_moment,
    hit_moment_quadrature,
    hit_pdf_convolution,
    hit_pdf_integral,
    hit_pdf_table,
    hit_second_moment,
    hit_survival,
    hit_variance,
    invert_path,
    printed_prefactor_ratio,
    sample_hitting_times,
    stable_hit_pdf,
    stable_hit_survival,
    stable_hit_tail_report,
    tail_report,
    ts_hit_pdf_table,
)
from ighit.montecarlo import ks_critical_1pct
from ighit.subordinators import (
    IGParams,
    SamplePath,
    TemperedStableSubordinator,
    ig_cdf,
    ig_levy_tail,
    ig_pdf,
    stable_pdf,
    ts_half_ig_params,
)
from ighit.residuals import GridBox, _grid


def half_normal_pdf(x, t):
    return math.sqrt(2.0 / (math.pi * t)) * math.exp(-x * x / (2.0 * t))


def assert_density_close(value, closed):
    # the package's default quadrature tolerances: abs 1e-10, rel 1e-8
    assert abs(value - closed) <= max(1e-10, 1e-8 * abs(closed))


P11 = IGParams(1.0, 1.0)
NAN, INF = math.nan, math.inf
# the integral oracles at tolerances below the closed forms' rounding
TIGHT = {"abs_tol": 1e-16, "rel_tol": 1e-14}


class TestDensityRoutes:
    def test_driftless_closed_form(self, params_10):
        for t in (0.5, 1.0, 2.0):
            for x in (0.0, 0.3, 1.0, 2.7):
                assert hit_pdf_integral(x, t, params_10) == pytest.approx(
                    half_normal_pdf(x, t), abs=1e-10)
        assert half_normal_pdf(1.0, 1.0) == pytest.approx(0.483941, abs=5e-7)

    def test_two_routes_agree(self, params_11):
        for t in (0.5, 1.0):
            for x in (0.25, 0.5, 1.0, 2.0):
                assert hit_pdf_integral(x, t, params_11) == pytest.approx(
                    hit_pdf_convolution(x, t, params_11), abs=1e-8)

    def test_convolution_collapses_to_levy_tail_at_origin(self, params_11):
        val = hit_pdf_convolution(1e-4, 1.0, params_11)
        assert val == pytest.approx(ig_levy_tail(1.0, params_11), abs=1e-3)

    def test_ts_convolution_normalises(self):
        model = TemperedStableSubordinator(0.5, 1.0)
        mass = integrate_semi_infinite(
            lambda x: np.array([hit_pdf_convolution(float(xi), 1.0, model)
                                for xi in np.atleast_1d(x)]))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_stable_convolution_matches_closed_form(self):
        # half-index subordinator: convolution route against the scaled
        # Gaussian hitting density
        from ighit.subordinators import TemperedStableSubordinator
        model = TemperedStableSubordinator(0.5, 0.0)
        for x in (0.5, 1.0, 2.0):
            closed = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
            assert hit_pdf_convolution(x, 1.0, model) == pytest.approx(closed, abs=1e-8)

    def test_normalisation_and_literal_failure(self, params_11):
        assert hit_moment_quadrature(0.0, 2.0, params_11) == pytest.approx(1.0, abs=1e-8)
        mass = (hit_moment_quadrature(0.0, 2.0, params_11)
                * printed_prefactor_ratio(2.0, params_11))
        assert mass == pytest.approx(math.exp(0.5), rel=1e-8)
        assert abs(mass - 1.0) > 1e-5

    def test_table_matches_scalar(self, params_11):
        xs = np.linspace(0.0, 4.0, 23)
        tab = hit_pdf_table(xs, 1.0, params_11)
        scal = np.array([hit_pdf_integral(float(x), 1.0, params_11) for x in xs])
        assert np.max(np.abs(tab - scal)) < 1e-11

    @settings(max_examples=60, deadline=None)
    @given(delta=st.floats(0.3, 3.0),
           gamma=st.one_of(st.just(0.0),
                           st.floats(math.log(1e-9), math.log(3.0)).map(math.exp)),
           t=st.floats(0.05, 8.0),
           frac=st.floats(0.01, 1.0))
    # v/sqrt(2) > 4 puts erfcx in its large-argument branch; at delta=gamma=3
    # the exp(delta*gamma*x) prefactor sends hit_pdf_integral to the convolution
    @example(delta=0.3, gamma=1e-9, t=8.0, frac=1.0)
    @example(delta=3.0, gamma=3.0, t=1.0, frac=1.0)
    def test_closed_form_matches_both_oracles(self, delta, gamma, t, frac):
        params = IGParams(delta, gamma)
        x = frac * (gamma * t + 6.0 * math.sqrt(t)) / delta
        closed = float(hit_pdf_table(x, t, params))
        assert_density_close(hit_pdf_integral(x, t, params), closed)
        assert_density_close(hit_pdf_convolution(x, t, params), closed)

    @pytest.mark.parametrize("delta,gamma,t,x", [
        (1.0, 1e-9, 1.0, 1.0),
        (1.0, 1e-6, 1.0, 1.0),
        (1.0, 1e-5, 1.0, 1.0),
        # a moderate-gamma point where the error estimate of the half-period
        # cells alone was fooled by the peak of 1/(w^2 + gamma^2/2)
        (1.800922532974708, 0.17343985951489324, 1.0735234377212077, 0.1342961070399304),
    ])
    def test_integral_route_resolves_small_gamma_peak(self, delta, gamma, t, x):
        params = IGParams(delta, gamma)
        closed = float(hit_pdf_table(x, t, params))
        assert hit_pdf_integral(x, t, params) == pytest.approx(closed, rel=1e-8)

    # (delta, gamma, t, x, h): h from the oscillatory route at the first 16
    # points (4 driftless) and from its convolution fallback at the last 8,
    # as computed before the route's fixed per-call costs were cut
    INTEGRAL_REFERENCE = (
        (1.403, 0.0, 0.628, 1.068, 0.23641602803072292),
        (1.731, 0.0, 0.521, 0.422, 1.14661556764991),
        (1.322, 0.0, 0.451, 1.262, 0.07176534593120121),
        (0.853, 0.0, 1.131, 5.4, 5.4021670223974535e-05),
        (0.995, 1.937, 1.018, 3.979, 0.07651156278881471),
        (1.355, 0.716, 1.959, 5.086, 0.0002952388683341903),
        (1.568, 2.857, 0.272, 1.733, 0.0018535348336973711),
        (0.764, 1.598, 1.819, 4.692, 0.22683985375128546),
        (0.581, 2.333, 0.314, 2.832, 0.155128177737588),
        (1.183, 1.994, 0.586, 3.719, 0.00013247349022541612),
        (0.985, 0.972, 0.454, 0.564, 0.7578066208675471),
        (1.704, 1.021, 3.079, 5.701, 0.0005307917497833388),
        (0.966, 0.756, 0.326, 2.306, 0.002968871189495941),
        (1.741, 1.128, 2.636, 1.55, 0.4309948965847252),
        (0.884, 1.116, 2.232, 3.663, 0.24587292476864542),
        (1.775, 1.975, 2.84, 5.089, 0.06633543650669607),
        (0.847, 2.337, 3.705, 19.296, 7.95439951420093e-05),
        (0.681, 2.647, 3.111, 23.951, 5.754294613594871e-06),
        (0.649, 2.646, 3.258, 24.789, 3.5976788895985066e-05),
        (0.908, 2.635, 1.626, 7.809, 0.031682200050666236),
        (0.858, 1.652, 3.423, 12.712, 0.004361361605860423),
        (1.429, 2.713, 1.904, 7.631, 9.856509060568051e-05),
        (1.52, 2.094, 1.73, 6.58, 5.301706980732157e-06),
        (1.577, 2.613, 2.736, 8.369, 0.0006179099207911864),
    )

    def test_integral_route_reference_values(self):
        fallbacks = []
        for delta, gamma, t, x, h in self.INTEGRAL_REFERENCE:
            params = IGParams(delta, gamma)
            log_pref = delta * gamma * x - 0.5 * t * gamma ** 2
            fallbacks.append(_osc_noise_estimate(log_pref, delta) > 0.25 * _PDF_ABS_TOL)
            assert hit_pdf_integral(x, t, params) == pytest.approx(h, rel=1e-13, abs=0.0)
        assert fallbacks == [False] * 16 + [True] * 8

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_float_checks_reject_non_finite(self, bad, kind):
        for check in (_finite, _finite_nonnegative, _finite_positive):
            with pytest.raises(DomainError, match="^f: x must be finite"):
                check(kind(bad), "f: x")
        with pytest.raises(DomainError, match="^hit_pdf_integral: x must be finite"):
            hit_pdf_integral(kind(bad), 1.0, P11)
        with pytest.raises(DomainError, match="^hit_pdf_integral: t must be finite and positive"):
            hit_pdf_integral(0.5, kind(bad), P11)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_float_checks_bound_t_below(self, kind):
        # a float passes through as it is, of its own type
        for value, check in ((-0.5, _finite), (0.0, _finite_nonnegative), (0.5, _finite_positive)):
            out = check(kind(value), "x")
            assert type(out) is kind and out == value
        with pytest.raises(DomainError, match="^x must be finite and nonnegative$"):
            _finite_nonnegative(kind(-0.5), "x")
        for bad_t in (0.0, -0.5):
            with pytest.raises(DomainError, match="^t must be finite and positive$"):
                _finite_positive(kind(bad_t), "t")

    def test_array_checks_test_every_entry(self):
        out = _finite_positive([0.5, 2], "t")
        assert isinstance(out, np.ndarray) and out.tolist() == [0.5, 2]
        assert _finite(np.array([]), "x").size == 0
        for bad in (NAN, INF, -INF, 0.0):
            with pytest.raises(DomainError, match="^t must be finite and positive$"):
                _finite_positive(np.array([[1.0, 2.0], [3.0, bad]]), "t")

    def test_table_broadcasts_over_x_and_t(self, params_11):
        xs = np.linspace(0.0, 3.0, 7)
        ts = np.array([0.5, 1.0, 2.0])
        grid = hit_pdf_table(xs[:, None], ts[None, :], params_11)
        assert grid.shape == (7, 3)
        ratio = printed_prefactor_ratio(ts, params_11)
        assert ratio.shape == (3,)
        for j, t in enumerate(ts):
            assert np.array_equal(grid[:, j], hit_pdf_table(xs, t, params_11))
            assert ratio[j] == printed_prefactor_ratio(t, params_11)
        assert grid[0, 2] == pytest.approx(hit_boundary_value(2.0, params_11), rel=1e-14)
        assert ratio[2] == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_domain_errors(self, params_11):
        with pytest.raises(DomainError):
            hit_pdf_integral(-0.1, 1.0, params_11)
        with pytest.raises(DomainError):
            hit_pdf_integral(1.0, 0.0, params_11)


@pytest.mark.parametrize("call", [
    lambda: IGParams(NAN, 1.0),
    lambda: IGParams(INF, 1.0),
    lambda: IGParams(1.0, NAN),
    lambda: IGParams(1.0, INF),
    lambda: ig_pdf(1.0, NAN, P11),
    lambda: ig_cdf(1.0, NAN, P11),
    lambda: integrate_interval(np.exp, 0.0, 1.0, abs_tol=NAN),
    lambda: integrate_interval(np.exp, 0.0, 1.0, rel_tol=INF),
    lambda: hit_pdf_table(np.array([0.5, NAN]), 1.0, P11),
    lambda: hit_pdf_table(0.5, NAN, P11),
    lambda: hit_pdf_table(0.5, np.array([1.0, INF]), P11),
    lambda: hit_pdf_integral(NAN, 1.0, P11),
    lambda: hit_pdf_integral(0.5, INF, P11),
    lambda: hit_cdf(NAN, 1.0, P11),
    lambda: hit_cdf(0.5, NAN, P11),
    lambda: hit_cdf(INF, 1.0, P11),
    lambda: hit_survival(np.array([0.5, NAN]), 1.0, P11),
    lambda: hit_survival(0.5, INF, P11),
    lambda: sample_hitting_times(NAN, 5, P11, 1 / 64, 0),
    lambda: sample_hitting_times(INF, 5, P11, 1 / 64, 0),
    lambda: sample_hitting_times(1.0, 5, P11, NAN, 0),
    lambda: sample_hitting_times(1.0, 5, P11, INF, 0),
    lambda: hit_mean(NAN, P11),
    lambda: hit_mean(INF, P11),
    lambda: hit_boundary_value(NAN, P11),
    lambda: hit_moment(0.5, NAN, P11),
    lambda: hit_lt_time(NAN, 1.0, P11),
    lambda: stable_hit_pdf(1.0, NAN, 0.5),
    lambda: stable_hit_pdf(np.array([1.0, NAN]), 1.0, 0.5),
    lambda: hit_pdf_convolution(1.0, NAN, P11),
    lambda: hit_pdf_convolution(1.0, INF, TemperedStableSubordinator(1.0 / 3.0, 1.0)),
    lambda: hit_lt_space(NAN, 1.0, P11),
    lambda: hit_lt_space(2.0, INF, P11),
    lambda: hit_moment(NAN, 1.0, P11),
    lambda: hit_moment(INF, 1.0, P11),
    lambda: hit_llt(NAN, 1.0, P11),
], ids=["delta_nan", "delta_inf", "gamma_nan", "gamma_inf", "ig_pdf_t_nan", "ig_cdf_t_nan",
        "abs_tol_nan", "rel_tol_inf", "table_x_nan", "table_t_nan",
        "table_t_inf", "integral_x_nan", "integral_t_inf", "cdf_x_nan", "cdf_t_nan", "cdf_x_inf",
        "survival_x_nan", "survival_t_inf", "sample_t_nan", "sample_t_inf", "sample_dt_nan",
        "sample_dt_inf", "mean_t_nan", "mean_t_inf", "boundary_t_nan", "moment_t_nan",
        "lt_time_x_nan", "stable_hit_t_nan", "stable_hit_x_nan", "convolution_t_nan",
        "convolution_t_inf", "lt_space_mu_nan", "lt_space_t_inf", "moment_q_nan",
        "moment_q_inf", "llt_u_nan"])
def test_non_finite_input_rejected(call):
    with pytest.raises(DomainError):
        call()


class TestConvolutionTable:
    """`hit_pdf_convolution`: one fixed rule per t, its 15/31 difference the self-check."""

    def test_verify_points_match_the_closed_form(self, params_11):
        # density_two_routes' 15 points, boundary_value's x = 1e-4 at t = 2
        # and pde_ts_n2's corners and centre, at index 1/2, mu = 1
        xs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        for t in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(hit_pdf_convolution(xs, t, params_11),
                                       hit_pdf_table(xs, t, params_11), rtol=1e-13, atol=0.0)
        near_zero = hit_pdf_convolution(1e-4, 2.0, params_11)
        assert isinstance(near_zero, float)
        assert near_zero == pytest.approx(float(hit_pdf_table(1e-4, 2.0, params_11)),
                                          rel=1e-13, abs=0.0)
        box = GridBox(0.4, 1.0, 0.7, 1.1, 1 / 16, 1 / 16)
        params = ts_half_ig_params(1.0)
        model = TemperedStableSubordinator(0.5, 1.0)
        for t, xs in ((box.t0, [box.x0, box.x1]), (box.t1, [box.x0, box.x1]),
                      (0.5 * (box.t0 + box.t1), [0.5 * (box.x0 + box.x1)])):
            np.testing.assert_allclose(hit_pdf_convolution(np.array(xs), t, model),
                                       hit_pdf_table(np.array(xs), t, params),
                                       rtol=1e-13, atol=0.0)

    def test_keeps_the_shape_of_x(self, params_11):
        xs = np.array([[0.25, 0.5], [1.0, 2.0]])
        grid = hit_pdf_convolution(xs, 1.0, params_11)
        assert grid.shape == (2, 2)
        assert np.array_equal(grid.ravel(), hit_pdf_convolution(xs.ravel(), 1.0, params_11))
        with pytest.raises(DomainError):
            hit_pdf_convolution(np.array([0.5, 0.0]), 1.0, params_11)

    def test_self_check_raises_on_a_rule_too_coarse(self, monkeypatch):
        xs = np.array([0.05, 0.5, 1.0, 4.0])
        # the IG lower end (x_min^2/1500) at index 0.2, mu = 3, t = 3: the
        # marginal at x = 0.05 holds mass below it, and the fine rule's 15/31
        # estimate reads 4.9e-2 of q
        with pytest.raises(NumericalInstability, match="x = 0.05"):
            convolution._convolution_table(xs, 3.0, TemperedStableSubordinator(0.2, 3.0),
                                           0.05 ** 2 / 1500.0)
        # the coarse rule alone at index 0.9, whose marginal is peaked
        monkeypatch.setattr(convolution, "_CONV_RULES", convolution._CONV_RULES[:1])
        with pytest.raises(NumericalInstability):
            hit_pdf_convolution(xs, 1.0, TemperedStableSubordinator(0.9, 1.0))

    def test_no_adaptive_quadrature(self, params_11, monkeypatch):
        # the records' convolutions and hit_pdf_integral's fallback
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(hitting, "integrate_interval", refuse)
        assert hit_pdf_convolution(np.array([0.25, 4.0]), 0.5, params_11).shape == (2,)
        assert hit_pdf_convolution(0.7, 0.9, TemperedStableSubordinator(0.5, 1.0)) > 0
        delta, gamma, t, x, h = TestDensityRoutes.INTEGRAL_REFERENCE[-1]
        params = IGParams(delta, gamma)
        assert hit_pdf_integral(x, t, params) == pytest.approx(h, rel=1e-13, abs=0.0)


_DUALITY_GRID = (np.array([0.05, 0.5, 1.0, 4.0]), np.array([0.1, 1.0, 3.0]))


@functools.lru_cache
def _duality_table(beta, mu):
    return ts_hit_pdf_table(*_DUALITY_GRID, beta, mu)


class TestTemperedStableTables:
    """The two whole-grid routes of the tempered stable hitting density."""

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0])
    def test_index_half_is_the_ig_closed_form(self, mu):
        params = ts_half_ig_params(mu)
        model = TemperedStableSubordinator(0.5, mu)
        for x, t in ((0.3, 0.6), (0.8, 1.0), (1.6, 0.9), (0.5, 2.0)):
            assert float(hit_pdf_table(x, t, params)) == pytest.approx(
                hit_pdf_convolution(x, t, model), rel=1e-8)

    @staticmethod
    def _levels():
        # both refinement levels of the pde_ts_n3_sign record's grid
        box = GridBox(0.5, 1.0, 0.6, 1.0, 1 / 8, 1 / 8)
        for lev in range(2):
            yield (_grid(box.x0, box.x1, box.dx / 2 ** lev, 2),
                   _grid(box.t0, box.t1, box.dt / 2 ** lev, 1))

    def test_index_third_grid_matches_convolution(self):
        rng = np.random.default_rng(5)
        model = TemperedStableSubordinator(1.0 / 3.0, 1.0)
        for xs, ts in self._levels():
            table = ts_hit_pdf_table(xs, ts, 1.0 / 3.0, 1.0)
            for i, j in zip(rng.integers(xs.size, size=8), rng.integers(ts.size, size=8)):
                assert table[i, j] == pytest.approx(
                    hit_pdf_convolution(float(xs[i]), float(ts[j]), model), rel=1e-8)

    def test_general_index_grid_matches_convolution(self):
        xs, ts = np.linspace(0.5, 1.0, 5), np.array([0.6, 0.8, 1.0])
        for mu in (1.0, 0.0):
            model = TemperedStableSubordinator(0.7, mu)
            table = ts_hit_pdf_table(xs, ts, 0.7, mu)
            for j in range(ts.size):
                np.testing.assert_allclose(table[:, j], hit_pdf_convolution(xs, ts[j], model),
                                           rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("column", range(3))
    @pytest.mark.parametrize("mu", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.2, 1.0 / 3.0, 0.7, 0.9])
    def test_duality_table_matches_convolution(self, beta, mu, column):
        # the grid holds x = 0.05, t = 3, where the fixed convolution rule this
        # table replaced was off by 9.3e-4 at index 1/3.  The bound is the one
        # the adaptive oracle met, max(1e-10, 1e-8 |h|); at mu = 3 that 1e-10
        # is more than 1e-8 of the peak of the t = 3 column
        xs, ts = _DUALITY_GRID
        model = TemperedStableSubordinator(beta, mu)
        table = _duality_table(beta, mu)[:, column]
        oracle = hit_pdf_convolution(xs, ts[column], model)
        assert np.all(np.abs(table - oracle) <= np.maximum(1e-8 * np.max(oracle), 1e-10))

    @pytest.mark.parametrize("beta", [1.0 / 3.0, 0.7])
    def test_untempered_table_is_the_stable_closed_form(self, beta):
        xs, ts = np.linspace(0.05, 4.0, 7), np.array([0.1, 1.0, 3.0])
        assert np.array_equal(ts_hit_pdf_table(xs, ts, beta, 0.0),
                              stable_hit_pdf(xs[:, None], ts, beta))

    @pytest.mark.parametrize("mu", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.2, 1.0 / 3.0, 0.7, 0.9])
    def test_full_grid_passes_its_doubled_rule(self, beta, mu):
        # the 80 x 30 grid of the ts_hit_table layers; NumericalInstability
        # would mean the 16- and 32-node rules differ by 1e-8 of a column's peak
        table = ts_hit_pdf_table(np.linspace(0.05, 4.0, 80), np.linspace(0.1, 3.0, 30), beta, mu)
        assert table.shape == (80, 30) and np.all(np.isfinite(table))
        assert np.all(table >= -1e-12 * table.max(axis=0))

    @pytest.mark.parametrize("mu", [1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.2, 1.0 / 3.0, 0.7, 0.9])
    def test_partial_panel_integral_matches_numpy_polynomial(self, beta, mu, monkeypatch):
        # the partial-panel integral as numpy.polynomial's Legendre series gives it
        def legendre_series(vals, z, w, s):
            leg, n = np.polynomial.legendre, z.size
            coef = vals @ (w[:, None] * leg.legvander(z, n - 1) * (np.arange(n) + 0.5))
            return leg.legval(s, np.moveaxis(leg.legint(coef, lbnd=-1, axis=-1), -1, 0),
                              tensor=False)

        grid = (np.linspace(0.05, 4.0, 80), np.linspace(0.1, 3.0, 30), beta, mu)
        table = ts_hit_pdf_table(*grid)
        monkeypatch.setattr(hitting, "_interpolant_integral", legendre_series)
        ref = ts_hit_pdf_table(*grid)
        assert np.all(np.abs(table - ref) <= 1e-14 * np.max(np.abs(ref), axis=0))

    @pytest.mark.parametrize("n", [16, 32])
    def test_interpolant_integral_is_exact_on_polynomials(self, n):
        # the n-node interpolant of a polynomial of degree below n is that polynomial
        z, w = _gauss_rule(n)
        s = np.linspace(-1.0, 1.0, 9)
        for degree in (0, 1, 5, n - 1):
            vals = np.broadcast_to(z ** degree, s.shape + (n,))
            exact = (s ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
            np.testing.assert_allclose(hitting._interpolant_integral(vals, z, w, s), exact,
                                       rtol=0.0, atol=1e-14)

    def test_index_near_one_point(self):
        # scipy quad of the duality formula at epsrel 1e-13, from the prototype
        # of ROADMAP item 8
        val = ts_hit_pdf_table(np.array([0.3]), np.array([0.2]), 0.9, 3.0)[0, 0]
        assert val == pytest.approx(7.565501399546988, rel=1e-12)

    def test_one_ladder_for_every_x_and_t(self, monkeypatch):
        # the unit-law density is called once per rule, on nodes set by the
        # grid's extremes alone: 80 x and 30 t cost no more than 2 x and 2 t
        sizes = []

        def counted(u, t, beta):
            sizes.append(np.size(u))
            return stable_pdf(u, t, beta)

        monkeypatch.setattr(hitting, "stable_pdf", counted)
        ts_hit_pdf_table(np.linspace(0.05, 4.0, 80), np.linspace(0.1, 3.0, 30), 0.7, 1.0)
        full = sizes[1:]
        sizes.clear()
        ts_hit_pdf_table(np.array([0.05, 4.0]), np.array([0.1, 3.0]), 0.7, 1.0)
        assert len(full) == 2 and full[1] == 2 * full[0] and sizes[1:] == full

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_empty_grid(self, mu):
        assert ts_hit_pdf_table(np.array([]), np.array([1.0]), 0.7, mu).shape == (0, 1)
        assert ts_hit_pdf_table(np.array([1.0]), np.array([]), 0.7, mu).shape == (1, 0)

    def test_short_rule_raises(self, monkeypatch):
        # one panel per decade leaves the 16-node rule short of its doubling
        monkeypatch.setattr(hitting, "_TS_PANELS_PER_DECADE", 1)
        with pytest.raises(NumericalInstability):
            ts_hit_pdf_table(np.array([0.05, 0.5, 1.0, 4.0]), np.array([0.1, 1.0, 3.0]),
                             1.0 / 3.0, 1.0)

    def test_table_domain(self):
        with pytest.raises(DomainError):
            ts_hit_pdf_table(np.array([0.5, NAN]), np.array([1.0]), 1.0 / 3.0, 1.0)
        with pytest.raises(DomainError):
            ts_hit_pdf_table(np.array([0.5]), np.array([0.0]), 1.0 / 3.0, 1.0)
        with pytest.raises(DomainError):
            ts_hit_pdf_table(np.array([[0.5]]), np.array([1.0]), 1.0 / 3.0, 1.0)


class TestDistributionFunction:
    def test_zero_at_origin(self, params_11):
        assert hit_cdf(0.0, 1.0, params_11) == 0.0

    def test_driftless_half_normal(self, params_10):
        # P(H(t) <= x) = 2 Phi(x / sqrt(t)) - 1
        val = hit_cdf(1.0, 1.0, params_10)
        assert val == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), rel=1e-12)
        assert val == pytest.approx(0.682689, abs=5e-7)

    def test_derivative_matches_density(self, params_11):
        step = 1e-4
        fd = (hit_cdf(0.7 + step, 1.0, params_11)
              - hit_cdf(0.7 - step, 1.0, params_11)) / (2.0 * step)
        assert fd == pytest.approx(hit_pdf_integral(0.7, 1.0, params_11), abs=1e-5)

    def test_monotone_in_x_and_t(self, params_11):
        xs = np.linspace(0.0, 6.0, 61)
        vals = hit_cdf(xs, 1.0, params_11)
        assert np.all(np.diff(vals) >= 0)
        # more time available means the barrier is hit later: H grows with t
        for x in (0.5, 1.0, 2.0):
            ts = np.linspace(0.25, 4.0, 16)
            cdfs = np.array([hit_cdf(x, float(t), params_11) for t in ts])
            assert np.all(np.diff(cdfs) <= 1e-14)


class TestTransforms:
    def test_time_transform_inverts_to_density(self, params_11):
        for t in (0.5, 1.0, 2.0):
            val = invert_laplace(lambda s: hit_lt_time(0.7, s, params_11), t)
            assert val == pytest.approx(hit_pdf_integral(0.7, t, params_11), rel=1e-4)

    def test_time_transform_talbot_cross_check(self, params_11):
        # the fixed-Talbot contour evaluates Psi off the real axis
        def transform(s):
            return hit_lt_time(0.7, s, params_11)

        for t in (0.5, 1.0, 2.0):
            tb = invert_laplace_talbot(transform, t)
            assert tb == pytest.approx(float(hit_pdf_table(0.7, t, params_11)), rel=1e-11)
            assert invert_laplace(transform, t) == pytest.approx(tb, rel=1e-4)

    def test_llt_total_mass_limit(self, params_11):
        # s * double-transform tends to 1 as the space variable vanishes
        for s in (0.5, 1.0, 2.0):
            assert s * hit_llt(1e-9, s, params_11) == pytest.approx(1.0, rel=1e-8)

    def test_llt_against_double_quadrature(self):
        params = IGParams(1.0, 0.5)

        def inner(ts):
            return np.array([math.exp(-ti) * hit_lt_space(1.0, float(ti), params)
                             for ti in np.atleast_1d(ts)])

        double = integrate_semi_infinite(inner, abs_tol=1e-11, rel_tol=1e-9)
        assert hit_llt(1.0, 1.0, params) == pytest.approx(double, abs=1e-4)

    def test_llt_domain(self, params_11):
        with pytest.raises(DomainError):
            hit_llt(-10.0, 1.0, params_11)

    @pytest.mark.parametrize("delta, gamma", [(1.0, 1.0), (2.0, 0.5)])
    def test_transforms_at_s_zero(self, delta, gamma):
        # Psi(s)/s tends to Psi'(0) = delta/gamma, the time integral of h(x, .)
        params = IGParams(delta, gamma)
        for x in (0.0, 0.7):
            assert hit_lt_time(x, 0.0, params) == delta / gamma
        assert hit_llt(2.0, 0.0, params) == delta / gamma / 2.0
        both = hit_lt_time(0.7, np.array([0.0, 1.0]), params)
        assert both[0] == delta / gamma
        assert both[1] == hit_lt_time(0.7, 1.0, params)
        # near s = 0, against the first-order expansions Psi(s)/s = (delta/gamma)
        # (1 - s/(2 gamma^2)) and Psi(s) = delta s/gamma, whose error is O(s^2)
        s = 1e-12
        lt = delta / gamma * (1.0 - s / (2.0 * gamma ** 2) - 0.7 * delta * s / gamma)
        assert hit_lt_time(0.7, s, params) == pytest.approx(lt, rel=1e-12)
        llt = delta / gamma / 2.0 * (1.0 - s / (2.0 * gamma ** 2) - delta * s / gamma / 2.0)
        assert hit_llt(2.0, s, params) == pytest.approx(llt, rel=1e-12)

    def test_transforms_at_s_zero_diverge_without_drift(self, params_10):
        with pytest.raises(DomainError):
            hit_lt_time(0.7, 0.0, params_10)
        with pytest.raises(DomainError):
            hit_llt(1.0, np.array([1.0, 0.0]), params_10)

    def test_space_transform_driftless_closed_form(self, params_10):
        val = hit_lt_space(1.0, 1.0, params_10)
        closed = erfcx(1.0 / math.sqrt(2.0))
        assert val == pytest.approx(closed, abs=1e-10)
        assert closed == pytest.approx(math.exp(0.5) * math.erfc(1.0 / math.sqrt(2.0)),
                                       rel=1e-14)

    def test_space_transform_normalisation_limit(self, params_10):
        assert hit_lt_space(1e-7, 1.0, params_10) == pytest.approx(1.0, abs=1e-5)

    def test_space_transform_against_quadrature(self):
        params = IGParams(1.0, 0.5)
        x_max = density_support_cutoff(1.0, params)
        direct = integrate_interval(
            lambda xs: np.exp(-xs) * hit_pdf_table(xs, 1.0, params), 0.0, x_max,
            edges=np.linspace(0.0, x_max, 33))
        assert hit_lt_space(1.0, 1.0, params) == pytest.approx(direct, abs=1e-5)

    def test_space_transform_domain(self, params_11):
        with pytest.raises(DomainError):
            hit_lt_space(1.0, 1.0, params_11)   # mu = delta * gamma diverges
        with pytest.raises(DomainError):
            hit_lt_space(0.5, 1.0, params_11)

    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
    def test_space_transform_closed_form_at_removable_point(self, offset, t):
        # mu = 2 delta gamma, where the divided difference is 0/0
        params = IGParams(1.0, 0.5)
        mu = 1.0 + offset
        assert hit_lt_space_closed(mu, t, params) == pytest.approx(
            hit_lt_space(mu, t, params), rel=1e-12)

    @pytest.mark.parametrize("delta,gamma,mu,t", [
        (1.0, 0.0, 1.0, 1.0), (1.0, 0.5, 0.8, 1.0), (1.0, 0.5, 1.02, 2.0),
        (2.0, 0.7, 3.0, 0.4), (0.5, 2.0, 2.0, 1.5), (1.0, 1.0, 5.0, 0.05),
        (1.5, 0.3, 0.46, 4.0)])
    def test_space_transform_closed_form_matches_integral(self, delta, gamma, mu, t):
        params = IGParams(delta, gamma)
        assert hit_lt_space_closed(mu, t, params) == pytest.approx(
            hit_lt_space(mu, t, params), rel=1e-12)

    def test_space_transform_closed_form_broadcasts(self):
        params = IGParams(1.0, 0.5)
        mus = np.array([[0.6], [1.0], [1.0 + 1e-9], [3.0]])
        ts = np.array([0.2, 1.0, 2.5])
        table = hit_lt_space_closed(mus, ts, params)
        assert table.shape == (4, 3)
        points = np.array([[hit_lt_space_closed(float(m), float(t), params) for t in ts]
                           for m in mus[:, 0]])
        assert np.array_equal(table, points)
        assert isinstance(hit_lt_space_closed(1.0, 1.0, params), float)

    def test_space_transform_closed_form_domain(self, params_11):
        for mu, t in ((-0.5, 1.0), (NAN, 1.0), (2.0, INF), (2.0, 0.0)):
            with pytest.raises(DomainError):
                hit_lt_space_closed(mu, t, params_11)

    @pytest.mark.parametrize("delta,gamma,mu,t", [
        (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 0.5, 1.0), (1.0, 1.0, 1e-4, 2.0),
        (2.0, 0.5, 0.3, 3.0), (1.0, 3.0, 1.0, 1.0), (1.0, 40.0, 1.0, 1.0),
        (0.5, 40.0, 3.0, 2.0)])
    def test_space_transform_below_drift_against_density(self, delta, gamma, mu, t):
        # mu <= delta*gamma, outside the integral form's domain: against
        # quadrature of e^(-mu x) times the closed-form density; gamma = 40
        # puts z1^2 and z0^2 above 709, where erfcx(z1) alone overflows
        params = IGParams(delta, gamma)
        x_max = (gamma * t + 12.0 * math.sqrt(t)) / delta
        direct = integrate_interval(
            lambda xs: np.exp(-mu * xs) * hit_pdf_table(xs, t, params), 0.0, x_max,
            edges=np.linspace(0.0, x_max, 65), **TIGHT)
        assert hit_lt_space_closed(mu, t, params) == pytest.approx(direct, rel=1e-12)

    def test_space_transform_at_mu_zero_is_one(self):
        for params in (IGParams(1.0, 0.0), IGParams(1.0, 1.0), IGParams(0.5, 40.0)):
            assert hit_lt_space_closed(0.0, 2.0, params) == 1.0
            table = hit_lt_space_closed(np.array([[0.0], [0.1]]), np.array([0.5, 3.0]), params)
            assert np.all(table[0] == 1.0) and np.all(table[1] < 1.0)

    def test_space_transform_where_the_decay_underflows(self):
        # e^(-gamma^2 t/2) = 0 at t = 1e300; at mu = 2 delta gamma, z0 = z1 and
        # the bracket's Taylor recurrence overflowed, and 0 * inf gave NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hit_lt_space_closed(np.array([0.0, 1.0, 2.0, 3.0]), 1e300, IGParams(1.0, 1.0))
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_space_transform_at_huge_mu_warns_nothing(self, params_11):
        # the divided difference ran its Taylor recurrence at every point, where
        # at mu = 1e200 the powers overflowed; E e^(-mu H) = h(0+, t)/mu + O(mu^-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hit_lt_space_closed(np.array([1e200, 1.0]), 1.0, params_11)
        assert out[0] == pytest.approx(hit_boundary_value(1.0, params_11) / 1e200,
                                       rel=1e-14, abs=0.0)
        assert out[1] == hit_lt_space_closed(1.0, 1.0, params_11)

    def test_space_transform_continuous_at_drift(self):
        # the two forms meet at mu = delta*gamma, where z1 = 0
        params = IGParams(1.0, 0.5)
        for t in (0.3, 1.0, 4.0):
            at = hit_lt_space_closed(0.5, t, params)
            assert at == pytest.approx(math.erfc(0.5 * math.sqrt(0.5 * t)), rel=1e-15)
            for h in (1e-9, 1e-6):
                # the one-sided slopes agree: no jump and no kink at z1 = 0
                below = hit_lt_space_closed(0.5 - h, t, params)
                above = hit_lt_space_closed(0.5 + h, t, params)
                assert below - at == pytest.approx(at - above, rel=1e-5)

    def test_forward_lt_of_density_matches_closed_form(self, params_11):
        # numerically transforming the tabulated density over t recovers the
        # closed-form time transform
        x = 0.7
        for s in (0.5, 1.0, 2.0):
            def f(ts):
                dens = np.array([hit_pdf_integral(x, float(t), params_11) for t in ts])
                return np.exp(-s * ts) * dens
            val = integrate_semi_infinite(f, abs_tol=1e-11, rel_tol=1e-9)
            assert val == pytest.approx(hit_lt_time(x, s, params_11), abs=1e-5)


def _cutoff_by_doubling(t, params, weight_power):
    """The support cutoff as a scalar walk over hit_survival, one doubling at a time."""
    x = max(1.0, 2.0 * params.gamma * t / params.delta)
    while x ** weight_power * hit_survival(x, t, params) >= 1e-9:
        x *= 2.0
    return x


class TestSupportCutoff:
    @pytest.mark.parametrize("weight_power", [0.0, 2.7])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 3.0])
    def test_array_matches_scalar_calls(self, gamma, weight_power):
        params = IGParams(1.0, gamma)
        ts = np.geomspace(1e-3, 50.0, 200)
        cut = density_support_cutoff(ts, params, weight_power=weight_power)
        scalar = [density_support_cutoff(float(t), params, weight_power=weight_power)
                  for t in ts]
        assert all(isinstance(x, float) for x in scalar)
        assert np.array_equal(cut, scalar)
        walk = [_cutoff_by_doubling(float(t), params, weight_power) for t in ts[::20]]
        assert np.array_equal(cut[::20], walk)

    def test_shape_follows_t(self):
        ts = np.array([[0.5, 1.0], [2.0, 4.0]])
        cut = density_support_cutoff(ts, P11)
        assert cut.shape == (2, 2)
        assert cut[1, 0] == density_support_cutoff(2.0, P11)

    def test_no_qualifying_candidate(self):
        # no tail is negative, so no doubling can qualify
        with pytest.raises(NonConvergence):
            density_support_cutoff(1.0, P11, tail_tol=0.0)
        with pytest.raises(NonConvergence):
            density_support_cutoff(np.array([0.5, 1.0]), P11, tail_tol=0.0)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_t_rejected(self, bad):
        with pytest.raises(DomainError):
            density_support_cutoff(np.array([0.5, bad, 1.0]), P11)


class TestMoments:
    def test_driftless_mean(self, params_10):
        assert hit_mean(1.0, params_10) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                         rel=1e-14)

    def test_mean_matches_quadrature(self, params_11, params_205):
        for params in (params_11, params_205):
            quad = hit_moment_quadrature(1.0, 1.0, params)
            assert hit_mean(1.0, params) == pytest.approx(quad, abs=1e-6)

    def test_second_moment_matches_quadrature(self, params_11, params_205):
        for params in (params_11, params_205):
            quad = hit_moment_quadrature(2.0, 1.0, params)
            assert hit_second_moment(1.0, params) == pytest.approx(quad, abs=1e-6)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-10, 1e-12])
    def test_second_moment_stable_as_gamma_vanishes(self, gamma):
        params = IGParams(1.0, gamma)
        quad = hit_moment_quadrature(2.0, 1.0, params)
        assert hit_second_moment(1.0, params) == pytest.approx(quad, rel=1e-10)

    def test_driftless_second_moment_is_t(self, params_10):
        # the half-normal second moment; the often-quoted 2t fails this
        assert hit_second_moment(1.0, params_10) == 1.0
        quad = hit_moment_quadrature(2.0, 1.0, params_10)
        assert quad == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("q", [-1.0, -2.0])
    def test_quadrature_moment_needs_q_above_minus_one(self, params_11, q):
        # E H(t)^q diverges at q <= -1: rejected before any quadrature runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^hit_moment_quadrature: q must be > -1$"):
                hit_moment_quadrature(q, 1.0, params_11)

    @pytest.mark.parametrize("q", [-0.5, -0.9, -0.99, -0.999])
    def test_quadrature_moment_of_negative_order(self, params_10, q):
        # the half-normal H(t): E H^q = (2t)^(q/2) Gamma((q+1)/2) / (sqrt(pi) delta^q).
        # In x the quadrature bisected toward the x^q singularity at 0: at
        # q = -0.99 x^q overflowed, and at q = -0.9 it was off by 6.5e-8
        for delta, t in ((1.0, 1.0), (2.0, 0.7), (0.5, 3.0)):
            exact = ((2.0 * t) ** (q / 2.0) * math.gamma((q + 1.0) / 2.0)
                     / (math.sqrt(math.pi) * delta ** q))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = hit_moment_quadrature(q, t, IGParams(delta, 0.0))
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_quadrature_moment_of_negative_order_with_drift(self, params_11):
        # reference: mpmath 1.3.0 at 40 digits, the integral of x^q (h(x, 1) -
        # h(0+, 1)) over (0, 1], plus h(0+, 1)/(1+q), plus that of x^q h(x, 1)
        # beyond 1, h being the running-maximum density of W_s + s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hit_moment_quadrature(-0.99, 1.0, params_11)
        assert got == pytest.approx(17.39934873368247367670553, rel=1e-12, abs=0.0)

    def test_quadrature_moment_of_high_order_warns_nothing(self, params_10, params_11):
        # the cutoff's x^q overflowed at the far doublings (2^59)^50; the
        # half-normal E H(1)^50 = 2^25 Gamma(51/2) / sqrt(pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            driftless = hit_moment_quadrature(50.0, 1.0, params_10)
            assert hit_moment_quadrature(50.0, 1.0, params_11) > driftless
        exact = 2.0 ** 25 * math.gamma(25.5) / math.sqrt(math.pi)
        assert driftless == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_moment_transform_consistency(self, params_11, params_205):
        assert hit_moment(1.0, 1.0, params_11) == pytest.approx(
            hit_mean(1.0, params_11), rel=1e-5)
        assert hit_moment(2.0, 1.0, params_11) == pytest.approx(
            hit_second_moment(1.0, params_11), rel=1e-4)
        assert hit_moment(2.0, 2.0, params_205) == pytest.approx(
            hit_second_moment(2.0, params_205), rel=1e-4)

    def test_fractional_moment_driftless(self, params_10):
        # E |N(0, t)|^q = (2t)^(q/2) Gamma((q+1)/2) / sqrt(pi)
        q = 0.5
        target = 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)
        assert target == pytest.approx(0.822179, abs=5e-7)
        assert hit_moment(q, 1.0, params_10) == pytest.approx(target, rel=1e-5)

    def test_variance_driftless(self, params_10):
        assert hit_variance(1.0, params_10) == pytest.approx(1.0 - 2.0 / math.pi,
                                                             rel=1e-12)

    @pytest.mark.parametrize("delta, gamma, t, exact", [
        (0.5, 3.0, 800.0, 3199.6666666666666667),
        (1.0, 10.0, 1e4, 9999.9925),
        (1.0, 30.0, 1e5, 99999.999166666666667),
        (1.0, 1.0, 1e8, 99999999.25),
        (1.0, 100.0, 1e6, 999999.999925),
    ])
    def test_variance_without_cancellation(self, delta, gamma, t, exact):
        # 60-digit evaluations of the second moment less the squared mean;
        # the difference in doubles was 2e-6 relative off at (1, 100, 1e6)
        assert hit_variance(t, IGParams(delta, gamma)) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("y", [0.7, 0.75, 0.8, 1.0, 1.5])
    def test_variance_forms_agree_at_the_switch(self, y):
        # y = gamma sqrt(t/2) = 0.75 switches from the difference of the
        # moments to the form without cancellation
        p = IGParams(1.3, 0.9)
        t = 2.0 * (y / p.gamma) ** 2
        assert hit_variance(t, p) == pytest.approx(
            hit_second_moment(t, p) - hit_mean(t, p) ** 2, rel=1e-14)

    def test_variance_small_t(self, params_11):
        t = 1e-4
        assert hit_variance(t, params_11) / math.sqrt(t) < 0.05

    def test_variance_large_t_linear_growth(self, params_11):
        # closed forms say Var ~ t/delta^2 at large t; Monte Carlo agrees
        v100 = hit_variance(100.0, params_11)
        v400 = hit_variance(400.0, params_11)
        assert v100 / 100.0 == pytest.approx(v400 / 400.0, rel=0.2)
        hs = sample_hitting_times(100.0, 10_000, params_11, 1 / 16, seed=21)
        mc_var = hs.var(ddof=1)
        se_var = mc_var * math.sqrt(2.0 / hs.size)  # normal-theory scale
        assert abs(mc_var - v100) < 6.0 * se_var

    def test_mean_asymptotes(self, params_11, params_10):
        # gamma t / delta at large t with drift; sqrt(2t/pi)/delta exactly
        # without it
        g, d = params_11.gamma, params_11.delta
        assert hit_mean(400.0, params_11) / (g * 400.0 / d) == pytest.approx(1.0, abs=0.01)
        assert hit_mean(4.0, params_10) == pytest.approx(
            math.sqrt(8.0 / math.pi) / params_10.delta, rel=1e-12)

    def test_nonlinear_mean_witness(self, params_10):
        # linear growth of the mean would be required of a Levy process
        assert abs(hit_mean(4.0, params_10) - 4.0 * hit_mean(1.0, params_10)) > 0.5


class TestBoundaryAndTail:
    def test_boundary_equals_levy_tail(self, params_11):
        for t in (0.5, 1.0, 3.0):
            assert hit_boundary_value(t, params_11) == pytest.approx(
                ig_levy_tail(t, params_11), abs=1e-10)

    def test_boundary_driftless(self, params_10):
        assert hit_boundary_value(1.0, params_10) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_boundary_slope_fd(self, params_11):
        fd = (hit_pdf_integral(2e-3, 1.0, params_11)
              - hit_pdf_integral(0.0, 1.0, params_11)) / 2e-3
        assert fd == pytest.approx(hit_boundary_slope(1.0, params_11), abs=1e-3)

    def test_survival_driftless_value(self, params_10):
        assert hit_survival(3.0, 1.0, params_10) == pytest.approx(
            math.erfc(3.0 / math.sqrt(2.0)), abs=1e-12)
        assert math.erfc(3.0 / math.sqrt(2.0)) == pytest.approx(0.002700, abs=5e-7)

    def test_tail_report_bounded_ratio(self, params_11):
        rep = tail_report(1.0, params_11, np.linspace(2.0, 8.0, 25))
        ratios = rep.ratios()
        assert ratios.argmax() == 0
        assert ratios[-1] < ratios[0]
        assert np.all(rep.survival[:-1] >= rep.survival[1:])
        assert np.all((rep.survival >= 0) & (rep.survival <= 1))

    def test_tail_fitted_rate_driftless(self, params_10):
        rep = tail_report(1.0, params_10, np.linspace(2.0, 8.0, 25))
        # the empirical Gaussian rate is near 1/(2t), not the stated 1/(4t)
        assert rep.fitted_gaussian_rate == pytest.approx(0.5, abs=0.05)
        assert abs(rep.fitted_gaussian_rate - 0.25) > 0.2

    @pytest.mark.parametrize("t, params", [(1e-300, IGParams(1.0, 1.0)),
                                           (1.0, IGParams(1.0, 1e300))],
                             ids=["envelope_underflows", "envelope_overflows"])
    def test_tail_report_rejects_a_non_finite_envelope(self, t, params):
        with np.errstate(over="ignore"), pytest.raises(NumericalInstability, match="envelope"):
            tail_report(t, params, np.linspace(2.0, 8.0, 25))

    def test_tail_report_serialisation(self, params_11, tmp_path):
        rep = tail_report(1.0, params_11, np.linspace(2.0, 6.0, 9))
        rep.to_json(tmp_path / "tail.json")
        rep.to_csv(tmp_path / "tail.csv")
        assert (tmp_path / "tail.json").exists()
        header = (tmp_path / "tail.csv").read_text().split("\n")[0]
        assert header == "x,survival,bound"


class TestPathInversion:
    def test_staircase(self):
        g = SamplePath(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 5.0]))
        h = invert_path(g, np.array([0.0, 1.0, 1.99, 2.0, 4.9]))
        assert np.array_equal(h.values, [1.0, 1.0, 1.0, 2.0, 2.0])

    def test_range_exceeded(self):
        g = SamplePath(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        with pytest.raises(DomainError):
            invert_path(g, np.array([2.5]))

    @pytest.mark.parametrize("horizon, dt", [(1.0, 2.0), (0.0, 0.1), (1.0, 0.0)])
    def test_path_needs_a_step_within_the_horizon(self, params_11, horizon, dt):
        with pytest.raises(DomainError, match="dt <= horizon"):
            hitting.hitting_path(params_11, horizon, dt,
                                 np.random.default_rng(1))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 2.0), min_size=2, max_size=12),
           st.floats(0.01, 0.99))
    def test_galois_inequalities(self, increments, frac):
        values = np.concatenate([[0.0], np.cumsum(increments)])
        times = np.arange(values.size, dtype=float)
        g = SamplePath(times, values)
        t = frac * values[-1]
        h = invert_path(g, np.array([t]))
        u = h.values[0]
        idx = int(u)
        # the inverse picks the first grid time with G above the level
        assert values[idx] > t
        assert idx == 0 or values[idx - 1] <= t

    def test_sampler_matches_path_route(self, params_11):
        # invert_path over simulated paths of G and the running-maximum sampler
        # both draw S = dt (floor(H/dt) + 1), whose law is exact on the grid:
        # P(S <= k dt) = P(H(t) < k dt) = hit_cdf(k dt, t)
        n, dt = 4000, 1 / 64
        rng = np.random.default_rng(33)
        paths = np.array([hitting.hitting_path(params_11, 1.0, dt, rng)[1].values[-1]
                          for _ in range(n)])
        sampled = sample_hitting_times(1.0, n, params_11, dt, seed=33)
        k = np.arange(1, 641)  # P(H(1) > 10) is below 1e-15
        cdf = hit_cdf(k * dt, 1.0, params_11)
        grid_mean = dt * (1.0 + np.sum(1.0 - cdf))
        for draws in (paths, sampled):
            steps = np.rint(draws / dt).astype(np.int64)
            assert np.array_equal(steps * dt, draws)
            assert steps.min() >= 1 and steps.max() <= k[-1]
            # ties make ecdf_ks's left limits meaningless; compare at the atoms
            ecdf = np.searchsorted(np.sort(steps), k, side="right") / n
            assert np.max(np.abs(ecdf - cdf)) < ks_critical_1pct(n)
            assert abs(draws.mean() - grid_mean) < 5.0 * draws.std() / math.sqrt(n)


class TestStableHitting:
    def test_half_index_closed_form(self):
        for t in (0.5, 1.0, 2.0):
            for x in (0.25, 1.0, 3.0):
                closed = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
                assert stable_hit_pdf(x, t, 0.5) == pytest.approx(closed, rel=1e-12)
        assert stable_hit_pdf(1.0, 1.0, 0.5) == pytest.approx(0.439391, abs=5e-7)

    @pytest.mark.parametrize("beta", [0.5, 1.0 / 3.0], ids=["half", "third"])
    def test_tiny_time_density_is_zero(self, beta):
        # u = t x^-2 is so small that u^(-3/2) overflows, where the closed
        # forms' damping factor is 0: inf * 0 was NaN
        xs = np.linspace(0.05, 4.0, 80)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(stable_hit_pdf(xs, 1e-300, beta), np.zeros(80))
            assert stable_hit_pdf(0.5, 1e-300, beta) == 0.0
            assert stable_pdf(1e-320, 1.0, beta) == 0.0

    def test_normalisation(self):
        mass = integrate_semi_infinite(
            lambda x: stable_hit_pdf(np.maximum(x, 1e-300), 1.0, 0.5))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_survival_closed_form(self):
        assert stable_hit_survival(2.0, 1.0, 0.5) == pytest.approx(
            math.erfc(1.0), rel=1e-10)

    @pytest.mark.parametrize("beta", [1.0 / 3.0, 0.7], ids=["third", "general"])
    def test_survival_integrates_density(self, beta):
        # one array call; its differences against quadrature of the density
        xs = np.array([0.2, 0.7, 1.5, 3.0])
        surv = stable_hit_survival(xs, 1.3, beta)
        assert np.array_equal(surv, [stable_hit_survival(float(x), 1.3, beta) for x in xs])
        for a, b, sa, sb in zip(xs[:-1], xs[1:], surv[:-1], surv[1:]):
            mass = integrate_interval(lambda x: stable_hit_pdf(x, 1.3, beta), a, b,
                                      abs_tol=1e-15, rel_tol=1e-13)
            assert sa - sb == pytest.approx(mass, rel=1e-11)

    def test_tail_rate(self):
        rep = stable_hit_tail_report(1.0, 0.5, np.linspace(8.0, 16.0, 17))
        assert rep.extra["rate_n"] == pytest.approx(0.25, rel=1e-14)
        assert rep.fitted_gaussian_rate == pytest.approx(0.25, rel=0.02)
        assert isinstance(rep, TailBoundReport)
