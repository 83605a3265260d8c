import dataclasses
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ighit
from ighit.errors import DomainError, NonConvergence, NumericalInstability
from ighit.numerics import (
    bessel_k,
    erf,
    erfc,
    erfcx,
    geomspace,
    integrate_interval,
    integrate_ladder,
    integrate_semi_infinite,
    invert_laplace,
    invert_laplace_talbot,
    stehfest_weights,
    upper_gamma,
)
from ighit.numerics import (
    _ERF_A, _ERF_B, _ERF_C, _ERF_D, _ERF_P, _ERF_Q, INV_SQRT_PI,
    _cell_estimates, _cells, _eval_transform, _exp_nsq, _gauss_rule, _period_edges,
)


# Cody's rules as whole-array expressions, a fresh array per Horner step and a
# gather and scatter per region: erf, erfc and erfcx must match them bit for bit.

def _ref_erf_small(y):
    ysq = y * y
    xnum = _ERF_A[4] * ysq
    xden = ysq
    for i in range(3):
        xnum = (xnum + _ERF_A[i]) * ysq
        xden = (xden + _ERF_B[i]) * ysq
    return y * (xnum + _ERF_A[3]) / (xden + _ERF_B[3])


def _ref_erfcx_mid(y):
    xnum = _ERF_C[8] * y
    xden = y
    for i in range(7):
        xnum = (xnum + _ERF_C[i]) * y
        xden = (xden + _ERF_D[i]) * y
    return (xnum + _ERF_C[7]) / (xden + _ERF_D[7])


def _ref_erfcx_large(y):
    ysq = 1.0 / (y * y)
    xnum = _ERF_P[5] * ysq
    xden = ysq
    for i in range(4):
        xnum = (xnum + _ERF_P[i]) * ysq
        xden = (xden + _ERF_Q[i]) * ysq
    res = ysq * (xnum + _ERF_P[4]) / (xden + _ERF_Q[4])
    return (INV_SQRT_PI - res) / y


def _ref_regions(ay, small, mid, large):
    out = np.empty_like(ay)
    for mask, rule in ((ay <= 0.46875, small), ((ay > 0.46875) & (ay <= 4.0), mid),
                       (ay > 4.0, large)):
        if mask.any():
            out[mask] = rule(ay[mask])
    return out


def _ref_erf(y):
    out = _ref_regions(np.abs(y), _ref_erf_small,
                       lambda a: 1.0 - _exp_nsq(a) * _ref_erfcx_mid(a),
                       lambda a: 1.0 - _exp_nsq(a) * _ref_erfcx_large(a))
    return np.where(y < 0, -out, out)


def _ref_erfc(y):
    out = _ref_regions(np.abs(y), lambda a: 1.0 - _ref_erf_small(a),
                       lambda a: _exp_nsq(a) * _ref_erfcx_mid(a),
                       lambda a: _exp_nsq(a) * _ref_erfcx_large(a))
    return np.where(y < 0, 2.0 - out, out)


def _ref_erfcx(y):
    out = _ref_regions(np.abs(y), lambda a: np.exp(a * a) * (1.0 - _ref_erf_small(a)),
                       _ref_erfcx_mid, _ref_erfcx_large)
    neg = y < 0
    out[neg] = 2.0 * np.exp(y[neg] ** 2) - out[neg]
    return out


_CODY_EDGES = np.array([0.0, -0.0, 0.46875, -0.46875, 4.0, -4.0, 27.0, 1e-300])
_CODY_CASES = {
    "all_regions": np.concatenate([np.linspace(-6.0, 6.0, 481), _CODY_EDGES]),
    "small_only": np.linspace(0.0, 0.46875, 40),
    "mid_only": np.linspace(0.5, 4.0, 40),
    "large_only": np.linspace(4.0001, 27.0, 40),
    "negative_only": -np.linspace(0.1, 5.0, 40),
    "two_d": np.linspace(-5.0, 5.0, 24).reshape(4, 6),
}


def erf_taylor(z: float, terms: int = 30) -> float:
    """Independent oracle: alternating Taylor series of the error function."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * z ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


class TestErrorFunctions:
    def test_origin(self):
        assert erf(0.0) == 0.0
        assert erfc(0.0) == 1.0

    def test_erf_one_against_taylor_oracle(self):
        oracle = erf_taylor(1.0)
        assert oracle == pytest.approx(0.842700792949715, abs=1e-14)
        assert erf(1.0) == pytest.approx(oracle, rel=1e-13)

    def test_matches_stdlib_to_1e12_on_window(self):
        zs = np.linspace(-6.0, 6.0, 1201)
        ours = erf(zs)
        ref = np.array([math.erf(z) for z in zs])
        mask = ref != 0
        assert np.max(np.abs(ours[mask] - ref[mask]) / np.abs(ref[mask])) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    def test_complementarity(self, z):
        assert abs(erf(z) + erfc(z) - 1.0) <= 1e-14

    def test_complementarity_grid(self):
        zs = np.linspace(-6.0, 6.0, 1000)
        assert np.max(np.abs(erf(zs) + erfc(zs) - 1.0)) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=26.0, allow_nan=False,
                     exclude_min=True))
    def test_erfcx_identity(self, z):
        lhs = erfcx(z) * math.exp(-z * z)
        rhs = math.erfc(z)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_erfcx_negative_branch(self):
        z = -3.0
        assert erfcx(z) == pytest.approx(2.0 * math.exp(9.0) - math.exp(9.0) * math.erfc(3.0),
                                         rel=1e-13)

    def test_deep_tail(self):
        assert erfc(26.0) == pytest.approx(math.erfc(26.0), rel=1e-12)

    @pytest.mark.parametrize("case", sorted(_CODY_CASES))
    @pytest.mark.parametrize("fn,ref", [(erf, _ref_erf), (erfc, _ref_erfc), (erfcx, _ref_erfcx)],
                             ids=["erf", "erfc", "erfcx"])
    def test_bit_identical_to_whole_array_rules(self, fn, ref, case):
        z = _CODY_CASES[case]
        got = fn(z)
        assert got.shape == z.shape
        assert got.tobytes() == ref(z).tobytes()

    @pytest.mark.parametrize("fn,ref", [(erf, _ref_erf), (erfc, _ref_erfc), (erfcx, _ref_erfcx)],
                             ids=["erf", "erfc", "erfcx"])
    def test_scalar_zero_d_and_empty(self, fn, ref):
        for z in (0.3, -0.3, 1.7, -2.5, 6.0, 0.46875, 4.0, -0.0):
            assert isinstance(fn(z), float)
            assert isinstance(fn(np.array(z)), float)
            assert np.float64(fn(z)).tobytes() == ref(np.array([z])).tobytes()
            assert fn(np.array(z)) == fn(z)
        assert fn(np.array([])).shape == (0,)
        assert 0.0 < erfc(27.0) < np.finfo(float).tiny  # subnormal, kept exactly

    def test_huge_arguments_warn_nothing(self):
        # y^2 overflowed in the y > 4 rule and in exp(-y^2) from y = 1.3e154 on,
        # and beyond 1.1e307 erf and erfc read NaN; there erfcx is 1/(sqrt(pi) y)
        z = np.array([1e155, 1e300, 1.2e307, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(erf(z) == 1.0) and np.all(erf(-z) == -1.0)
            assert np.all(erfc(z) == 0.0) and np.all(erfc(-z) == 2.0)
            assert np.array_equal(erfcx(z), INV_SQRT_PI / z)
            assert erfcx(1e155) == INV_SQRT_PI / 1e155

    @pytest.mark.parametrize("fn", [erf, erfc, erfcx], ids=["erf", "erfc", "erfcx"])
    def test_nan_gives_nan(self, fn):
        assert math.isnan(fn(math.nan))
        assert math.isnan(fn(np.array(math.nan)))
        out = fn(np.array([math.nan, 1.0, math.nan, -1.0, -math.nan]))
        assert np.isnan(out[[0, 2, 4]]).all()
        assert out[1] == fn(1.0) and out[3] == fn(-1.0)


class TestIncompleteGammaAndBessel:
    def test_upper_gamma_half_negative(self):
        # Gamma(-1/2, x) = 2 (e^-x / sqrt(x) - sqrt(pi) erfc(sqrt(x)))
        for x in (0.1, 0.5, 1.0, 4.0):
            closed = 2.0 * (math.exp(-x) / math.sqrt(x)
                            - math.sqrt(math.pi) * math.erfc(math.sqrt(x)))
            assert upper_gamma(-0.5, x) == pytest.approx(closed, rel=1e-12)

    def test_upper_gamma_half_positive(self):
        for x in (0.2, 1.0, 3.0):
            closed = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
            assert upper_gamma(0.5, x) == pytest.approx(closed, rel=1e-12)

    def test_upper_gamma_domain(self):
        with pytest.raises(DomainError):
            upper_gamma(-0.5, 0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                                   np.array([0.5, math.nan]), np.array([2.0, math.inf])])
    def test_upper_gamma_non_finite(self, x):
        with pytest.raises(DomainError):
            upper_gamma(-1.0 / 3.0, x)

    @pytest.mark.parametrize("a", [-0.9, -1.0 / 3.0, 0.5, 2.5])
    def test_upper_gamma_array_matches_scalar(self, a):
        # both branches, the switch at max(1, a+1) and x = 1 itself
        x = np.concatenate([np.geomspace(1e-8, 300.0, 61), [1.0, a + 1.0 if a > 0 else 1.0]])
        out = upper_gamma(a, x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        expected = np.array([upper_gamma(a, float(xi)) for xi in x])
        assert np.array_equal(out, expected)

    def test_upper_gamma_shapes(self):
        scalar = upper_gamma(-1.0 / 3.0, 0.7)
        assert type(scalar) is float
        assert type(upper_gamma(-1.0 / 3.0, np.float64(0.7))) is float
        assert upper_gamma(-1.0 / 3.0, np.array(0.7)) == scalar
        grid = np.array([[0.1, 0.7, 1.0], [2.0, 5.0, 40.0]])
        out = upper_gamma(-1.0 / 3.0, grid)
        assert out.shape == (2, 3)
        assert out[0, 1] == scalar
        assert np.array_equal(out.ravel(), upper_gamma(-1.0 / 3.0, grid.ravel()))

    def test_upper_gamma_recurrence(self):
        # Gamma(a+1, x) = a Gamma(a, x) + x^a e^-x; at a = -1/3 the left side
        # and the right side switch branches at different x
        a = -1.0 / 3.0
        x = np.concatenate([np.geomspace(1e-6, 50.0, 81), [1.0]])
        lhs = upper_gamma(a + 1.0, x)
        rhs = a * upper_gamma(a, x) + x ** a * np.exp(-x)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=0.0)

    def test_bessel_k_half_integer_closed_forms(self):
        zs = np.geomspace(1e-4, 600.0, 61)
        k_half = np.sqrt(math.pi / 2.0 / zs) * np.exp(-zs)
        assert np.allclose(bessel_k(0.5, zs), k_half, rtol=1e-12, atol=0.0)
        k_3half = k_half * (1.0 + 1.0 / zs)
        assert np.allclose(bessel_k(1.5, zs), k_3half, rtol=1e-12, atol=0.0)
        # K_(nu+1) = K_(nu-1) + (2 nu/z) K_nu at nu = 1/3, with K_(-2/3) = K_(2/3)
        k_4third = bessel_k(2.0 / 3.0, zs) + 2.0 / (3.0 * zs) * bessel_k(1.0 / 3.0, zs)
        assert np.allclose(bessel_k(4.0 / 3.0, zs), k_4third, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "unsorted"])
    def test_bessel_k_chunks_match_pointwise(self, shuffle):
        # 700 points run as three chunks of ascending z, each with its own grid
        zs = np.geomspace(1e-3, 800.0, 700)
        if shuffle:
            zs = np.random.default_rng(3).permutation(zs)
        out = bessel_k(1.0 / 3.0, zs)
        points = np.array([bessel_k(1.0 / 3.0, float(z)) for z in zs])
        assert np.allclose(out, points, rtol=1e-13, atol=0.0)
        assert np.all(out[zs >= 700.0] == 0.0)
        # the chunks depend on the values only, not on their order or shape
        order = np.argsort(zs)
        assert np.array_equal(out[order], bessel_k(1.0 / 3.0, zs[order]))
        assert np.array_equal(bessel_k(1.0 / 3.0, zs.reshape(20, 35)), out.reshape(20, 35))

    @pytest.mark.parametrize("z", [math.nan, [1.0, math.nan], 0.0, [2.0, -1.0]],
                             ids=["nan", "nan_entry", "zero", "negative_entry"])
    def test_bessel_k_rejects_nan_as_it_does_nonpositive_z(self, z):
        # a NaN argument read 0, as if it were z >= 700
        with pytest.raises(DomainError, match="^bessel_k: z must be > 0$"):
            bessel_k(1.0 / 3.0, z)

    def test_bessel_k_is_zero_at_infinity(self):
        # stable_pdf at index 1/3 forms K at t^1.5/sqrt(u) = inf where the power overflows
        assert bessel_k(1.0 / 3.0, math.inf) == 0.0
        assert bessel_k(1.0 / 3.0, [1.0, math.inf])[1] == 0.0


class TestQuadrature:
    def test_geomspace_matches_numpy(self):
        rng = np.random.default_rng(11)
        stops = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), 10 ** 4))
        for k, stop in enumerate(stops):
            start = (0.1, 1e-6, 3.7, float(stops[k - 1]))[k % 4]
            n = (11, 17, 96, 2)[k % 4]
            assert np.array_equal(geomspace(start, float(stop), n),
                                  np.geomspace(start, float(stop), n))

    def test_cells_match_unique_edges(self):
        # the cells integrate_interval used to build from np.unique of the edges
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = sorted(rng.uniform(-1.0, 3.0, 2))
            edges = np.round(rng.uniform(-2.0, 4.0, rng.integers(1, 30)), 1)
            repeats = edges[: rng.integers(0, edges.size)]
            edges = np.concatenate([edges, repeats, [a, b][: rng.integers(0, 3)]])
            unique = np.unique(np.clip(edges, a, b))
            if unique[0] > a:
                unique = np.concatenate([[a], unique])
            if unique[-1] < b:
                unique = np.concatenate([unique, [b]])
            lo, hi = _cells(a, b, rng.permutation(edges))
            assert np.array_equal(lo, unique[:-1]) and np.array_equal(hi, unique[1:])
        lo, hi = _cells(0.0, 2.0, None)
        assert np.array_equal(lo, [0.0]) and np.array_equal(hi, [2.0])

    def test_exponential(self):
        assert integrate_semi_infinite(lambda y: np.exp(-y)) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_cosine_closed_form(self):
        # int_0^inf e^(-t u^2) cos(a u) du = (1/2) sqrt(pi/t) e^(-a^2/(4t))
        t, a = 1.0, 2.0
        closed = 0.5 * math.sqrt(math.pi / t) * math.exp(-a * a / (4.0 * t))
        cut = math.sqrt(-math.log(1e-16) / t)
        val = integrate_interval(lambda u: np.exp(-t * u * u) * np.cos(a * u), 0.0, cut,
                                 edges=_period_edges(0.0, cut, math.pi / a))
        assert val == pytest.approx(closed, abs=1e-10)

    def test_exponential_sine_closed_form(self):
        # int_0^inf e^(-a x) sin(b x) dx = b / (a^2 + b^2); e^(-40) is below 1e-17
        val = integrate_interval(lambda x: np.exp(-x) * np.sin(x), 0.0, 40.0,
                                 edges=_period_edges(0.0, 40.0, math.pi))
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_sqrt_substitution_invariance(self):
        # the oscillatory family in y and after omega = sqrt(y) agree
        t, kappa = 1.0, 1.7

        def f_y(y):
            return np.exp(-t * y) / (y + 0.5) * np.sqrt(2.0 * y) * np.cos(kappa * np.sqrt(2.0 * y))

        def f_w(w):
            return np.exp(-t * w * w) / (w * w + 0.5) * np.sqrt(2.0) * w * np.cos(
                kappa * math.sqrt(2.0) * w) * 2.0 * w

        cut = -math.log(1e-16) / t
        v1 = integrate_interval(f_y, 0.0, cut)
        v2 = integrate_interval(f_w, 0.0, math.sqrt(cut), edges=_period_edges(
            0.0, math.sqrt(cut), math.pi / (kappa * math.sqrt(2.0))))
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_nonconvergence_on_tiny_budget(self):
        # tolerances no quadrature meets: the subdivision budget runs out
        with pytest.raises(NonConvergence, match="subdivisions"):
            integrate_interval(lambda x: np.sin(40.0 * x) * np.exp(-x), 0.0, 30.0,
                               abs_tol=1e-300, rel_tol=1e-300)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NumericalInstability, match="not finite"):
            integrate_interval(lambda x: np.where(x > 0.7, np.nan, x), 0.0, 1.0)
        with pytest.raises(NumericalInstability, match="not finite"):
            integrate_interval(lambda x: x, 0.0, math.nan)
        with pytest.raises(NumericalInstability, match="not finite"):
            integrate_semi_infinite(lambda x: np.full_like(x, np.nan))

    def test_pathological_period_raises(self):
        with pytest.raises(NonConvergence):
            _period_edges(0.0, 30.0, math.pi / 1e9)


def _ref_cell_estimates(f, lo, hi):
    # the one-integrand rule before the batch axis, as integrate_interval ran it
    xl, wl = _gauss_rule(15)
    xh, wh = _gauss_rule(31)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts_l = (mid[:, None] + half[:, None] * xl[None, :]).ravel()
    pts_h = (mid[:, None] + half[:, None] * xh[None, :]).ravel()
    vals = np.asarray(f(np.concatenate([pts_l, pts_h]))).astype(float)
    vl = vals[:pts_l.size].reshape(lo.size, 15)
    vh = vals[pts_l.size:].reshape(lo.size, 31)
    est_h = half * (vh @ wh)
    return est_h, np.abs(est_h - half * (vl @ wl))


class TestFixedLadder:
    """`integrate_ladder`: one fixed partition of [0, t_hi], a batch of integrands."""

    ROWS = (lambda t: np.exp(-t), lambda t: t * np.exp(-2.0 * t),
            lambda t: np.sin(t) * np.exp(-t), lambda t: np.exp(-1.0 / t - t))

    def test_one_integrand_cells_unchanged(self):
        lo, hi = _cells(0.0, 5.0, np.linspace(0.0, 5.0, 7))
        for row in self.ROWS:
            for new, ref in zip(_cell_estimates(row, lo, hi), _ref_cell_estimates(row, lo, hi)):
                assert np.array_equal(new, ref)

    def test_batch_rows_match_single_integrands(self):
        def table(t):
            return np.stack([row(t) for row in self.ROWS])

        batch = integrate_ladder(table, 1e-3, 40.0, abs_tol=1e-12, rel_tol=1e-10)
        assert batch.shape == (len(self.ROWS),)
        for k, row in enumerate(self.ROWS):
            single = integrate_ladder(row, 1e-3, 40.0, abs_tol=1e-12, rel_tol=1e-10)
            assert np.ndim(single) == 0 and single == batch[k]
        # 1, 1/4 and 1/2 less tails below e^(-40); 2 K_1(2) for the last row
        closed = [1.0, 0.25, 0.5, 2.0 * bessel_k(1.0, 2.0)]
        assert np.allclose(batch, closed, rtol=1e-13, atol=0.0)

    def test_two_by_three_table(self):
        s = np.array([0.5, 1.0, 2.0])
        out = integrate_ladder(lambda t: np.exp(-np.outer([1.0, 3.0], s)[..., None] * t),
                               1e-4, 80.0, abs_tol=1e-12, rel_tol=1e-10)
        assert out.shape == (2, 3)
        assert np.allclose(out, 1.0 / np.outer([1.0, 3.0], s), rtol=1e-13, atol=0.0)

    def test_nan_table_raises(self):
        def table(t):
            out = np.stack([np.exp(-t), np.exp(-2.0 * t)])
            out[1, t > 3.0] = np.nan
            return out

        with pytest.raises(NumericalInstability, match="not finite"):
            integrate_ladder(table, 1e-3, 40.0, abs_tol=1e-12, rel_tol=1e-10)

    def test_unresolved_integrand_raises(self):
        # 200 oscillations per unit of t: far too many for 15 nodes on a cell
        with pytest.raises(NonConvergence, match="tolerance"):
            integrate_ladder(lambda t: np.sin(200.0 * t) * np.exp(-t), 1e-3, 40.0,
                             abs_tol=1e-12, rel_tol=1e-10)


class TestTabulatedConstants:
    """The Gauss-Legendre rules and Stehfest weights are constants: exactly what
    numpy.polynomial and exact rational arithmetic give."""

    @pytest.mark.parametrize("n", [12, 15, 16, 31, 32, 40])
    def test_gauss_rule_is_leggauss_bit_for_bit(self, n):
        nodes, weights = _gauss_rule(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 20, 64])
    def test_untabulated_rule_raises(self, n):
        with pytest.raises(DomainError):
            _gauss_rule(n)

    @pytest.mark.parametrize("n_terms", range(2, 41, 2))
    def test_stehfest_weights_are_the_rounded_fraction_sums(self, n_terms):
        m2, fac = n_terms // 2, math.factorial
        ref = [(-1) ** (k + m2) * float(sum(
            (Fraction(j ** m2 * fac(2 * j),
                      fac(m2 - j) * fac(j) * fac(j - 1) * fac(k - j) * fac(2 * j - k))
             for j in range((k + 1) // 2, min(k, m2) + 1)), Fraction(0)))
            for k in range(1, n_terms + 1)]
        assert stehfest_weights(n_terms).tobytes() == np.array(ref).tobytes()


class TestInverseLaplace:
    def test_weight_normalisation(self):
        # sum V_k / k = 1 exactly (the method reproduces constants), up to the
        # float64 cancellation inherent in the alternating weights
        eps = np.finfo(float).eps
        for m in (8, 12, 16, 18):
            v = stehfest_weights(m)
            k = np.arange(1, m + 1)
            slack = 20.0 * eps * np.sum(np.abs(v) / k)
            assert np.sum(v / k) == pytest.approx(1.0, abs=max(slack, 1e-12))

    def test_constant(self):
        # exact up to the cancellation bound sum|V_k|/k * eps
        assert invert_laplace(lambda s: 1.0 / s, 3.0) == pytest.approx(1.0, abs=1e-6)

    def test_identity_function(self):
        assert invert_laplace(lambda s: 1.0 / s ** 2, 2.5) == pytest.approx(2.5, rel=1e-7)

    def test_power_three_halves(self):
        # transform s^(-3/2)/sqrt(2) inverts to sqrt(2 t / pi)
        val = invert_laplace(lambda s: s ** -1.5 / math.sqrt(2.0), 1.0)
        assert val == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-6)
        assert math.sqrt(2.0 / math.pi) == pytest.approx(0.797885, abs=5e-7)

    def test_roundtrip_identity_comfort_zone(self):
        # invert_laplace of the numerically computed forward transform; the
        # real-axis method resolves pointwise-relative 1e-5 while f stays
        # within a few orders of its scale
        tight = {"abs_tol": 1e-13, "rel_tol": 1e-12}
        cases = [
            (lambda u: np.exp(-u), lambda t: math.exp(-t)),
            (lambda u: u * np.exp(-u), lambda t: t * math.exp(-t)),
            (lambda u: np.exp(-0.5 * u) + 2.0 * np.exp(-2.0 * u),
             lambda t: math.exp(-0.5 * t) + 2.0 * math.exp(-2.0 * t)),
        ]
        for f, f_exact in cases:
            def transform(s, f=f):
                return np.array([integrate_semi_infinite(
                    lambda u: np.exp(-si * u) * f(u), **tight) for si in np.atleast_1d(s)])
            for t in np.linspace(0.1, 1.5, 8):
                val = invert_laplace(transform, float(t))
                assert val == pytest.approx(f_exact(t), rel=1e-5)

    def test_roundtrip_identity_scale_relative_wide(self):
        # beyond the comfort zone the error stays small relative to the
        # function scale; points with f below ~1e-3 of scale may be rejected
        # by the instability detector, which is the honest outcome there
        tight = {"abs_tol": 1e-13, "rel_tol": 1e-12}

        def f(u):
            return np.exp(-0.5 * u) + 2.0 * np.exp(-2.0 * u)

        def f_exact(t):
            return math.exp(-0.5 * t) + 2.0 * math.exp(-2.0 * t)

        def transform(s):
            return np.array([integrate_semi_infinite(
                lambda u: np.exp(-si * u) * f(u), **tight) for si in np.atleast_1d(s)])

        scale = f_exact(0.1)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            try:
                val = invert_laplace(transform, t)
            except NumericalInstability:
                assert f_exact(t) < 1e-3 * scale
                continue
            assert abs(val - f_exact(t)) <= 5e-5 * scale

    def test_gs_vs_talbot_cross_check(self):
        def transform(s):
            return 1.0 / (s + 1.0) ** 2

        for t in (0.25, 0.7, 1.5):
            gs = invert_laplace(transform, t)
            tb = invert_laplace_talbot(transform, t)
            assert gs == pytest.approx(tb, rel=1e-5)
            assert tb == pytest.approx(t * math.exp(-t), rel=1e-9)

    def test_oscillatory_transform_detected(self):
        with pytest.raises(NumericalInstability):
            invert_laplace(lambda s: 1.0 / (s * s + 1.0), 3.0)

    def test_batch_matches_scalar(self):
        ts = np.array([0.3, 1.0, 2.0])
        batch = invert_laplace(lambda s: 1.0 / (s + 1.0), ts)
        singles = [invert_laplace(lambda s: 1.0 / (s + 1.0), float(t)) for t in ts]
        assert np.array_equal(batch, np.array(singles))

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_inversions_reject_bad_time(self, t):
        for invert in (invert_laplace, invert_laplace_talbot):
            with pytest.raises(DomainError):
                invert(lambda s: 1.0 / s, t)
        with pytest.raises(DomainError):
            invert_laplace(lambda s: 1.0 / s, np.array([1.0, t]))

    def test_transform_evaluated_once_and_broadcast(self):
        # a scalar result stands for every abscissa; a result whose shape does
        # not broadcast to the abscissae' is an error
        calls = []

        def constant(s):
            calls.append(np.shape(s))
            return 2.0

        s = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(_eval_transform(constant, s), [2.0, 2.0, 2.0])
        assert calls == [(3,)]
        with pytest.raises(DomainError):
            _eval_transform(lambda s: np.ones(2), s)
        with pytest.raises(DomainError):
            invert_laplace(lambda s: np.ones((np.size(s), 2)), 1.0)
        with pytest.raises(DomainError):
            invert_laplace_talbot(lambda s: np.ones(3), 1.0)

    def test_inversions_reject_nan_transform(self):
        def transform(s):
            return np.full(np.shape(s), np.nan)

        for invert in (invert_laplace, invert_laplace_talbot):
            with pytest.raises(NumericalInstability):
                invert(transform, 1.0)
        with pytest.raises(NumericalInstability):
            invert_laplace(transform, np.array([0.5, 1.0]))


class TestNumericSpec:
    """The tolerance checks of the retired NumericSpec, now made by the quadratures' keywords."""

    def test_defaults_valid(self):
        for fn in (integrate_interval, integrate_semi_infinite):
            params = inspect.signature(fn).parameters
            assert params["abs_tol"].default == 1e-10 and params["rel_tol"].default == 1e-8
            assert params["abs_tol"].kind is inspect.Parameter.KEYWORD_ONLY

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1.0},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            integrate_interval(np.exp, 0.0, 1.0, **kwargs)
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: np.exp(-x), **kwargs)

    def test_public_api_takes_no_spec(self):
        # only the quadratures take tolerances, as keywords; no exported
        # callable or dataclass has a `spec`
        with_tols = set()
        for name in dir(ighit):
            obj = getattr(ighit, name)
            if name.startswith("_") or not callable(obj):
                continue
            if dataclasses.is_dataclass(obj):
                assert "spec" not in {f.name for f in dataclasses.fields(obj)}, name
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            assert "spec" not in params, name
            if {"abs_tol", "rel_tol"} & params.keys():
                with_tols.add(name)
        assert with_tols == {"integrate_interval", "integrate_semi_infinite"}
        for name in ("NumericSpec", "DEFAULT_SPEC", "LaplaceFunction"):
            assert not hasattr(ighit, name)
