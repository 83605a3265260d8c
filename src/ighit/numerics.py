"""Numerical substrate: special functions, adaptive quadrature, inverse Laplace transforms.

Everything here is pure and vectorised over numpy arrays.  Integrands and
Laplace transforms passed in are expected to accept ndarray arguments and
return arrays of the same shape; a transform's value is broadcast to it.
Oscillatory integrands take `integrate_interval` with `_period_edges` cells.
The quadratures take their error target as `abs_tol`/`rel_tol` keywords;
the other budgets are fixed: at most `MAX_SUBDIVISIONS` cell bisections per
integral and `GS_TERMS` Gaver-Stehfest terms per inversion.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergence, NumericalInstability, _finite_positive

LN2 = math.log(2.0)
SQRT_PI = math.sqrt(math.pi)
INV_SQRT_PI = 1.0 / SQRT_PI

_EPS = float(np.finfo(float).eps)

MAX_SUBDIVISIONS = 4000
GS_TERMS = 16
_ILT_ABS_TOL = 1e-10  # absolute slack of the inversions' two-term-count check


# ---------------------------------------------------------------------------
# Error function family
#
# Rational approximations from W. J. Cody, "Rational Chebyshev approximation
# for the error function", Math. Comp. 23 (1969) 631-637, as organised in the
# SPECFUN routine CALERF.  Three regions; double-precision coefficients.
# ---------------------------------------------------------------------------

_ERF_A = np.array([
    3.16112374387056560e00, 1.13864154151050156e02,
    3.77485237685302021e02, 3.20937758913846947e03,
    1.85777706184603153e-1,
])
_ERF_B = np.array([
    2.36012909523441209e01, 2.44024637934444173e02,
    1.28261652607737228e03, 2.84423683343917062e03,
])
_ERF_C = np.array([
    5.64188496988670089e-1, 8.88314979438837594e00,
    6.61191906371416295e01, 2.98635138197400131e02,
    8.81952221241769090e02, 1.71204761263407058e03,
    2.05107837782607147e03, 1.23033935479799725e03,
    2.15311535474403846e-8,
])
_ERF_D = np.array([
    1.57449261107098347e01, 1.17693950891312499e02,
    5.37181101862009858e02, 1.62138957456669019e03,
    3.29079923573345963e03, 4.36261909014324716e03,
    3.43936767414372164e03, 1.23033935480374942e03,
])
_ERF_P = np.array([
    3.05326634961232344e-1, 3.60344899949804439e-1,
    1.25781726111229246e-1, 1.60837851487422766e-2,
    6.58749161529837803e-4, 1.63153871373020978e-2,
])
_ERF_Q = np.array([
    2.56852019228982242e00, 1.87295284992346047e00,
    5.27905102951428412e-1, 6.05183413124413191e-2,
    2.33520497626869185e-3,
])


def _rational(y, num, den, n):
    """Numerator and denominator of Cody's P(y)/Q(y), by Horner's rule in place.

    They start at num[-1] * y and y; each of n steps adds num[i] (den[i]) and
    multiplies by y, rounding as (x + c) * y does, and num[n] and den[n] are
    added last.  The caller divides, after any scaling of its own.
    """
    xnum = num[-1] * y
    xden = y.copy()
    for i in range(n):
        xnum += num[i]
        xnum *= y
        xden += den[i]
        xden *= y
    xnum += num[n]
    xden += den[n]
    return xnum, xden


def _erf_small(y):
    # |y| <= 0.46875: erf(y) = y * R(y^2)
    xnum, xden = _rational(y * y, _ERF_A, _ERF_B, 3)
    xnum *= y
    xnum /= xden
    return xnum


def _erfcx_mid(y):
    # 0.46875 < y <= 4: returns exp(y^2) * erfc(y)
    xnum, xden = _rational(y, _ERF_C, _ERF_D, 7)
    xnum /= xden
    return xnum


def _erfcx_large(y):
    # y > 4: returns exp(y^2) * erfc(y).  Above y = 1e150, where y^2 may
    # overflow, the y^-2 terms fall below half an ulp of 1/sqrt(pi) either
    # way, so y is capped there
    ysq = np.minimum(y, 1e150)
    ysq *= ysq
    np.divide(1.0, ysq, out=ysq)
    xnum, xden = _rational(ysq, _ERF_P, _ERF_Q, 4)
    xnum *= ysq
    xnum /= xden
    np.subtract(INV_SQRT_PI, xnum, out=xnum)
    xnum /= y
    return xnum


def _exp_nsq(y):
    # exp(-y^2) with the split-argument trick to keep relative accuracy large y;
    # it is 0 from y = 27.3 on, so y is capped at 40, where y^2 cannot overflow
    y = np.minimum(y, 40.0)
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta)


def _cody(y, small, tail):
    """small(y) on y <= 0.46875, else tail(y, rule) with the erfcx rule of
    (0.46875, 4] or of y > 4, for an array y >= 0 of one or more dimensions.
    NaN takes the y > 4 rule, so it stays NaN; points all in one region skip
    the gather and scatter."""
    small_y, large_y = y <= 0.46875, ~(y <= 4.0)
    regions = [(np.count_nonzero(mask), mask, rule) for mask, rule in (
        (small_y, small), (~(small_y | large_y), lambda a: tail(a, _erfcx_mid)),
        (large_y, lambda a: tail(a, _erfcx_large)))]
    for count, _, rule in regions:
        if count == y.size:
            return rule(y)
    out = np.empty_like(y)
    for count, mask, rule in regions:
        if count:
            out[mask] = rule(y[mask])
    return out


def _as_array(z):
    arr = np.asarray(z, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def erf(z):
    """Error function, vectorised; relative error below 1e-13 on the real line."""
    y, scalar = _as_array(z)
    out = _cody(np.abs(y), _erf_small, lambda a, rule: 1.0 - _exp_nsq(a) * rule(a))
    np.negative(out, out=out, where=y < 0)
    return float(out[0]) if scalar else out


def erfc(z):
    """Complementary error function 1 - erf(z), accurate into the far tail."""
    y, scalar = _as_array(z)
    out = _cody(np.abs(y), lambda a: 1.0 - _erf_small(a), lambda a, rule: _exp_nsq(a) * rule(a))
    np.subtract(2.0, out, out=out, where=y < 0)
    return float(out[0]) if scalar else out


def erfcx(z):
    """Scaled complement exp(z^2) * erfc(z); stable for large positive z."""
    y, scalar = _as_array(z)
    out = _cody(np.abs(y), lambda a: np.exp(a * a) * (1.0 - _erf_small(a)),
                lambda a, rule: rule(a))
    neg = y < 0
    if neg.any():
        yn = y[neg]
        out[neg] = 2.0 * np.exp(yn * yn) - out[neg]
    return float(out[0]) if scalar else out


def norm_cdf(z):
    """Standard normal distribution function via erfc."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Incomplete gamma (upper), valid for real a including negative non-integers
# ---------------------------------------------------------------------------

def upper_gamma(a: float, x):
    """Upper incomplete gamma integral of t^(a-1) e^(-t) over (x, inf), x > 0.

    Vectorised over x: a scalar x gives a float, an array gives an array of
    its shape.  Continued fraction where x >= max(1, a+1), series elsewhere,
    each run over all of its elements at once until every one has converged;
    handles the a < 0 case needed for tempered-stable tail integrals.
    """
    x_arr = _finite_positive(np.asarray(x, dtype=float), "upper_gamma: x")
    flat = x_arr.ravel()
    out = np.empty_like(flat)
    cf = flat >= max(1.0, a + 1.0)
    if cf.any():
        xc = flat[cf]
        out[cf] = np.exp(-xc + a * np.log(xc)) * _gamma_cf(a, xc)
    if not cf.all():
        out[~cf] = math.gamma(a) - _lower_gamma_series(a, flat[~cf])
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


def _gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    # modified Lentz; each h freezes once its own delta is within 1e-15 of 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(b, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(b.shape, dtype=bool)
    for i in range(1, 401):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < 1e-15
        if done.all():
            return h
    raise NonConvergence("continued fraction for upper_gamma did not converge")


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    done = np.zeros(x.shape, dtype=bool)
    for n in range(1, 501):
        term = term * (x / (a + n))
        total = np.where(done, total, total + term)
        done |= np.abs(term) < np.abs(total) * 1e-16
        if done.all():
            return total * np.exp(-x + a * np.log(x))
    raise NonConvergence("series for lower incomplete gamma did not converge")


_BESSEL_CHUNK = 256


def bessel_k(nu: float, z) -> np.ndarray:
    """Modified Bessel function K_nu(z) for z > 0 via the cosh integral.

    K_nu(z) = e^(-z) times the integral over tau in (0, inf) of
    e^(-2z sinh^2(tau/2)) cosh(nu tau), truncated where the integrand falls
    below 1e-20 of its z-dependent scale.  The integrand is even and analytic
    in a strip about the real axis, so the trapezoid rule on nodes k*h
    converges geometrically (Trefethen & Weideman, SIAM Review 56, 2014);
    h = min(0.2, 0.5/sqrt(z)) resolves the width-1/sqrt(z) peak at tau = 0.
    Writing cosh tau - 1 as 2 sinh^2(tau/2) keeps the exponent small near
    that peak, so the rounding of z cosh tau does not enter.  Vectorised over
    z: up to 256 values share one rule; larger arrays run in ascending chunks
    of 256, each with the step its largest z and the length its smallest z
    needs, so memory stays bounded.  Zero from z = 700 on.
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    flat = z_arr.ravel()
    # NaN raises as z <= 0 does; z = +inf gives K = 0
    if not np.all(flat > 0):
        raise DomainError("bessel_k: z must be > 0")
    out = np.zeros_like(flat)
    live = np.flatnonzero(flat < 700.0)
    if live.size > _BESSEL_CHUNK:
        live = live[np.argsort(flat[live], kind="stable")]
    for lo in range(0, live.size, _BESSEL_CHUNK):
        idx = live[lo:lo + _BESSEL_CHUNK]
        zs = flat[idx]
        tau_max = math.acosh(1.0 + (50.0 + 5.0 * abs(nu)) / float(zs.min()))
        h = min(0.2, 0.5 / math.sqrt(float(zs.max())))
        tau = h * np.arange(math.ceil(tau_max / h) + 1)
        half_sinh = np.sinh(0.5 * tau)
        weights = h * np.cosh(nu * tau)
        weights[0] *= 0.5
        out[idx] = np.exp(-zs) * (np.exp(np.outer(-2.0 * zs, half_sinh * half_sinh)) @ weights)
    return float(out[0]) if scalar else out.reshape(z_arr.shape)


# ---------------------------------------------------------------------------
# Adaptive Gauss quadrature
# ---------------------------------------------------------------------------

_N_LOW, _N_HIGH = 15, 31


# The non-negative half of each Gauss-Legendre rule the package uses, nodes then
# weights, bit for bit as numpy's legendre.leggauss(n) gives them; leggauss makes
# its rules exactly symmetric, so the mirror image is the other half.  Tabulated,
# as QUADPACK does, so that no process imports numpy's polynomial package and
# solves an eigenproblem for fixed constants.
_GAUSS_HALVES = {
    12: ((0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
          0.9041172563704748, 0.9815606342467192),
         (0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
          0.10693932599531907, 0.04717533638651141)),
    15: ((0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
          0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854),
         (0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
          0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203)),
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
          0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)),
    31: ((0.0, 0.09955531215234152, 0.19812119933557062, 0.29471806998170164,
          0.38838590160823294, 0.4781937820449025, 0.5632491614071492, 0.6427067229242603,
          0.7157767845868533, 0.781733148416625, 0.8399203201462674, 0.8897600299482711,
          0.9307569978966481, 0.9625039250929497, 0.9846859096651525, 0.997087481819477),
         (0.0997205447934261, 0.09922501122667202, 0.09774333538632848, 0.09529024291231925,
          0.09189011389364123, 0.08757674060847759, 0.08239299176158914, 0.07639038659877635,
          0.06962858323541009, 0.06217478656102821, 0.05410308242491654, 0.04549370752720094,
          0.03643227391238576, 0.027009019184978878, 0.017318620790311608, 0.00747083157925088)),
    32: ((0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
          0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
          0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
          0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
         (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
          0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
          0.06582222277636168, 0.058684093478535565, 0.05099805926237609,
          0.042835898022226836, 0.034273862913021765, 0.025392065309262024,
          0.016274394730905743, 0.007018610009470506)),
    40: ((0.038772417506050816, 0.11608407067525521, 0.1926975807013711, 0.2681521850072537,
          0.3419940908257585, 0.413779204371605, 0.4830758016861787, 0.5494671250951282,
          0.6125538896679802, 0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
          0.8246122308333117, 0.8659595032122595, 0.9020988069688742, 0.9328128082786765,
          0.9579168192137917, 0.9772599499837743, 0.990726238699457, 0.9982377097105591),
         (0.07750594797842451, 0.07703981816424763, 0.07611036190062598, 0.07472316905796794,
          0.07288658239580377, 0.07061164739128656, 0.06791204581523368, 0.06480401345660076,
          0.061306242492928834, 0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
          0.04387090818567321, 0.03878216797447219, 0.03346019528254789, 0.027937006980023434,
          0.022245849194166653, 0.016421058381906828, 0.010498284531153814,
          0.004521277098536349)),
}


@lru_cache(maxsize=None)
def _gauss_rule(n: int):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if n not in _GAUSS_HALVES:
        raise DomainError(f"no tabulated Gauss-Legendre rule of {n} points")
    nodes, weights = (np.array(half) for half in _GAUSS_HALVES[n])
    # an odd rule's middle node 0 is in its half once
    return (np.concatenate((-nodes[n % 2:][::-1], nodes)),
            np.concatenate((weights[n % 2:][::-1], weights)))


def composite_gauss(edges: np.ndarray, n: int = 12):
    """Fixed composite Gauss rule over a panel partition; returns (points, weights)."""
    nodes, weights = _gauss_rule(n)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def geomspace(start: float, stop: float, n: int) -> np.ndarray:
    """`np.geomspace(start, stop, n)` bit for bit, for 0 < start, 0 < stop and n >= 2.

    The same arithmetic as numpy's: log10 of the ends (np.log10, which can
    differ from math.log10 in the last bit), an evenly stepped exponent,
    10**exponent, and the ends put back exactly; without the argument
    promotion and checks that cost numpy's version most of its time on
    short ladders.
    """
    log_lo = np.log10(start)
    log_hi = np.log10(stop)
    exponent = np.arange(n, dtype=float)
    exponent *= (log_hi - log_lo) / (n - 1)
    exponent += log_lo
    exponent[-1] = log_hi
    out = np.power(10.0, exponent)
    out[0] = start
    out[-1] = stop
    return out


def _cells(a: float, b: float, edges) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the cells between the distinct points of a, b and `edges` clipped to [a, b].

    Sorting and dropping empty cells leaves the cells np.unique of the edges gave.
    """
    if edges is None or len(edges) == 0:
        return np.array([a], dtype=float), np.array([b], dtype=float)
    inner = np.minimum(np.maximum(np.asarray(edges, dtype=float), a), b)
    pts = np.sort(np.concatenate(([a, b], inner)))
    lo = pts[:-1]
    hi = pts[1:]
    keep = hi > lo
    return lo[keep], hi[keep]


def _cell_estimates(f, lo, hi):
    xl, wl = _gauss_rule(_N_LOW)
    xh, wh = _gauss_rule(_N_HIGH)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts_l = (mid[:, None] + half[:, None] * xl[None, :]).ravel()
    pts_h = (mid[:, None] + half[:, None] * xh[None, :]).ravel()
    vals = np.asarray(f(np.concatenate([pts_l, pts_h])))
    if not np.iscomplexobj(vals):
        vals = vals.astype(float, copy=False)
    nl, lead = pts_l.size, vals.shape[:-1]
    vl = vals[..., :nl].reshape(lead + (lo.size, _N_LOW))
    vh = vals[..., nl:].reshape(lead + (lo.size, _N_HIGH))
    est_l = half * (vl @ wl)
    est_h = half * (vh @ wh)
    return est_h, np.abs(est_h - est_l)


def integrate_interval(f, a: float, b: float, *, edges=None,
                       abs_tol: float = 1e-10, rel_tol: float = 1e-8) -> float:
    """Globally adaptive Gauss quadrature of a vectorised integrand on [a, b].

    `edges` may seed an initial partition (e.g. one cell per oscillation
    half-period); cells are bisected until the summed error estimate meets
    max(abs_tol, rel_tol * |integral|).  NonConvergence is raised once more
    than MAX_SUBDIVISIONS bisections have not, and NumericalInstability where
    the error estimate is not finite (a NaN or inf integrand value).
    """
    _finite_positive(abs_tol, "integrate_interval: abs_tol")
    _finite_positive(rel_tol, "integrate_interval: rel_tol")
    if b <= a:
        return 0.0
    lo, hi = _cells(a, b, edges)
    vals, errs = _cell_estimates(f, lo, hi)
    n_splits = 0
    while True:
        total = vals.sum()
        total = complex(total) if np.iscomplexobj(vals) else float(total)
        err = float(errs.sum())
        if not math.isfinite(err):
            # a NaN cell is never split, so the loop would run forever
            raise NumericalInstability(
                f"quadrature error estimate on [{a}, {b}] is {err}: the integrand "
                "is not finite there")
        tol = max(abs_tol, rel_tol * abs(total))
        if err <= tol:
            return total
        mask = errs > 0.5 * tol / lo.size
        if not mask.any():
            mask = errs >= errs.max()
        n_splits += int(mask.sum())
        if n_splits > MAX_SUBDIVISIONS:
            raise NonConvergence(
                f"quadrature did not reach tolerance after {n_splits} subdivisions "
                f"(err={err:.3e}, tol={tol:.3e})")
        ml, mh = lo[mask], hi[mask]
        mid = 0.5 * (ml + mh)
        new_lo = np.concatenate([ml, mid])
        new_hi = np.concatenate([mid, mh])
        nv, ne = _cell_estimates(f, new_lo, new_hi)
        lo = np.concatenate([lo[~mask], new_lo])
        hi = np.concatenate([hi[~mask], new_hi])
        vals = np.concatenate([vals[~mask], nv])
        errs = np.concatenate([errs[~mask], ne])


def integrate_ladder(f, t_lo: float, t_hi: float, *, abs_tol: float, rel_tol: float):
    """Integrals over [0, t_hi] of f's values along their last axis (a (k, n) table
    gives k), by `integrate_interval`'s 15/31-node pair on the fixed cells [0, t_lo]
    and 4 geometric ones per decade up to t_hi > t_lo > 0.  A summed 15/31 difference
    above max(abs_tol, rel_tol |integral|) raises NonConvergence, a non-finite one
    NumericalInstability."""
    edges = geomspace(t_lo, t_hi, math.ceil(4.0 * math.log10(t_hi / t_lo)) + 1)
    vals, errs = _cell_estimates(f, np.concatenate(([0.0], edges[:-1])), edges)
    total, err = vals.sum(axis=-1), errs.sum(axis=-1)
    if not np.all(np.isfinite(err)):
        raise NumericalInstability(f"quadrature error estimate on [0, {t_hi}] is not finite")
    if np.any(err > np.maximum(abs_tol, rel_tol * np.abs(total))):
        raise NonConvergence(f"fixed cells on [0, {t_hi}] miss the tolerance: {err.max():.3e}")
    return total


def _period_edges(a: float, b: float, period) -> np.ndarray:
    """The multiples of `period` in [a, b], none where it is not a usable period."""
    if period is None or not np.isfinite(period) or period <= 0 or period >= (b - a):
        return np.empty(0)
    n_cells = (b - a) / period
    if n_cells > 20000:
        raise NonConvergence(
            f"oscillatory integrand needs {n_cells:.0f} cells on [{a}, {b}]; "
            "parameters are outside the supported regime")
    return np.arange(math.ceil(a / period), math.floor(b / period) + 1) * period


def integrate_semi_infinite(f, *, abs_tol: float = 1e-10, rel_tol: float = 1e-8) -> float:
    """Integrate a decaying integrand over (0, inf).

    Doubling segments [0, 1], [1, 2], [2, 4], ..., each at an eighth of the
    tolerances, are added until two consecutive ones from [16, 32] on
    contribute less than a quarter of the tolerance each.
    """
    total = 0.0
    a, b = 0.0, 1.0
    quiet = 0
    while True:
        seg = integrate_interval(f, a, b, abs_tol=abs_tol / 8.0, rel_tol=rel_tol / 8.0)
        total += seg
        tol = max(abs_tol, rel_tol * abs(total))
        if abs(seg) < 0.25 * tol and b >= 32.0:
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
        a, b = b, 2.0 * b
        if b > 2.0 ** 64:
            raise NonConvergence("semi-infinite integral did not settle by 2^64")


# ---------------------------------------------------------------------------
# Inverse Laplace transforms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def stehfest_weights(n_terms: int) -> np.ndarray:
    """Salzer summation weights for the Gaver-Stehfest method (exact rationals)."""
    if n_terms % 2 != 0 or n_terms < 2:
        raise DomainError("stehfest term count must be even and >= 2")
    m2 = n_terms // 2
    fac = math.factorial
    weights = []
    for k in range(1, n_terms + 1):
        # each term's denominator divides m2!^3 k!^2; int / int rounds correctly
        common = fac(m2) ** 3 * fac(k) ** 2
        acc = sum(j ** m2 * fac(2 * j)
                  * (common // (fac(m2 - j) * fac(j) * fac(j - 1) * fac(k - j) * fac(2 * j - k)))
                  for j in range((k + 1) // 2, min(k, m2) + 1))
        weights.append((-1) ** (k + m2) * (acc / common))
    return np.array(weights, dtype=float)


def _eval_transform(fn, s):
    """fn at the abscissae s, evaluated once and broadcast to their shape."""
    vals = np.asarray(fn(s))
    try:
        return np.broadcast_to(vals, np.shape(s))
    except ValueError:
        raise DomainError(
            f"a transform of {np.shape(s)} abscissae returned shape {vals.shape}") from None


def _gs_core(fn, flat_ts: np.ndarray, n_terms: int) -> np.ndarray:
    # one code path for scalar and batch inversion; the weighted sum is
    # accumulated term by term so results are identical for any batch shape
    k_ln2 = np.arange(1, n_terms + 1, dtype=float) * LN2
    s = (k_ln2[None, :] / flat_ts[:, None]).ravel()
    vals = _eval_transform(fn, s).astype(float).reshape(flat_ts.size, n_terms)
    weights = stehfest_weights(n_terms)
    acc = np.zeros(flat_ts.size)
    for j in range(n_terms):
        acc += weights[j] * vals[:, j]
    return (LN2 / flat_ts) * acc


def _fixed_talbot(fn, t: float, n_terms: int) -> float:
    m = n_terms
    r = 2.0 * m / (5.0 * t)
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    s = np.empty(m, dtype=complex)
    s[0] = r
    s[1:] = r * theta * (cot + 1j)
    gamma = np.empty(m, dtype=complex)
    gamma[0] = 0.5 * np.exp(r * t)
    gamma[1:] = (1.0 + 1j * theta * (1.0 + cot ** 2) - 1j * cot) * np.exp(t * s[1:])
    vals = _eval_transform(fn, s)
    return float((2.0 / (5.0 * t)) * np.sum((gamma * vals).real))


def _gs_achievable_rel(n_terms: int) -> float:
    """Relative accuracy Gaver-Stehfest can deliver at this term count.

    Truncation shrinks like ~10^(-0.40 n) while float64 cancellation grows
    with the summed weight magnitude; the detector's noise floor is the worse
    of the two.
    """
    truncation = 10.0 ** -(0.40 * (n_terms - 2) - 1.0)
    cancellation = float(np.abs(stehfest_weights(n_terms)).sum()) * _EPS
    return max(truncation, cancellation, 1e-9)


def invert_laplace(fn, t):
    """Numerically invert a Laplace transform at finite t > 0 by Gaver-Stehfest.

    t is one time (the result is a float) or an array of times, done in one
    vectorised pass: the transform is evaluated on the real axis only, on the
    full (time x term) matrix of abscissae.  GS_TERMS and GS_TERMS - 2 terms
    are compared at every time; a disagreement beyond 100x the method's
    achievable accuracy, or a non-finite estimate, raises
    NumericalInstability rather than returning a silently wrong value.
    """
    t_arr = _finite_positive(np.asarray(t, dtype=float), "invert_laplace: t")
    flat = t_arr.ravel()
    f_hi = _gs_core(fn, flat, GS_TERMS)
    f_lo = _gs_core(fn, flat, GS_TERMS - 2)
    floor = _gs_achievable_rel(GS_TERMS - 2)
    allowed = 100.0 * np.maximum(_ILT_ABS_TOL, floor * np.abs(f_hi))
    bad = ~(np.isfinite(f_hi) & (np.abs(f_hi - f_lo) <= allowed))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalInstability(
            f"inverse Laplace estimates disagree at t={flat[i]}: "
            f"{f_hi[i]:.9e} vs {f_lo[i]:.9e}")
    return float(f_hi[0]) if t_arr.ndim == 0 else f_hi.reshape(t_arr.shape)


def invert_laplace_talbot(fn, t: float) -> float:
    """Invert a Laplace transform at finite t > 0 on the fixed Talbot contour.

    A reference route for the real-axis `invert_laplace`: the transform must
    accept complex s.  24 and 20 nodes are compared; a disagreement beyond
    100 max(1e-10, 1e-7 |f|), or a non-finite estimate, raises
    NumericalInstability.
    """
    _finite_positive(t, "invert_laplace_talbot: t")
    f_hi = _fixed_talbot(fn, t, 24)
    f_lo = _fixed_talbot(fn, t, 20)
    allowed = 100.0 * max(_ILT_ABS_TOL, 1e-7 * abs(f_hi))
    if not (math.isfinite(f_hi) and abs(f_hi - f_lo) <= allowed):
        raise NumericalInstability(
            f"inverse Laplace estimates disagree: {f_hi:.9e} vs {f_lo:.9e} at t={t}")
    return f_hi
