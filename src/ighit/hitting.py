"""The hitting-time (inverse) process of the inverse Gaussian subordinator.

The distribution function comes from the duality P(H(t) <= x) = P(G(x) >= t)
and is exact.  Production code evaluates the density in closed form
(`hit_pdf_table`): H(t) is the running maximum of W_s + gamma*s over s <= t,
divided by delta (Borodin & Salminen, Handbook of Brownian Motion, 2002,
section 2.1).  The oscillatory integral representation and the Levy-tail
convolution are independent routes kept as oracles for the verification
report and the tests; the latter is also the oracle of `ts_hit_pdf_table`,
the tempered stable density from the x-derivative of the duality.
`sample_hitting_times` draws the IG running maximum exactly from a Gaussian
endpoint and an exponential, rounded up to the grid.
Transforms, moments, tail bounds and boundary values complete the picture.
The stable hitting-time family E(t) lives here too.

Density prefactor: the integral representation is evaluated with
exp(delta*gamma*x - t*gamma^2/2).  The printed variant with exp(-gamma^2/2) in
place of the t-dependent factor fails normalisation for gamma > 0, t != 1; it
is the true value times `printed_prefactor_ratio`, which the verification
report, the residual checks' `perturb` hook and `ighit density --mode literal`
apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convolution import _convolution_table, _lower_end
from .errors import (
    DomainError,
    NonConvergence,
    NumericalInstability,
    _count,
    _finite,
    _finite_nonnegative,
    _finite_positive,
)
from .numerics import (
    INV_SQRT_PI,
    _gauss_rule,
    _period_edges,
    erf,
    erfc,
    erfcx,
    geomspace,
    integrate_interval,
    invert_laplace,
)
from .subordinators import (
    IGParams,
    SamplePath,
    _check_beta,
    _ig_cdf,
    ig_cdf,
    ig_levy_tail,
    ig_psi,
    stable_cdf,
    stable_pdf,
)

SQRT2 = math.sqrt(2.0)
# the integral route's absolute error target for the density, and the value
# of exp(-t omega^2) at omega_max, where the integral routes truncate
_PDF_ABS_TOL = 1e-10
_TRUNCATION_EPS = 1e-16


def _osc_noise_estimate(log_pref: float, delta: float) -> float:
    # absolute error the oscillatory route leaves behind after float64
    # cancellation, amplified by the exp(delta*gamma*x - t*gamma^2/2) prefactor
    return math.exp(log_pref) * delta / math.pi * 2e-16


def HittingDensityEval(params: IGParams) -> IGParams:
    """`params` itself: the density functions take IGParams, and the benchmark
    builds its queries with this name (`subordinated.SubordinatedEval` is the
    same function)."""
    return params


def printed_prefactor_ratio(t, params: IGParams):
    """exp(gamma^2 (t-1)/2), broadcast over t: the printed t-free prefactor
    exp(-gamma^2/2) over the true exp(-t gamma^2/2).

    The printed integral density, space transform and boundary value are the
    true ones times this ratio.
    """
    g = params.gamma
    return np.exp(0.5 * g * g * (np.asarray(t, dtype=float) - 1.0))


# ---------------------------------------------------------------------------
# Density, route 1: oscillatory integral representation
# ---------------------------------------------------------------------------

def hit_pdf_integral(x: float, t: float, params: IGParams) -> float:
    """Hitting-time density h(x, t) by the oscillatory integral representation.

    After the substitution omega = sqrt(y) the integrand decays like
    exp(-t omega^2) and oscillates with wavenumber delta*sqrt(2)*x; quadrature
    cells follow the oscillation half-periods up to the truncation point
    omega_max = sqrt(-ln(1e-16)/t).
    """
    _finite_nonnegative(x, "hit_pdf_integral: x")
    _finite_positive(t, "hit_pdf_integral: t")
    d, g = params.delta, params.gamma
    if x == 0.0:
        return hit_boundary_value(t, params)
    log_pref = d * g * x - 0.5 * t * g ** 2
    if _osc_noise_estimate(log_pref, d) > 0.25 * _PDF_ABS_TOL:
        # far enough into the exp(delta*gamma*x) regime that the oscillatory
        # cancellation exceeds the error budget; evaluate through the
        # analytically equal, absolutely convergent convolution form
        return hit_pdf_convolution(x, t, params)
    kappa = d * SQRT2 * x
    omega_max = math.sqrt(-math.log(_TRUNCATION_EPS) / t)
    g2 = 0.5 * g ** 2

    def integrand(w):
        w2 = w * w
        kw = kappa * w
        osc = 2.0 * g * w * np.sin(kw) + 2.0 * SQRT2 * w2 * np.cos(kw)
        return np.exp(-t * w2) / (w2 + g2) * osc

    # the exp(delta*gamma*x) prefactor amplifies inner-quadrature error, so the
    # inner tolerance shrinks with it, down to the float64 cancellation floor
    floor = 5e-17 * max(1.0, omega_max)
    inner_abs = max(_PDF_ABS_TOL * math.exp(min(0.0, -log_pref)) * math.pi / d, floor)
    # one cell per oscillation half-period, plus a geometric ladder resolving
    # the width-gamma/sqrt(2) peak of 1/(w^2 + gamma^2/2) for small gamma
    edges = _period_edges(0.0, omega_max, math.pi / kappa)
    if g > 0:
        peak = g / SQRT2
        edges = np.concatenate([edges, peak * geomspace(0.1, min(1e4, omega_max / peak), 11)])
    val = integrate_interval(integrand, 0.0, omega_max, edges=edges, abs_tol=inner_abs)
    h = d / math.pi * math.exp(log_pref) * val
    if h < 0 and abs(h) <= 10.0 * max(_PDF_ABS_TOL, floor * math.exp(log_pref)):
        return 0.0
    return h


def hit_pdf_table(xs, t, params: IGParams) -> np.ndarray:
    """h(x, t) in closed form, broadcast over arrays of x and t.

    H(t) is the running maximum of W_s + gamma*s over s <= t, divided by
    delta, so with a = (delta x - gamma t)/sqrt(t), v = (delta x + gamma t)/sqrt(t)
    h(x, t) = delta e^(-a^2/2) [sqrt(2/(pi t)) - gamma erfcx(v/sqrt(2))]
    (Borodin & Salminen, Handbook of Brownian Motion, 2002, section 2.1).
    """
    xs = _finite_nonnegative(np.asarray(xs, dtype=float), "hit_pdf_table: x")
    t = _finite_positive(np.asarray(t, dtype=float), "hit_pdf_table: t")
    d, g = params.delta, params.gamma
    sq = np.sqrt(t)
    if g == 0.0:
        # v >= 0 puts erfcx(v/sqrt(2)) in (0, 1], so the erfcx term is exactly 0
        a = d * xs / sq
        return d * np.exp(-0.5 * a * a) * np.sqrt(2.0 / (math.pi * t))
    a = (d * xs - g * t) / sq
    v = (d * xs + g * t) / sq
    return d * np.exp(-0.5 * a * a) * (np.sqrt(2.0 / (math.pi * t)) - g * erfcx(v / SQRT2))


# ---------------------------------------------------------------------------
# Density, route 2: Levy-tail convolution (any strictly increasing subordinator),
# and the tempered stable density on a grid from the duality
# ---------------------------------------------------------------------------

def hit_pdf_convolution(xs, t: float, model):
    """Hitting-time density as the convolution of the Levy tail with the marginal,
    at every x of xs (a float for a scalar x), on one fixed rule for all of them.

    q(x, t) = integral over y in (0, t) of levy_tail(t - y) * marginal_pdf(y, x);
    only the marginal depends on x, so one rule serves every x: the coarser of
    two that passes its self-check (`convolution._convolution_table`), from a
    lower end the model's Laplace exponent sets (`convolution._lower_end`).
    The tail blows up like (t-y)^(-p) at the right endpoint (p =
    model.tail_exponent), integrably; t - y = v^(1/(1-p)) flattens it.
    NumericalInstability is raised where both rules miss their self-check.
    """
    x_arr = _finite_positive(np.asarray(xs, dtype=float), "hit_pdf_convolution: x")
    t = float(_finite_positive(t, "hit_pdf_convolution: t"))
    q = _convolution_table(x_arr.ravel(), t, model, _lower_end(model, float(x_arr.min()), t))
    q = q.reshape(x_arr.shape)
    return float(q) if q.ndim == 0 else q


# Gauss nodes per panel of the returned rule and of its self-check, and panels
# per decade of w
_TS_NODES = 16
_TS_CHECK_NODES = 12
_TS_PANELS_PER_DECADE = 16


def _interpolant_integral(vals, z, w, s):
    """int_-1^s of the polynomial through vals at Gauss nodes z (weights w), on vals' last axis.

    The polynomial is sum_k (k + 1/2) c_k P_k with c_k = sum_i w_i vals_i P_k(z_i), and
    (k + 1/2) int_-1^s P_k is (P_k+1(s) - P_k-1(s)) / 2, or (s + 1) / 2 at k = 0; P_k at z
    and s come from Bonnet's recurrence.
    """
    n = z.size
    x = np.concatenate((z, s.ravel()))
    p = np.empty((n + 1, x.size))
    p[0], p[1] = 1.0, x
    for k in range(1, n):
        p[k + 1] = ((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1)
    coef = vals @ (w[:, None] * p[:n, :n].T)
    p_s = p[:, n:].T.reshape(s.shape + (n + 1,))
    ints = np.concatenate(((s + 1.0)[..., None], p_s[..., 2:] - p_s[..., :-2]), axis=-1)
    return 0.5 * np.sum(coef * ints, axis=-1)


def ts_hit_pdf_table(xs, ts, beta: float, mu: float) -> np.ndarray:
    """Tempered stable hitting density on the grid xs x ts, shape (xs.size, ts.size).

    P(H(t) <= x) = P(S(x) >= t), so with f = `ts_pdf`(., x, beta, mu) and
    m = E S(x) = x beta mu^(beta-1), h = -d/dx P(S(x) <= t) is
    [t f(t; x) + mu int_0^t (y - m) f(y; x) dy] / (beta x).  The first term
    is e^(-mu t + x mu^beta) `stable_hit_pdf`(x, t, beta), Meerschaert &
    Scheffler's closed form (Stoch. Proc. Appl. 118, 2008) and the table at
    mu = 0.  The integrand changes sign at m and integrates to 0, so above m
    the integral is -int_t^Y, summed from the right: neither side cancels.
    S(x) has the law of x^(1/beta) S(1), so in w = y x^(-1/beta) the integrand
    is (x^(1/beta) w - m) e^(x mu^beta - mu x^(1/beta) w) g(w) with g the unit
    stable density, and one Gauss rule, geometric in w, serves every x.  It
    runs from the least w0 over x, where Kanter's L a(0) at time x is
    50 + x mu^beta (the tilted law holds at most e^-50 below), to the largest
    Y x^(-1/beta), with Y = max(t, (x mu^beta + 40)/mu)
    (E[S(x); S(x) > Y] <= (Y + 1/mu) e^(x mu^beta - mu Y) by Chernoff).  Each
    t takes the panels below u = t x^(-1/beta) and the part below u of u's
    own panel, the integral of the Legendre interpolant of its node values
    (int_-1^s P_n = (P_n+1(s) - P_n-1(s))/(2n + 1); Greengard, SIAM J. Numer.
    Anal. 28, 1991): no node is placed at any t.  NumericalInstability is
    raised where the 12-node rule on the same panels differs from the
    returned 16-node one by more than 1e-8 of a column's peak: the 12-node
    rule is the less accurate, so a pass bounds the 16-node table's error
    at least as tightly as a pass against 32 nodes would.
    """
    xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
    if xs.ndim != 1 or ts.ndim != 1:
        raise DomainError("xs and ts must be 1-d arrays")
    mu = _finite_nonnegative(float(mu), "ts_hit_pdf_table: mu")
    lam = xs[:, None] * mu ** beta
    table = np.exp(lam - mu * ts) * stable_hit_pdf(xs[:, None], ts, beta)
    if mu == 0.0 or table.size == 0:
        return table
    mean, scale = beta * lam / mu, xs[:, None, None] ** (1.0 / beta)
    w0 = beta * ((1.0 - beta) / (50.0 + lam.max())) ** (1.0 / beta - 1.0)
    span = math.log(np.max(np.maximum(ts.max(), (lam + 40.0) / mu) / scale[..., 0]) / w0)
    count = math.ceil(_TS_PANELS_PER_DECADE * span / math.log(10.0))
    edges = w0 * np.exp(span / count * np.arange(count + 1))
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    # u's panel from its place on the geometric ladder, and u's place in it
    u = ts / scale[..., 0]
    at = np.clip(np.floor(count / span * np.log(u / w0)), 0, count - 1).astype(int)
    s = np.clip((u - mid[at]) / half[at], -1.0, 1.0)
    rows = np.arange(xs.size)[:, None]
    tables = []
    for nodes in (_TS_NODES, _TS_CHECK_NODES):
        z, w = _gauss_rule(nodes)
        y = mid[:, None] + half[:, None] * z
        f = (scale * y - mean[..., None]) * np.exp(lam[..., None] - mu * scale * y) \
            * (half[:, None] * stable_pdf(y, 1.0, beta))
        panels = np.pad(f @ w, ((0, 0), (1, 1)))
        part = _interpolant_integral(f[rows, at], z, w, s)
        left = np.cumsum(panels[:, :-1], axis=1)[rows, at] + part
        right = np.cumsum(panels[:, :0:-1], axis=1)[:, ::-1][rows, at] - part
        tables.append(table + mu / (beta * xs[:, None]) * np.where(ts <= mean, left, -right))
    err = np.max(np.abs(tables[0] - tables[1]) / np.max(np.abs(tables[0]), axis=0))
    if not err <= 1e-8:
        raise NumericalInstability(f"the duality rule's {_TS_NODES} and {_TS_CHECK_NODES} nodes "
                                   f"differ by {err:.2e} of a column's peak at index {beta}, "
                                   f"mu {mu}")
    return tables[0]


# ---------------------------------------------------------------------------
# Distribution function by duality (exact)
# ---------------------------------------------------------------------------

def hit_cdf(x, t: float, params: IGParams):
    """P(H(t) <= x) = P(G(x) >= t), for x >= 0.

    With A = (delta x - gamma t)/sqrt(t) and V = (delta x + gamma t)/sqrt(t)
    it is (1/2) e^(-A^2/2) [erfcx(-A/sqrt(2)) - erfcx(V/sqrt(2))]
    = -(1/2) delta x sqrt(2/t) e^(-A^2/2) s(-A/sqrt(2), V/sqrt(2)), s being
    the divided difference `_erfcx_slope`, which is negative: nothing
    cancels, so the left tail keeps its relative accuracy down to the
    underflow of e^(-A^2/2).  That form is taken where A <= 1, and
    1 - `hit_survival` above, where the survival is below 1/2.
    """
    x_arr = _finite_nonnegative(np.asarray(x, dtype=float), "hit_cdf: x")
    t = float(_finite_positive(t, "hit_cdf: t"))
    d, g = params.delta, params.gamma
    sq = math.sqrt(t)
    a = (d * x_arr - g * t) / sq
    out = np.zeros(x_arr.shape)
    right = a > 1.0
    if right.any():
        # `hit_survival`'s `ig_cdf` without its checks, which x and t have passed
        out[right] = 1.0 - _ig_cdf(t, d * x_arr[right], g)
    left = ~right & (x_arr > 0)
    if left.any():
        dx, al = d * x_arr[left], a[left]
        out[left] = (-0.5 * dx * math.sqrt(2.0 / t) * np.exp(-0.5 * al * al)
                     * _erfcx_slope(-al / SQRT2, (dx + g * t) / (sq * SQRT2)))
    return float(out) if out.ndim == 0 else out


def hit_survival(x, t: float, params: IGParams):
    """P(H(t) > x) = P(G(x) < t); the duality route used by tail reports."""
    _finite_positive(t, "hit_survival: t")
    x_arr = _finite(np.asarray(x, dtype=float), "hit_survival: x")
    scalar = x_arr.ndim == 0
    out = np.ones_like(x_arr)
    pos = x_arr > 0
    if pos.any():
        out[pos] = ig_cdf(t, x_arr[pos], params)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _zero_s(s_arr: np.ndarray, params: IGParams) -> np.ndarray:
    """Mask of s = 0, where Psi(s)/s is 0/0 and takes its limit Psi'(0) = delta/gamma.

    For gamma = 0 that limit is infinite, as is the time integral of the
    density, so s = 0 raises DomainError.
    """
    at_zero = s_arr == 0
    if params.gamma == 0 and at_zero.any():
        raise DomainError("the time transform diverges at s = 0 when gamma = 0")
    return at_zero


def hit_lt_time(x: float, s, params: IGParams):
    """Time-Laplace transform of h(x, .): (Psi(s)/s) e^(-x Psi(s)) closed form.

    At s = 0 it is the limit delta/gamma, the time integral of h(x, .).
    """
    _finite_nonnegative(x, "hit_lt_time: x")
    s_arr = np.asarray(s)
    psi = ig_psi(s_arr, params)
    at_zero = _zero_s(s_arr, params)
    with np.errstate(invalid="ignore"):
        out = (psi / s_arr) * np.exp(-x * psi)
    if at_zero.any():
        out = np.where(at_zero, params.delta / params.gamma, out)
    return out.item() if np.ndim(s) == 0 else out


def hit_llt(u, s, params: IGParams):
    """Double (space, time) Laplace transform of the density.

    At s = 0 it is the limit (delta/gamma)/u.
    """
    s_arr = np.asarray(s, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    psi = ig_psi(s_arr, params)
    if not np.all(np.isfinite(u_arr) & (u_arr + psi > 0)):
        raise DomainError("hit_llt requires finite u > -Psi(s)")
    at_zero = _zero_s(s_arr, params)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = psi / (s_arr * (u_arr + psi))
        if at_zero.any():
            out = np.where(at_zero, params.delta / params.gamma / u_arr, out)
    return out.item() if (np.ndim(u) == 0 and np.ndim(s) == 0) else out


def hit_lt_space(mu: float, t: float, params: IGParams) -> float:
    """Space-Laplace transform of h(., t), valid for mu > delta*gamma.

    Integral form with the global factor e^(-t gamma^2/2) (the printed
    t-free factor gives this value times `printed_prefactor_ratio`); the
    y^(1/2) endpoint is flattened by y = u^2, and the quadrature runs to
    `integrate_interval`'s default tolerances.  For gamma = 0, delta = 1 this
    reduces to erfcx(mu sqrt(t/2)).
    """
    _finite(mu, "hit_lt_space: mu")
    _finite_positive(t, "hit_lt_space: t")
    d, g = params.delta, params.gamma
    if mu <= d * g:
        raise DomainError("spatial transform exists only for mu > delta*gamma")
    g2 = 0.5 * g * g
    shift2 = (mu - d * g) ** 2

    def integrand(w):
        w2 = w * w
        return w2 * np.exp(-t * w2) / ((w2 + g2) * (shift2 + 2.0 * d * d * w2))

    omega_max = math.sqrt(-math.log(_TRUNCATION_EPS) / t)
    val = integrate_interval(integrand, 0.0, omega_max)
    return SQRT2 * mu * d * math.exp(-0.5 * t * g * g) / math.pi * 2.0 * val


def _erfcx_slope(a, b):
    """Divided difference (erfcx(a) - erfcx(b)) / (a - b) of two 1-d arrays of
    one shape, continuous at a = b.

    Where |a - b| < 0.02 it is the Taylor series about m = (a + b)/2 in
    h = (a - b)/2, f1 + f3 h^2/3! + f5 h^4/5! + f7 h^6/7! with fn the n-th
    derivative at m, whose next term is below 1e-17 of the first; the
    derivatives follow from f1 = 2m f - 2/sqrt(pi) and
    f(n+1) = 2m fn + 2n f(n-1).  The series runs at those points only: at
    large m or h its recurrence and powers overflow.  One `erfcx` call, which
    takes each point alone, serves a, b and those m.
    """
    h = 0.5 * (a - b)
    near = np.abs(h) < 0.01
    m = 0.5 * (a[near] + b[near])
    fa, fb, fm = np.split(erfcx(np.concatenate((a, b, m))), (a.size, 2 * a.size))
    out = (fa - fb) / np.where(near, 1.0, a - b)
    if near.any():
        h = h[near]
        f = [fm]
        f.append(2.0 * m * f[0] - 2.0 * INV_SQRT_PI)
        for n in range(1, 7):
            f.append(2.0 * m * f[n] + 2.0 * n * f[n - 1])
        h2 = h * h
        out[near] = f[1] + h2 * (f[3] / 6.0 + h2 * (f[5] / 120.0 + h2 * f[7] / 5040.0))
    return out


def hit_lt_space_closed(mu, t, params: IGParams):
    """Space-Laplace transform E e^(-mu H(t)) in closed form, broadcast over mu >= 0 and t.

    Integrating the closed-form density against e^(-mu x) gives, with
    r = sqrt(t/2), z1 = (mu/delta - gamma) r and z0 = gamma r,
    e^(-gamma^2 t/2) [erfcx(z1) + gamma r (erfcx(z0) - erfcx(z1))/(z0 - z1)];
    the divided difference is continuous across mu = 2 delta gamma.  Where
    z0 = z1 = z is large the bracket cancels to about 1/(sqrt(pi) z^3), so
    its relative rounding error grows like z^4 eps.  Below mu = delta*gamma,
    -z0 <= z1 < 0 and e^(-z0^2) folds into erfcx(z1) ~ 2 e^(z1^2): the value
    is (|z1| e^((z1 - z0)(z1 + z0)) erfc(z1) + z0 erfc(z0)) / (z0 + |z1|),
    in which nothing exceeds 2 |z1| + z0, so nothing overflows at z1^2 > 709.
    mu = 0 gives exactly 1, and mu >= delta*gamma gives 0 where
    e^(-gamma^2 t/2) underflows.  The integral form `hit_lt_space`, kept as
    the oracle, needs mu > delta*gamma.
    """
    mu_arr = _finite_nonnegative(np.asarray(mu, dtype=float), "hit_lt_space_closed: mu")
    t_arr = _finite_positive(np.asarray(t, dtype=float), "hit_lt_space_closed: t")
    d, g = params.delta, params.gamma
    mu_arr, t_arr = np.broadcast_arrays(mu_arr, t_arr)
    r = np.sqrt(0.5 * t_arr)
    z0 = g * r
    z1 = (mu_arr / d - g) * r
    below = z1 < 0
    out = np.zeros(z1.shape)
    decay = np.zeros(z1.shape)
    decay[~below] = np.exp(-0.5 * g * g * t_arr[~below])
    # where the factor underflows the transform is 0, and the bracket is not
    # formed: its Taylor recurrence overflows at large z
    m = decay > 0
    out[m] = decay[m] * (erfcx(z1[m]) + z0[m] * _erfcx_slope(z0[m], z1[m]))
    m = below
    fold = np.exp((z1[m] - z0[m]) * (mu_arr[m] / d * r[m])) * erfc(z1[m])
    out[m] = (-z1[m] * fold + z0[m] * erfc(z0[m])) / (z0[m] - z1[m])
    out[mu_arr == 0] = 1.0
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def hit_mean(t: float, params: IGParams) -> float:
    """Mean of H(t) in closed form (driftless branch sqrt(2t/pi)/delta)."""
    _finite_positive(t, "hit_mean: t")
    d, g = params.delta, params.gamma
    if g == 0.0:
        return math.sqrt(2.0 * t / math.pi) / d
    e = erf(g * math.sqrt(0.5 * t))
    return (math.sqrt(t / (2.0 * math.pi)) * math.exp(-0.5 * t * g * g) / d
            + e / (2.0 * d * g)
            + 0.5 * g * t / d * (1.0 + e))


def hit_second_moment(t: float, params: IGParams) -> float:
    """Second moment of H(t).

    Half of the widely printed closed form; the halved version is the one that
    matches density quadrature, transform inversion and Monte Carlo, and whose
    driftless special case t (not 2t) agrees with the half-normal law.  Written
    in y = gamma sqrt(t/2) as (t/delta^2) [1 + y^2 + (1+y^2) erf y
    + y e^(-y^2)/sqrt(pi) - P(y)/(4y^2)], P(y) = erf y - 2y e^(-y^2)/sqrt(pi);
    below y = 0.5 the cancelling P(y)/(4y^2) comes from its alternating series.
    """
    _finite_positive(t, "hit_second_moment: t")
    y = params.gamma * math.sqrt(0.5 * t)
    erf_y = erf(y)
    gauss = math.exp(-y * y) / math.sqrt(math.pi)
    if y < 0.5:
        # the alternating series of P(y)/(4y^2); 13 terms reach double precision
        p_term = sum((-1) ** (n + 1) * n * y ** (2 * n - 1)
                     / (math.factorial(n) * (2 * n + 1)) for n in range(1, 14))
        p_term /= math.sqrt(math.pi)
    else:
        p_term = (erf_y - 2.0 * y * gauss) / (4.0 * y * y)
    return t / params.delta ** 2 * (1.0 + y * y + (1.0 + y * y) * erf_y + y * gauss - p_term)


def hit_variance(t: float, params: IGParams) -> float:
    """Variance of H(t): second moment less squared mean below y = gamma sqrt(t/2) = 0.75.

    Above, where that cancels, delta^2 Var = t - (3/4 + R)/gamma^2 with
    R = 2y^3 g - e (2y^4 + y^2 + 1) + (y g - e (y^2 + 1/2))^2, g = e^(-y^2)/sqrt(pi)
    and e = erfc y = e^(-y^2) erfcx(y): the two closed forms subtracted.
    """
    _finite_positive(t, "hit_variance: t")
    d, g = params.delta, params.gamma
    y = g * math.sqrt(0.5 * t)
    if y < 0.75:
        return hit_second_moment(t, params) - hit_mean(t, params) ** 2
    gauss = math.exp(-y * y)
    r = 0.0
    if gauss > 0.0:
        e = gauss * erfcx(y)
        gauss *= INV_SQRT_PI
        r = (2.0 * y ** 3 * gauss - e * (2.0 * y ** 4 + y * y + 1.0)
             + (y * gauss - e * (y * y + 0.5)) ** 2)
    return (t - (0.75 + r) / (g * g)) / (d * d)


_DOUBLINGS = 2.0 ** np.arange(60)
# the doublings tried at every t; the rest only at the t where none of these is
# short enough
_FIRST_DOUBLINGS = 8


def density_support_cutoff(t, params: IGParams, weight_power: float = 0.0,
                           tail_tol: float = 1e-9):
    """First x = max(1, 2 gamma t/delta) * 2^k, k < 60, with x^q * P(H(t) > x) < tail_tol.

    Broadcast over t: the candidates k < 8 of every t go through one
    `ig_cdf` call, the duality route of `hit_survival`, and the other 52
    through a second call at only the t where none of the first 8 qualified.
    `ig_cdf` takes each point alone, so the cutoff is the one a search over
    all 60 would find.  Used to truncate quadratures of the density: the
    exact survival only picks the truncation point, it never enters the
    integral value.
    """
    _finite_positive(t, "density_support_cutoff: t")
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()
    x0 = np.maximum(1.0, 2.0 * params.gamma * ts / params.delta)
    cut = np.empty(ts.shape)
    todo = np.arange(ts.size)
    for ks in (_DOUBLINGS[:_FIRST_DOUBLINGS], _DOUBLINGS[_FIRST_DOUBLINGS:]):
        xs = x0[todo, None] * ks
        # x^q overflows at the far doublings for large q, where the survival is 0:
        # those candidates read inf or NaN, never below the tolerance
        with np.errstate(over="ignore", invalid="ignore"):
            below = xs ** weight_power * ig_cdf(ts[todo, None], xs, params) < tail_tol
        found = below.any(axis=-1)
        cut[todo[found]] = xs[found, below[found].argmax(axis=-1)]
        todo = todo[~found]
        if todo.size == 0:
            break
    else:
        raise NonConvergence("could not locate a density support cutoff")
    return float(cut[0]) if t_arr.ndim == 0 else cut.reshape(t_arr.shape)


def hit_moment_quadrature(q: float, t: float, params: IGParams) -> float:
    """E H(t)^q by direct quadrature of the closed-form density (q = 0: mass),
    for finite q > -1; E H(t)^q diverges at q <= -1.

    For q < 0 it integrates in y = x^(1+q), where x^q dx = dy / (1+q) and
    the integrand h(y^(1/(1+q)), t) / (1+q) has no singularity at 0.
    """
    _finite(q, "hit_moment_quadrature: q")
    if q <= -1.0:
        raise DomainError("hit_moment_quadrature: q must be > -1")
    x_max = density_support_cutoff(t, params, weight_power=q, tail_tol=1e-10)
    edges = np.linspace(0.0, x_max, max(9, int(2 * x_max) + 1))
    if q < 0.0:
        k = 1.0 / (1.0 + q)
        return k * integrate_interval(lambda ys: hit_pdf_table(ys ** k, t, params), 0.0,
                                      x_max ** (1.0 + q), edges=edges ** (1.0 + q))

    def f(xs):
        vals = hit_pdf_table(xs, t, params)
        return vals if q == 0.0 else xs ** q * vals

    return integrate_interval(f, 0.0, x_max, edges=edges)


def hit_moment(q: float, t: float, params: IGParams) -> float:
    """Fractional moment E H(t)^q by inverting Gamma(1+q) / (s Psi(s)^q).

    The numerator is Gamma(1+q): at q = 1 this reproduces the transform
    1/(s Psi) of the mean, which the q*Gamma(1+q) variant fails to do at
    higher q (it is off by a factor q at q = 2).  q must be finite and
    positive; where Gamma(1+q) overflows (q above about 170) the moment
    raises NumericalInstability.
    """
    _finite_positive(q, "hit_moment: q")
    _finite_positive(t, "hit_moment: t")
    try:
        gamma_factor = math.gamma(1.0 + q)
    except OverflowError as exc:
        raise NumericalInstability(f"Gamma(1+q) overflows at q={q}") from exc

    def transform(s):
        return gamma_factor / (s * ig_psi(s, params) ** q)

    return invert_laplace(transform, t)


# ---------------------------------------------------------------------------
# Boundary values and tail behaviour
# ---------------------------------------------------------------------------

def hit_boundary_value(t: float, params: IGParams) -> float:
    """h(0+, t), the Levy tail at t; the printed prefactor gives this value
    times `printed_prefactor_ratio`."""
    _finite_positive(t, "hit_boundary_value: t")
    return ig_levy_tail(t, params)


def hit_boundary_slope(t: float, params: IGParams) -> float:
    """Spatial derivative of the density at x = 0+: twice delta*gamma*h(0, t)."""
    return 2.0 * params.delta * params.gamma * hit_boundary_value(t, params)


@dataclass(frozen=True)
class TailBoundReport:
    """Survival values against a fitted envelope C * shape(x).

    `fitted_gaussian_rate` is the least-squares slope of -ln(survival) against
    the stretched coordinate (x^2 for the IG family, x^(1/(1-beta)) for the
    stable one); `fitted_constant` is the smallest C with survival <= C*shape
    on the grid.
    """

    x_grid: np.ndarray
    survival: np.ndarray
    bound_values: np.ndarray
    fitted_constant: float
    fitted_gaussian_rate: float
    t: float
    label: str = ""
    extra: dict = field(default_factory=dict)

    def ratios(self) -> np.ndarray:
        return self.survival / self.bound_values

    def to_json(self, path) -> None:
        from .tables import write_json
        write_json(path, {
            "label": self.label,
            "t": self.t,
            "x": list(map(float, self.x_grid)),
            "survival": list(map(float, self.survival)),
            "bound": list(map(float, self.bound_values)),
            "fitted_constant": self.fitted_constant,
            "fitted_gaussian_rate": self.fitted_gaussian_rate,
            **self.extra,
        })

    def to_csv(self, path) -> None:
        from .tables import write_csv
        write_csv(path, ["x", "survival", "bound"],
                  zip(self.x_grid, self.survival, self.bound_values))


def _tail_grid(t, x_grid, what: str) -> np.ndarray:
    _finite_positive(t, f"{what}: t")
    xs = _finite_positive(np.asarray(x_grid, dtype=float), f"{what}: x_grid")
    if xs.ndim != 1 or xs.size < 3 or not np.all(np.diff(xs) > 0):
        raise DomainError(f"{what}: x_grid must be increasing, with >= 3 points")
    return xs


def _fit_envelope(xs, surv, shape, stretch, t, label, extra) -> TailBoundReport:
    if not np.all(np.isfinite(shape) & (shape > 0)):
        raise NumericalInstability(f"{label}: the envelope over- or underflows on the grid")
    c = float(np.max(surv / shape))
    with np.errstate(divide="ignore"):
        log_surv = -np.log(np.maximum(surv, 1e-300))
    rate = float(np.polyfit(stretch, log_surv, 1)[0])
    return TailBoundReport(xs, surv, c * shape, c, rate, t, label=label, extra=extra)


def tail_report(t: float, params: IGParams, x_grid) -> TailBoundReport:
    """Survival of H(t) on a grid against the envelope x^(-1) e^(dg x - x^2/4t)."""
    xs = _tail_grid(t, x_grid, "tail_report")
    d, g = params.delta, params.gamma
    with np.errstate(over="ignore"):  # `_fit_envelope` rejects a non-finite envelope
        shape = np.exp(d * g * xs - xs ** 2 / (4.0 * t)) / xs
    return _fit_envelope(xs, hit_survival(xs, t, params), shape, xs ** 2, t,
                         "ig_hitting", {"delta": d, "gamma": g})


# ---------------------------------------------------------------------------
# Path inversion and hitting-time sampling
# ---------------------------------------------------------------------------

def invert_path(g_path: SamplePath, t_grid) -> SamplePath:
    """Right-continuous generalized inverse of a nondecreasing path on a grid.

    For each t the smallest grid time u with G(u) > t is returned, so the
    inverse is flat exactly over G's jump intervals.
    """
    if not g_path.is_nondecreasing:
        raise DomainError("g_path must be nondecreasing")
    t_arr = np.asarray(t_grid, dtype=float)
    idx = np.searchsorted(g_path.values, t_arr, side="right")
    if np.any(idx >= g_path.values.size):
        raise DomainError("t_grid exceeds the largest path value; extend the path")
    return SamplePath(t_arr, g_path.times[idx])


# The most steps of one `hitting_path` path; the tests take at most 40,000
# and `ighit paths` at its defaults 10,000.
_MAX_PATH_STEPS = 10 ** 7


def hitting_path(model, horizon: float, dt: float, rng: np.random.Generator):
    """A subordinator path G at step dt that passes `horizon`, and its inverse H.

    G cumulates exact increments on the grid dt * k, in pieces until it
    passes `horizon`: two of 2 horizon (times gamma/delta for an IG model
    with delta/gamma < 1) and at least 4 dt, then each twice the last, the
    final cut to what `_MAX_PATH_STEPS` leaves; DomainError once all are
    used up.  H is on dt * arange(round(horizon / dt) + 1).  Returns (G, H).
    """
    _finite(horizon, "hitting_path: horizon")
    _finite(dt, "hitting_path: dt")
    if horizon <= 0 or not 0 < dt <= horizon:
        raise DomainError("need horizon > 0 and 0 < dt <= horizon")
    chunk = 2.0 * horizon
    if isinstance(model, IGParams):
        chunk *= max(model.gamma / model.delta, 1.0)
    steps = max(chunk, 4.0 * dt) / dt
    if not steps <= _MAX_PATH_STEPS:
        raise DomainError(f"horizon / dt must not exceed {_MAX_PATH_STEPS} steps")
    pieces, used = [np.zeros(1)], 0
    while pieces[-1][-1] <= horizon:
        if used == _MAX_PATH_STEPS:
            raise DomainError(f"the path did not pass horizon {horizon} within "
                              f"{_MAX_PATH_STEPS} steps")
        n = min(int(round(steps)), _MAX_PATH_STEPS - used)
        pieces.append(pieces[-1][-1] + np.cumsum(model.sample_increment(dt, rng, size=n)))
        used += n
        if len(pieces) > 2:
            steps *= 2.0
    values = np.concatenate(pieces)
    g_path = SamplePath(dt * np.arange(values.size), values)
    return g_path, invert_path(g_path, dt * np.arange(int(round(horizon / dt)) + 1))


def sample_hitting_times(t_eval: float, n: int, params: IGParams, dt: float,
                         seed: int) -> np.ndarray:
    """n independent samples of the grid hitting time S = dt (floor(H/dt) + 1).

    H(t) is the running maximum of W_s + gamma*s over s <= t, divided by
    delta (Borodin & Salminen, Handbook of Brownian Motion, 2002, section
    2.1).  Given the endpoint Y = W_t + gamma*t ~ N(gamma t, t), that maximum
    is (Y + sqrt(Y^2 + 2tE))/2 with E ~ Exp(1) (Glasserman, Monte Carlo
    Methods in Financial Engineering, 2004, section 6.4).  G has no drift, so
    G(k dt) > t exactly when k dt > H(t): S is the first grid time at which a
    path of G at step dt exceeds t_eval, the law `invert_path` gives on a
    path from `hitting_path`.  The draws come from the substream (seed, 0).
    """
    _finite_positive(t_eval, "sample_hitting_times: t_eval")
    _finite_positive(dt, "sample_hitting_times: dt")
    _count(n, 1, "sample_hitting_times: n")
    rng = np.random.default_rng([seed, 0])
    y = rng.normal(params.gamma * t_eval, math.sqrt(t_eval), n)
    te = t_eval * rng.standard_exponential(n)
    r = np.sqrt(y * y + 2.0 * te)
    # where y < 0, (y + r)/2 cancels; te/(r - y) = te/(r + |y|) is the same number
    h = np.where(y >= 0, 0.5 * (y + r), te / (r + np.abs(y))) / params.delta
    return (np.floor(h / dt).astype(np.int64) + 1) * dt


# ---------------------------------------------------------------------------
# Stable hitting-time family E(t) = inf{x : D(x) > t}
# ---------------------------------------------------------------------------

def stable_hit_pdf(x, t: float, beta: float):
    """Density of E(t): (t/beta) x^(-1-1/beta) f(t x^(-1/beta), 1).

    At beta = 1/2 the composition collapses to e^(-x^2/4t)/sqrt(pi t).
    """
    _check_beta(beta)
    _finite_positive(t, "stable_hit_pdf: t")
    x_arr = _finite_positive(np.asarray(x, dtype=float), "stable_hit_pdf: x")
    scalar = x_arr.ndim == 0
    arg = t * x_arr ** (-1.0 / beta)
    out = (t / beta) * x_arr ** (-1.0 - 1.0 / beta) * stable_pdf(arg, 1.0, beta)
    return float(out) if scalar else out


def stable_hit_survival(x, t: float, beta: float):
    """P(E(t) > x) = P(D(x) <= t) by duality, broadcast over x > 0."""
    _finite_positive(t, "stable_hit_survival: t")
    _finite_positive(x, "stable_hit_survival: x")
    return stable_cdf(t, x, beta)


def stable_hit_tail_report(t: float, beta: float, x_grid) -> TailBoundReport:
    """Stretched-exponential tail of E(t): rate N = (1-beta)(t/beta)^(beta/(beta-1)).

    The envelope power uses the exponent obtained by carrying the small-argument
    stable bound through the scaling substitution, (1-beta/2)/(beta(1-beta)) -
    1 - 1/beta (zero at beta = 1/2, matching the closed form).
    """
    xs = _tail_grid(t, x_grid, "stable_hit_tail_report")
    rate_n = (1.0 - beta) * (t / beta) ** (beta / (beta - 1.0))
    power = (1.0 - 0.5 * beta) / (beta * (1.0 - beta)) - 1.0 - 1.0 / beta
    stretch = xs ** (1.0 / (1.0 - beta))
    shape = xs ** power * np.exp(-rate_n * stretch)
    return _fit_envelope(xs, stable_hit_survival(xs, t, beta), shape, stretch, t,
                         "stable_hitting", {"beta": beta, "rate_n": rate_n})
