"""Driving increasing Levy processes: inverse Gaussian and tempered stable (mu = 0: stable).

Both families sit behind one small interface (Laplace exponent, Levy tail,
marginal density, exact increment sampler) consumed by the hitting-time
machinery.  Samplers take an explicit numpy Generator; there is no hidden
global RNG state anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DomainError, _finite_nonnegative, _finite_positive
from .numerics import _gauss_rule, bessel_k, erfc, erfcx, norm_cdf, upper_gamma


def _check_beta(beta: float) -> None:
    """DomainError unless the stable index beta lies in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")


def _check_size(size, what: str) -> None:
    """DomainError if a sampler's `size` (None, an int or a shape) has a negative entry."""
    if size is not None and np.any(np.asarray(size) < 0):
        raise DomainError(f"{what}: size must be nonnegative")


def _check_scale(base: float, power: float, what: str) -> float:
    """base ** power, the scale of a sampler's draws; DomainError where it overflows a float."""
    try:
        scale = base ** power
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise DomainError(f"{what}: the scale {base:g}^{power:g} of the draws overflows")
    return scale


def _laplace_arg(s, lower: float, what: str) -> np.ndarray:
    """`s` as an array; DomainError unless finite and, on the real axis, >= lower.

    Complex s off the real axis passes: the fixed-Talbot contour evaluates
    Laplace exponents there.
    """
    s_arr = np.asarray(s)
    if not np.all(np.isfinite(s_arr)):
        raise DomainError(f"{what}: s must be finite")
    if np.any((s_arr.imag == 0) & (s_arr.real < lower)):
        raise DomainError(f"{what}: real s must be >= {lower:g}")
    return s_arr


@dataclass(frozen=True)
class IGParams:
    """Barrier slope delta and Brownian drift gamma of the inverse Gaussian process.

    gamma = 0 is admitted as the driftless limiting case; closed forms branch
    analytically there.
    """

    delta: float
    gamma: float
    # local power of the Levy tail at 0+ (Pi(u) ~ C u^-p); drives the endpoint
    # substitution in the hitting-time convolution
    tail_exponent = 0.5

    def __post_init__(self):
        _finite_positive(self.delta, "IGParams: delta")
        _finite_nonnegative(self.gamma, "IGParams: gamma")

    def psi(self, s):
        return ig_psi(s, self)

    def levy_tail(self, u):
        return ig_levy_tail(u, self)

    def marginal_pdf(self, u, x):
        return ig_pdf(u, x, self)

    def sample_increment(self, dt: float, rng: np.random.Generator, size=None):
        return ig_sample(dt, self, rng, size)


def _ig_shape(t, p: IGParams, what: str):
    """a = delta t of the IG(delta t, gamma) law at t; DomainError unless finite and > 0."""
    t_arr = _finite_positive(np.asarray(t, dtype=float), f"{what}: t")
    return _finite_positive(np.asarray(p.delta * t_arr), f"{what}: delta t")


def ig_pdf(x, t, p: IGParams):
    """Density of G(t) ~ IG(a, gamma), a = delta t, at x; x and t broadcast.

    a x^(-3/2) exp(a gamma - (a^2/x + gamma^2 x)/2) / sqrt(2 pi).  log a and
    a^2 are taken per a by math.log and float power, so that a table over
    many t rounds exactly as each t alone.
    """
    x_arr = _finite_positive(np.asarray(x, dtype=float), "ig_pdf: x")
    a, b = _ig_shape(t, p, "ig_pdf"), p.gamma
    flat = a.ravel().tolist()
    log_a = np.reshape([math.log(v) for v in flat], a.shape)
    a_sq = np.reshape([v ** 2 for v in flat], a.shape)
    out = np.exp(log_a - 0.5 * math.log(2.0 * math.pi) - 1.5 * np.log(x_arr)
                 + a * b - 0.5 * (a_sq / x_arr + b ** 2 * x_arr))
    return float(out) if out.ndim == 0 else out


def _ig_cdf(x, a, b: float):
    """IG(a, b) distribution function at x > 0, broadcast over x and a.

    Plain form Phi(b sqrt(x) - a/sqrt(x)) + e^(2ab) Phi(-b sqrt(x) - a/sqrt(x))
    where 2ab <= 30; elsewhere the second term is evaluated through erfcx so
    the e^(2ab) factor never materialises.
    """
    with np.errstate(over="ignore"):
        sq = np.sqrt(x)
        u = b * sq - a / sq
        v = b * sq + a / sq
        two_ab = 2.0 * a * b

        # each point evaluates one form of the second term
        def plain(i):
            return np.exp(two_ab[i]) * norm_cdf(-v[i])

        def scaled(i):
            return 0.5 * np.exp(-0.5 * u[i] * u[i]) * erfcx(v[i] / math.sqrt(2.0))

        if np.ndim(two_ab) == 0:
            second = plain(...) if two_ab <= 30.0 else scaled(...)
        else:
            small = two_ab <= 30.0
            second = np.empty_like(u)
            second[small] = plain(small)
            second[~small] = scaled(~small)
        return np.clip(norm_cdf(u) + second, 0.0, 1.0)


def ig_cdf(x, t, p: IGParams):
    """P(G(t) <= x), broadcast over x and t; overflow-safe for large a gamma.

    0 at x <= 0 and 1 at x = inf; NaN x raises DomainError.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(x_arr)):
        raise DomainError("ig_cdf: x must not be NaN")
    a = _ig_shape(t, p, "ig_cdf")
    if a.ndim:
        x_arr, a = np.broadcast_arrays(x_arr, a)
    out = np.where(x_arr == math.inf, 1.0, 0.0)
    pos = (x_arr > 0) & (x_arr < math.inf)
    if pos.any():
        # a single t keeps a scalar, which spares a gather and an exp per point
        out[pos] = _ig_cdf(x_arr[pos], a[pos] if a.ndim else a, p.gamma)
    return float(out) if out.ndim == 0 else out


def ig_sample(t: float, p: IGParams, rng: np.random.Generator, size=None):
    """Exact draws of G(t) ~ IG(a, b), a = delta t, b = gamma, by transformation with rejection.

    A chi-square(1) variate nu gives the smaller quadratic root
    x0 = a/b + nu/(2 b^2) - sqrt(4 a b nu + nu^2)/(2 b^2), accepted with
    probability a/(a + b x0), else (a/b)^2 / x0 is returned; x0 is taken as
    2a / (2b + nu/a + sqrt(nu/a) sqrt(nu/a + 4b)), which does not cancel as
    ab -> 0 or overflow as ab grows.  b = 0 delegates to the one-sided
    1/2-stable representation a^2 / Z^2.  DomainError where the law's
    scale, (a/b)^2 or at b = 0 a^2, overflows a float.
    """
    a, b = float(_ig_shape(t, p, "ig_sample")), p.gamma
    mu = a / b if b > 0 else a
    scale = _check_scale(mu, 2.0, "ig_sample")
    _check_size(size, "ig_sample")
    shape = () if size is None else size
    if b == 0.0:
        z = rng.standard_normal(shape)
        out = (a / z) ** 2
        return float(out) if size is None else out
    nu = rng.standard_normal(shape) ** 2
    # the denominator overflows only at subnormal a, where x0 ~ a^2/nu is 0
    with np.errstate(over="ignore"):
        r = nu / a
        x0 = 2.0 * a / (2.0 * b + r + np.sqrt(r) * np.sqrt(r + 4.0 * b))
    reject = rng.uniform(size=shape) > a / (a + b * x0)
    # an accepted x0 may be 0, or make (a/b)^2 / x0 overflow
    out = np.divide(scale, x0, out=np.array(x0, dtype=float), where=reject)
    return float(out) if size is None else out


def ig_levy_tail(u, p: IGParams):
    """Expected rate of jumps exceeding u: the integrated IG Levy density.

    Closed form delta * [sqrt(2/(pi u)) e^(-gamma^2 u / 2) - gamma erfc(...)],
    evaluated as e^(-gamma^2 u/2) * (sqrt(2/(pi u)) - gamma erfcx(...)) so both
    factors stay bounded for large gamma^2 u.
    """
    u_arr = _finite_positive(np.asarray(u, dtype=float), "ig_levy_tail: u")
    scalar = u_arr.ndim == 0
    g = p.gamma
    bracket = np.sqrt(2.0 / (math.pi * u_arr))
    if g > 0:
        bracket = bracket - g * erfcx(g * np.sqrt(u_arr / 2.0))
    out = p.delta * np.exp(-0.5 * g * g * u_arr) * bracket
    return float(out) if scalar else out


def ig_psi(s, p: IGParams):
    """Laplace exponent delta (sqrt(gamma^2 + 2 s) - gamma) of the IG process.

    Evaluated as 2 delta s / (sqrt(gamma^2 + 2 s) + gamma), which does not
    cancel as s -> 0, and as delta sqrt(2 s) when gamma = 0.  On the principal
    branch the denominator has positive real part for every admitted s, complex
    s on the fixed-Talbot contour included.
    """
    s_arr = _laplace_arg(s, -0.5 * p.gamma ** 2, "ig_psi")
    scalar = np.ndim(s) == 0
    if p.gamma == 0:
        out = p.delta * np.sqrt(2.0 * s_arr)
    else:
        out = 2.0 * p.delta * s_arr / (np.sqrt(p.gamma ** 2 + 2.0 * s_arr) + p.gamma)
    if scalar:
        return out.item()
    return out


# ---------------------------------------------------------------------------
# Stable and tempered stable subordinators
#
# Scaling convention fixed throughout: D(t) has Laplace transform e^(-t s^beta)
# exactly, and the tempered process D_mu(t) has e^(-t ((s+mu)^beta - mu^beta)).
# The Levy-density constant c = beta / Gamma(1 - beta) reproduces exactly these
# transforms; Monte Carlo tests assert the convention.
# ---------------------------------------------------------------------------

def _kanter_factor(v, beta: float):
    """Kanter's factor a at u = pi - v, as (base, rest) with a = base^(1/(1-beta)) rest.

    a(u) = (sin(beta u)/sin u)^(1/(1-beta)) sin((1-beta) u)/sin(beta u)
    increases on (0, pi) from a(0+) = (1-beta) beta^(beta/(1-beta)) to
    infinity.  The power overflows near u = pi as beta -> 1 although
    a(u)^((1-beta)/beta) is moderate, so `stable_sample` expands it instead
    and the density rule scales the base or takes logs.  sin u is taken as
    sin v where v < u, and sin(beta u) as sin((1-beta) pi + beta v) where
    that argument is the smaller, so that both keep their relative accuracy
    at either end of (0, pi).
    """
    u = math.pi - v
    sb = np.sin(np.minimum(beta * u, (1.0 - beta) * math.pi + beta * v))
    return sb / np.sin(np.minimum(u, v)), np.sin((1.0 - beta) * u) / sb


# Kanter's rule: the logit grid x = log(v/(pi - v)) of its table, and the
# excesses L (a(u) - a(0+)) = 50, 1 and 2^-60 that place each point's panels
_KANTER_GRID = np.r_[-690.0, np.linspace(-30.0, 8.0, 1024)]
_KANTER_LEVELS = np.log([50.0, 1.0, 2.0 ** -60])[:, None]


def _unit_stable_cdf_pdf(w, beta: float):
    """Distribution function and density of the unit beta-stable law (transform e^(-s^beta)) at w > 0.

    A draw is (a(U)/E)^(1/k) with k = beta/(1-beta), a Kanter's factor, U
    uniform on (0, pi) and E standard exponential, so with L = w^(-k)
    (Kanter 1975; Nolan 1997)

        F(w) = (1/pi) int_0^pi e^(-L a(u)) du,
        f(w) = (k/(pi w)) int_0^pi L a(u) e^(-L a(u)) du.

    Both integrands are bounded.  The rule is placed per point in v = pi - u,
    where the excess r = L (a(u) - a(0+)) falls from infinity to 0.  One
    table of log(a - a(0+)), computed in logs so that no power overflows,
    depends on beta only; `np.interp` of it gives each point the v where r
    is 50, 1 and 2^-60.  Its grid is dense in x = log(v/(pi - v)) on
    [-30, 8]: below, the table is linear in x, and at x = 8 (u = 1e-3) r < 1
    at every point that does not underflow.  40-node Gauss-Legendre panels run from the +50 point to
    the +1 point and then grow by x4 up to pi.  Above beta = 0.9 they grow by
    less, so that r, which falls like v^(-1/(1-beta)), falls by at most 4^10
    per panel, until they pass the 2^-60 point; there e^(-r) has rounded to
    1, and x4 holds again.  Where the least value L a(0+) =
    (1-beta)(w/beta)^(-k) is >= 1600 both values underflow for every float w
    and are 0.  Points go through in groups of at most 16384 panels, or of
    one point, which bounds the memory of a large call.
    """
    w = np.asarray(w, dtype=float)
    k = beta / (1.0 - beta)
    ratio = 4.0 ** min(1.0, 10.0 * (1.0 - beta))
    flat = w.ravel()
    with np.errstate(over="ignore"):
        expo = (1.0 - beta) * (flat / beta) ** (-k)
    cdf = np.zeros(flat.shape)
    pdf = np.zeros(flat.shape)
    nodes, weights = _gauss_rule(40)
    live = np.flatnonzero(expo < 1600.0)
    base, rest = _kanter_factor(math.pi / (1.0 + np.exp(-_KANTER_GRID)), beta)
    log_a = np.log(base) / (1.0 - beta) + np.log(rest)
    excess = log_a + np.log(-np.expm1(math.log(1.0 - beta) + k * math.log(beta) - log_a))
    v50, v1, vt = math.pi / (1.0 + np.exp(-np.interp(
        _KANTER_LEVELS + k * np.log(flat[live]), excess[::-1], _KANTER_GRID[::-1])))
    scale, least = flat[live] ** beta, expo[live]
    slow = np.ceil(np.log(vt / v1) / math.log(ratio))[:, None]
    # fast x4 steps past vt reach pi: the powers of 4 stop there, short of overflow
    fast = np.ceil(np.log(math.pi / vt) / math.log(4.0))[:, None]
    steps = np.arange(slow.max(initial=0.0) + math.ceil(
        math.log(math.pi / vt.min(initial=math.pi), 4.0)) + 1)
    step = max(1, 16384 // steps.size)
    for first in range(0, live.size, step):
        sub = slice(first, first + step)
        at, low = live[sub], least[sub]
        grow = ratio ** np.minimum(steps, slow[sub]) * 4.0 ** np.clip(
            steps - slow[sub], 0.0, fast[sub])
        edges = np.concatenate([v50[sub, None], np.minimum(v1[sub, None] * grow, math.pi)], axis=1)
        edges[:, -1] = math.pi
        a, b = edges[:, :-1], edges[:, 1:]
        panel = b > a
        point = np.nonzero(panel)[0]
        a, b = a[panel], b[panel]
        half = 0.5 * (b - a)
        base, rest = _kanter_factor((0.5 * (a + b))[:, None] + half[:, None] * nodes, beta)
        la = (base / scale[sub][point, None]) ** (1.0 / (1.0 - beta)) * rest
        e = np.exp(low[point, None] - la)
        cdf[at] = np.exp(-low - math.log(math.pi)) * np.bincount(
            point, half * (e * weights).sum(axis=1), at.size)
        pdf[at] = np.exp(np.log(k / (math.pi * flat[at])) - low) * np.bincount(
            point, half * (la * e * weights).sum(axis=1), at.size)
    return cdf.reshape(w.shape), pdf.reshape(w.shape)


def stable_pdf(u, t, beta: float):
    """Density of the beta-stable subordinator D(t) at u; u and t broadcast.

    beta = 1/2 uses the closed form t u^(-3/2) e^(-t^2/(4u)) / (2 sqrt(pi));
    beta = 1/3 the exact Bessel-K form; every other beta Kanter's integral
    (`_unit_stable_cdf_pdf`), scaled as t^(-1/beta) f(u t^(-1/beta)).  Note
    IG(a, 0) coincides with this density at beta = 1/2 under t = a sqrt(2):
    both transforms equal e^(-a sqrt(2 s)).
    """
    _check_beta(beta)
    t_arr = _finite_positive(np.asarray(t, dtype=float), "stable_pdf: t")
    u_arr = _finite_positive(np.asarray(u, dtype=float), "stable_pdf: u")
    return _stable_pdf(u_arr, t_arr, beta)


def _stable_pdf(u_arr, t_arr, beta: float):
    """`stable_pdf` at float arrays u_arr and t_arr that it has checked."""
    # a scalar t stays a Python float, so scalar calls round as they always have
    t = float(t_arr) if t_arr.ndim == 0 else t_arr
    if beta in (0.5, 1.0 / 3.0):
        # at tiny u, u^(-3/2) overflows to inf where the damping factor is 0: the density is 0
        with np.errstate(over="ignore", invalid="ignore"):
            if beta == 0.5:
                lead, damp = t / (2.0 * math.sqrt(math.pi)), np.exp(-t * t / (4.0 * u_arr))
            else:
                # closed Bessel form: density of the unit 1/3-stable law at w is
                # (1/(3 pi)) w^(-3/2) K_(1/3)(2 / sqrt(27 w)); scaled by t^(1/beta)
                arg = 2.0 / math.sqrt(27.0) * t ** 1.5 / np.sqrt(u_arr)
                lead, damp = t ** 1.5 / (3.0 * math.pi), bessel_k(1.0 / 3.0, arg)
            out = np.where(damp == 0.0, 0.0, lead * u_arr ** -1.5 * damp)
            over = np.isinf(out) & (damp > 0.0)
            if over.any():
                # u^(-3/2) alone overflowed: the same density formed from t/u
                if beta == 0.5:
                    tall = t / u_arr / np.sqrt(u_arr) * damp / (2.0 * math.sqrt(math.pi))
                else:
                    tall = (t / u_arr) ** 1.5 * damp / (3.0 * math.pi)
                out = np.where(over, tall, out)
    else:
        scale = t ** (-1.0 / beta)
        out = scale * _unit_stable_cdf_pdf(u_arr * scale, beta)[1]
    return float(out) if np.ndim(out) == 0 else out


def stable_cdf(x, t, beta: float):
    """P(D(t) <= x), broadcast over x and t.

    The closed form erfc(t / (2 sqrt(x))) at beta = 1/2, Kanter's integral
    (`_unit_stable_cdf_pdf`) at x t^(-1/beta) otherwise.  0 for x <= 0 and 1
    at x = inf; NaN x raises DomainError.
    """
    _check_beta(beta)
    t_arr = _finite_positive(np.asarray(t, dtype=float), "stable_cdf: t")
    x_arr = np.asarray(x, dtype=float)
    if np.isnan(x_arr).any():
        raise DomainError("stable_cdf: x must not be NaN")
    x_arr, t_arr = np.broadcast_arrays(x_arr, t_arr)
    scalar = x_arr.ndim == 0
    out = np.where(x_arr == math.inf, 1.0, 0.0)
    pos = (x_arr > 0) & (x_arr < math.inf)
    if beta == 0.5:
        out[pos] = erfc(t_arr[pos] / (2.0 * np.sqrt(x_arr[pos])))
    else:
        out[pos] = _unit_stable_cdf_pdf(x_arr[pos] * t_arr[pos] ** (-1.0 / beta), beta)[0]
    return float(out) if scalar else out


def ts_pdf(u, t, beta: float, mu: float):
    """Tempered stable density e^(-mu u + mu^beta t) * stable density; u and t broadcast."""
    mu = _finite_nonnegative(float(mu), "ts_pdf: mu")
    u_arr = _finite_positive(np.asarray(u, dtype=float), "ts_pdf: u")
    t_arr = _finite_positive(np.asarray(t, dtype=float), "ts_pdf: t")
    _check_beta(beta)
    t = float(t_arr) if t_arr.ndim == 0 else t_arr
    tilt = np.exp(-mu * u_arr + mu ** beta * t)
    out = tilt * _stable_pdf(u_arr, t_arr, beta)
    return float(out) if np.ndim(out) == 0 else out


def ts_levy_tail(u, beta: float, mu: float):
    """Integrated tempered stable Levy density c e^(-mu y) y^(-beta-1) beyond u.

    c = beta / Gamma(1 - beta); the integral is mu^beta * Gamma(-beta, mu u)
    via the upper incomplete gamma with negative parameter; u^(-beta) /
    Gamma(1 - beta) at mu = 0; at beta = 1/2 the IG tail of
    `ts_half_ig_params(mu)`, the same law.
    """
    _check_beta(beta)
    mu = _finite_nonnegative(float(mu), "ts_levy_tail: mu")
    u_arr = _finite_positive(np.asarray(u, dtype=float), "ts_levy_tail: u")
    scalar = u_arr.ndim == 0
    if mu == 0.0:
        out = u_arr ** (-beta) / math.gamma(1.0 - beta)
        return float(out) if scalar else out
    if beta == 0.5:
        return ig_levy_tail(u_arr, ts_half_ig_params(mu))
    out = beta / math.gamma(1.0 - beta) * mu ** beta * upper_gamma(-beta, mu * u_arr)
    return float(out) if scalar else out


def ts_psi(s, beta: float, mu: float):
    """Laplace exponent (s + mu)^beta - mu^beta of the tempered stable process."""
    mu = _finite_nonnegative(float(mu), "ts_psi: mu")
    # 0.0 - mu, not -mu: at mu = 0 the bound prints as 0, not -0
    s_arr = _laplace_arg(s, 0.0 - mu, "ts_psi")
    out = (s_arr + mu) ** beta - mu ** beta
    return out.item() if np.ndim(s) == 0 else out


def ts_half_ig_params(mu: float) -> IGParams:
    """The IG process that is the tempered 1/2-stable subordinator at mu.

    sqrt(s + mu) - sqrt(mu) = delta (sqrt(2 s + gamma^2) - gamma) at
    delta = 1/sqrt(2), gamma = sqrt(2 mu): one Laplace exponent, so one law
    and one hitting time.
    """
    mu = _finite_nonnegative(float(mu), "ts_half_ig_params: mu")
    return IGParams(1.0 / math.sqrt(2.0), math.sqrt(2.0 * mu))


# Proposals per block of `ts_sample`: each block's draws, tests and
# compactions run in place on a few arrays of this size, which stay in cache.
PASS_BLOCK = 16384

# `ts_sample`'s budget of proposals per requested draw
TRIAL_CAP = 10_000


def _exponential_power(e, beta: float):
    """E^((1-beta)/beta) in place in the exponentials e, as `_kanter_draws` takes it.

    E E at beta = 1/3, E itself at beta = 1/2 and e **= (1-beta)/beta at any
    other index; returns e.
    """
    if beta == 1.0 / 3.0:
        e *= e
    elif beta != 0.5:
        e **= (1.0 - beta) / beta
    return e


def _kanter_floor(t: float, beta: float) -> float:
    """A lower bound on t^(1/beta) a(U)^((1-beta)/beta) over every U, taken a relative 1e-12 low.

    Kanter's factor a (`_kanter_factor`) increases in U from
    a(0+)^((1-beta)/beta) = beta (1-beta)^((1-beta)/beta), so every draw of
    `_kanter_draws` from E^((1-beta)/beta) = p is at least this bound over p.
    The slack keeps the bound below the draw's rounded value.
    """
    return ((1.0 - 1e-12) * beta * (1.0 - beta) ** ((1.0 - beta) / beta)
            * t ** (1.0 / beta))


def _kanter_draws(t: float, beta: float, u, e, w):
    """t^(1/beta) times Kanter's stable draw at U = pi u; returns the draws.

    u holds uniforms on [0, 1) and e the powers E^((1-beta)/beta) of standard
    exponentials (`_exponential_power`), in arrays (0-d for one draw) that
    are overwritten in place, with w as scratch of their shape; the draws
    come back in u.  Each branch evaluates the expression of `stable_sample`'s
    docstring by the same operations, in the same order, with augmented
    operators, so that every power takes the route a plain `**` on arrays
    would: numpy's array power with its scalar-exponent fast paths.
    """
    # pi * random() equals uniform(0, pi) value for value, and is drawn faster
    u *= math.pi
    if beta == 1.0 / 3.0:
        # q = 4 cos(beta U)^2 in u; q / ((((e e) (q - 1)) (q - 1)) (q - 1))
        # three multiplies where a cube would take the general power
        u *= beta
        np.cos(u, out=u)
        u **= 2
        u *= 4.0
        np.subtract(u, 1.0, out=w)
        e *= w
        e *= w
        e *= w
        np.divide(u, e, out=u)
    elif beta == 0.5:
        # c = cos(beta U) in u; 1 / (4 c c e)
        u *= beta
        np.cos(u, out=u)
        np.multiply(u, 4.0, out=w)
        w *= u
        w *= e
        np.divide(1.0, w, out=u)
    else:
        # sin(beta U) sin((1-beta) U)^ratio / (sin(U)^(1/beta) e^ratio):
        # the denominator into e first, while u still holds U
        ratio = (1.0 - beta) / beta
        np.sin(u, out=w)
        w **= 1.0 / beta
        np.multiply(w, e, out=e)
        np.multiply(u, beta, out=w)
        np.sin(w, out=w)
        u *= 1.0 - beta
        np.sin(u, out=u)
        u **= ratio
        np.multiply(w, u, out=u)
        np.divide(u, e, out=u)
    u *= t ** (1.0 / beta)
    return u


def stable_sample(t: float, beta: float, rng: np.random.Generator, size=None):
    """Exact positive-stable draws with Laplace transform e^(-t s^beta).

    Kanter's representation: with U uniform on (0, pi), E standard
    exponential and a Kanter's factor (`_kanter_factor`), (a(U)/E)^((1-beta)/beta)
    = sin(beta U) sin((1-beta) U)^((1-beta)/beta) /
    (sin(U)^(1/beta) E^((1-beta)/beta)) has transform e^(-s^beta); the result
    scales by t^(1/beta).  The expanded product is what is computed: no
    factor of it overflows as U -> pi.  Two indices take closed forms of
    a(U)^((1-beta)/beta):

    - beta = 1/3: sin(U/3) sin(2U/3)^2 / sin(U)^3 = 4c^2 / (4c^2 - 1)^3 with
      c = cos(U/3), so a draw is t^3 4c^2 / (E^2 (4c^2 - 1)^3), the
      denominator multiplied out as ((E^2 (4c^2 - 1)) (4c^2 - 1)) (4c^2 - 1);
    - beta = 1/2: sin(U/2)^2 / sin(U)^2 = 1 / (4 cos(U/2)^2), so a draw is
      t^2 / (4 cos(U/2)^2 E).

    Both are exact.  As U -> pi, 4c^2 - 1 -> 0 and its relative rounding error
    grows like eps / (pi - U), but it is backward stable: the computed value
    is the exact factor at a U within about an ulp of the drawn one, which is
    as good as the general formula's sin(U) there.  Every index draws the same
    U and E, in the same order: U as pi times `rng.random`, then E.  The
    arithmetic is `_exponential_power` and `_kanter_draws`, in place on the
    two drawn arrays and one scratch array, the code `ts_sample` runs on its
    blocks; a single draw runs it on 0-d arrays.
    """
    _check_beta(beta)
    _finite_positive(t, "stable_sample: t")
    _check_scale(t, 1.0 / beta, "stable_sample")
    _check_size(size, "stable_sample")
    u = rng.random(() if size is None else size)
    e = _exponential_power(rng.standard_exponential(u.shape), beta)
    draws = _kanter_draws(t, beta, u, e, np.empty_like(u))
    return float(draws) if size is None else draws


def ts_sample(t: float, beta: float, mu: float, rng: np.random.Generator, size=None):
    """Tempered stable draws by exponential-tilting rejection.

    Stable proposals X are accepted with probability e^(-mu X); the expected
    number of proposals per draw is e^lam with lam = mu^beta t.  mu = 0 is
    `stable_sample`, and beta = 1/2 the IG marginal at `ts_half_ig_params(mu)`
    drawn by `ig_sample`, both without rejection.

    Proposals go in blocks of m = min(`PASS_BLOCK`, ceil(missing e^lam)),
    where missing counts the draws still to find.  A block draws E with
    `rng.standard_exponential` and then V with `rng.random`, m of each, and
    tests them in two stages:

    1. Kanter's factor is least at U = 0+, so X >= floor / E^((1-beta)/beta)
       (`_kanter_floor`, a relative 1e-12 low), and V > e^(-mu floor /
       E^((1-beta)/beta)) rejects without an angle.  The survivors'
       E^((1-beta)/beta) and V are compacted.
    2. U is drawn with `rng.random` for the k survivors only; Kanter's draw
       (`_kanter_draws`) and the full test V <= e^(-mu X) follow, and the
       accepted draws are compacted into the output.

    Stage 1 rejects only what stage 2 would, so the accepted draws are those
    of plain tilting rejection.  They are appended in order of acceptance,
    and those beyond the size asked for are dropped: the first n accepted
    draws of an i.i.d. sequence are exact, whatever their order.  The
    workspace is four arrays and a mask of at most `PASS_BLOCK` slots, plus
    the output.

    `TRIAL_CAP` is a budget of proposals per requested draw: a block that
    would take the proposals of the call past `TRIAL_CAP` times the draws
    requested raises BudgetExceeded instead (lam too large for naive
    tilting).  Where the expected proposals per draw, e^lam, alone exceed
    `TRIAL_CAP`, the call raises before it draws anything.
    """
    _check_beta(beta)
    _finite_positive(t, "ts_sample: t")
    mu = _finite_nonnegative(float(mu), "ts_sample: mu")
    _check_size(size, "ts_sample")
    if mu == 0.0:
        return stable_sample(t, beta, rng, size)
    if beta == 0.5:
        return ig_sample(t, ts_half_ig_params(mu), rng, size)
    _check_scale(t, 1.0 / beta, "ts_sample")
    n = 1 if size is None else int(np.prod(size))
    lam = mu ** beta * t
    if lam > math.log(TRIAL_CAP):
        raise BudgetExceeded(
            f"tempered stable rejection expects e^(mu^beta t) proposals per draw, "
            f"mu^beta t = {lam:.3g}, beyond {TRIAL_CAP}")
    # past e^lam = PASS_BLOCK every block is full, so e^lam stops there and
    # cannot overflow
    growth = math.exp(min(lam, math.log(PASS_BLOCK)))
    squeeze = -mu * _kanter_floor(t, beta)
    slots = min(PASS_BLOCK, math.ceil(n * growth))
    first, second, third, fourth = (np.empty(slots) for _ in range(4))
    mask = np.empty(slots, dtype=bool)
    out = np.empty(n)
    filled = proposed = 0
    while filled < n:
        m = min(PASS_BLOCK, math.ceil((n - filled) * growth))
        proposed += m
        if proposed > TRIAL_CAP * n:
            raise BudgetExceeded(
                f"tempered stable rejection exceeded {TRIAL_CAP} proposals per draw "
                f"(expected proposals per draw e^(mu^beta t), mu^beta t = {lam:.3g})")
        # stage 1: E^ratio in first, V in second, the squeeze in third
        p = _exponential_power(rng.standard_exponential(out=first[:m]), beta)
        v = rng.random(out=second[:m])
        bound = np.divide(squeeze, p, out=third[:m])
        np.exp(bound, out=bound)
        ok = np.less_equal(v, bound, out=mask[:m])
        k = np.count_nonzero(ok)
        p = np.compress(ok, p, out=fourth[:k])
        v = np.compress(ok, v, out=third[:k])
        # stage 2: U and then the draws in first, the scratch in second
        u = rng.random(out=first[:k])
        draws = _kanter_draws(t, beta, u, p, second[:k])
        bound = np.multiply(draws, -mu, out=second[:k])
        np.exp(bound, out=bound)
        ok = np.less_equal(v, bound, out=mask[:k])
        j = np.count_nonzero(ok)
        if j > n - filled:
            # keep the first n - filled accepted draws
            ok[np.flatnonzero(ok)[n - filled]:] = False
            j = n - filled
        np.compress(ok, draws, out=out[filled:filled + j])
        filled += j
    if size is None:
        return float(out[0])
    return out.reshape(size)


# ---------------------------------------------------------------------------
# Model objects and sample paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePath:
    """A path tabulated on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise DomainError("times and values must be 1-d arrays of equal length")
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def is_nondecreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) >= 0))

    def to_csv(self, path) -> None:
        from .tables import write_csv
        write_csv(path, ["t", "value"], zip(self.times, self.values))


@dataclass(frozen=True)
class TemperedStableSubordinator:
    """Tempered stable subordinator, transform e^(-t ((s+mu)^beta - mu^beta)); mu = 0: stable."""

    beta: float
    mu: float

    def __post_init__(self):
        _check_beta(self.beta)
        _finite_nonnegative(self.mu, "TemperedStableSubordinator: mu")

    @property
    def tail_exponent(self) -> float:
        return self.beta

    def psi(self, s):
        return ts_psi(s, self.beta, self.mu)

    def levy_tail(self, u):
        return ts_levy_tail(u, self.beta, self.mu)

    def marginal_pdf(self, u, x: float):
        return ts_pdf(u, x, self.beta, self.mu)

    def sample_increment(self, dt: float, rng: np.random.Generator, size=None):
        return ts_sample(dt, self.beta, self.mu, rng, size)
