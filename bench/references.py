"""Independent references for the benchmark's correctness checks.

Nothing here imports ighit.  The hitting time H(t) of the inverse Gaussian
subordinator with barrier slope delta and drift gamma is the running maximum
of W_s + gamma*s over s <= t, divided by delta, so its law has the closed forms
of Borodin & Salminen, Handbook of Brownian Motion, 2.1:

  density   h(x, t) = delta [2 phi(a)/sqrt(t) - gamma e^(-a^2/2) erfcx(v/sqrt(2))]
  cdf       F(x, t) = Phi(a) - e^(2 gamma delta x) Phi(-v)

with a = (delta x - gamma t)/sqrt(t) and v = (delta x + gamma t)/sqrt(t).
These are evaluated with scipy.special; derived quantities (moments, the
subordinated density, transforms) are quadratures of them.  Statistical bands
are set so that a correct program fails each one with probability <= 1e-6.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, special

from box import gauss_panels, x_end

# two-sided normal quantile for a false-alarm probability of 5.7e-7 per band
Z_BAND = 5.0
# false-alarm probability of each DKW band
DKW_ALPHA = 1e-6


def _a_v(x, t, delta, gamma):
    x = np.asarray(x, dtype=float)
    sq = math.sqrt(t)
    return x, (delta * x - gamma * t) / sq, (delta * x + gamma * t) / sq


def hit_pdf(x, t, delta, gamma):
    """Closed-form density of H(t) at x >= 0."""
    x, a, v = _a_v(x, t, delta, gamma)
    bracket = math.sqrt(2.0 / (math.pi * t)) - gamma * special.erfcx(v / math.sqrt(2.0))
    return delta * np.exp(-0.5 * a * a) * bracket


def hit_cdf(x, t, delta, gamma):
    """P(H(t) <= x), with the e^(2 gamma delta x) factor taken in log space."""
    x, a, v = _a_v(x, t, delta, gamma)
    return special.ndtr(a) - np.exp(2.0 * gamma * delta * x + special.log_ndtr(-v))


def hit_survival(x, t, delta, gamma):
    """P(H(t) > x), accurate in the far tail."""
    x, a, v = _a_v(x, t, delta, gamma)
    return special.ndtr(-a) + np.exp(2.0 * gamma * delta * x + special.log_ndtr(-v))


def hit_moment(q, t, delta, gamma):
    """E H(t)^q = q * integral of x^(q-1) P(H(t) > x) dx, by adaptive quadrature."""
    upper = x_end(t, delta, gamma, 12.0)
    val, _ = integrate.quad(lambda x: x ** (q - 1.0) * hit_survival(x, t, delta, gamma),
                            0.0, upper, epsabs=0.0, epsrel=1e-12, limit=400)
    return q * val


def hit_moment_mp(q, t, delta, gamma, dps=30):
    """E H(t)^q in mpmath arithmetic, for queries float64 cannot resolve."""
    with mpmath.workdps(dps):
        t, delta, gamma = mpmath.mpf(t), mpmath.mpf(delta), mpmath.mpf(gamma)
        sq = mpmath.sqrt(t)

        def surv(x):
            a = (delta * x - gamma * t) / sq
            v = (delta * x + gamma * t) / sq
            return (mpmath.ncdf(-a)
                    + mpmath.exp(2 * gamma * delta * x) * mpmath.ncdf(-v))

        upper = (gamma * t + 14 * sq) / delta
        val = mpmath.quad(lambda x: x ** (q - 1) * surv(x),
                          mpmath.linspace(0, upper, 5))
        return float(q * val)


def hit_lt_space(mu, t, delta, gamma):
    """E exp(-mu H(t)) by quadrature of the closed-form density."""
    upper = x_end(t, delta, gamma, 12.0)
    val, _ = integrate.quad(lambda x: math.exp(-mu * x) * float(hit_pdf(x, t, delta, gamma)),
                            0.0, upper, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def sub_pdf(xs, t, delta, gamma):
    """Density of B(H(t)) at xs: sqrt(2/pi) * integral of e^(-x^2/2v^2) h(v^2, t) dv.

    Composite Gauss rule on a mesh that is uniform over the bulk and geometric
    towards v = 0, where the Gaussian factor switches on at v ~ |x|.
    """
    v_end = math.sqrt(x_end(t, delta, gamma, 12.0))
    edges = np.unique(np.concatenate([np.linspace(0.0, v_end, 161),
                                      np.geomspace(1e-7 * v_end, v_end, 161)]))
    pts, wts = gauss_panels(edges, 16)
    weights = wts * hit_pdf(pts * pts, t, delta, gamma)
    xs = np.asarray(xs, dtype=float)
    gauss = np.exp(-np.outer(xs * xs, 0.5 / (pts * pts)))
    return math.sqrt(2.0 / math.pi) * (gauss @ weights)


def stable_unit_pdf(u, beta):
    """Density of the beta-stable subordinator at time 1 (transform e^(-s^beta)).

    beta = 1/2: u^(-3/2) e^(-1/4u) / (2 sqrt(pi)); beta = 1/3: the Bessel form
    (1/(3 pi)) u^(-3/2) K_(1/3)(2/sqrt(27 u)) with scipy.special.kv.
    """
    u = np.asarray(u, dtype=float)
    if beta == 0.5:
        return u ** -1.5 * np.exp(-0.25 / u) / (2.0 * math.sqrt(math.pi))
    if abs(beta - 1.0 / 3.0) < 1e-15:
        return u ** -1.5 * special.kv(1.0 / 3.0, 2.0 / np.sqrt(27.0 * u)) / (3.0 * math.pi)
    raise ValueError("closed forms exist for beta = 1/2 and 1/3 only")


def stable_hit_pdf(x, t, beta):
    """Density (t/beta) x^(-1-1/beta) g(t x^(-1/beta)) of the stable hitting time."""
    x = np.asarray(x, dtype=float)
    return (t / beta) * x ** (-1.0 - 1.0 / beta) * stable_unit_pdf(t * x ** (-1.0 / beta), beta)


def stable_hit_survival(x, t, beta):
    """P(E(t) > x) = P(D(1) <= t x^(-1/beta))."""
    u_end = t * x ** (-1.0 / beta)
    if beta == 0.5:
        return float(special.erfc(x / (2.0 * math.sqrt(t))))
    val, _ = integrate.quad(lambda u: float(stable_unit_pdf(u, beta)), 0.0, u_end,
                            epsabs=1e-300, epsrel=1e-12, limit=200)
    return val


def grid_law(t, delta, gamma, dt):
    """Law of the grid hitting time S = dt * (floor(H/dt) + 1).

    P(S > k dt) = P(H(t) >= k dt) = 1 - F(k dt), so E S = dt * sum_k (1 - F(k dt))
    and E S^2 = dt^2 * sum_k (2k + 1)(1 - F(k dt)).  Returns (grid, cdf at the
    grid, mean, variance) with the grid running until the survival is < 1e-18.
    """
    k_end = int(math.ceil(x_end(t, delta, gamma, 9.5) / dt)) + 1
    k = np.arange(k_end + 1)
    surv = hit_survival(k * dt, t, delta, gamma)
    mean = dt * float(surv.sum())
    second = dt * dt * float(((2 * k + 1) * surv).sum())
    return k * dt, 1.0 - surv, mean, second - mean * mean


def dkw_epsilon(n, alpha=DKW_ALPHA):
    """Half-width of the DKW band for an empirical CDF of n draws."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ts_moments(t, beta, mu):
    """(E D, Var D, E D^2, Var D^2) of the tempered stable subordinator at t.

    Cumulants from the Laplace exponent (s + mu)^beta - mu^beta:
    kappa_n = t beta (1-beta)(2-beta)...(n-1-beta) mu^(beta-n).
    """
    k = []
    coeff = t * beta
    for n in range(1, 5):
        k.append(coeff * mu ** (beta - n))
        coeff *= n - beta
    k1, k2, k3, k4 = k
    m2 = k2 + k1 * k1
    m4 = k4 + 4 * k3 * k1 + 3 * k2 * k2 + 6 * k2 * k1 * k1 + k1 ** 4
    return k1, k2, m2, m4 - m2 * m2
