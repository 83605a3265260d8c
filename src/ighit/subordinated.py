"""Brownian motion run on the hitting-time clock: X(t) = B(H(t)).

The marginal density is the variance mixture
u(x, t) = integral over r of (2 pi r)^(-1/2) e^(-x^2/2r) h(r, t) dr,
evaluated after r = v^2 so the r^(-1/2) endpoint is flat.  B and H are
independent: path simulation draws fresh Gaussian increments over the
nondecreasing H-grid, and marginal sampling uses X = sqrt(H) Z exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import composite_gauss, geomspace, integrate_interval
from .hitting import (
    HittingDensityEval,
    _check_t,
    _check_x,
    density_support_cutoff,
    hit_pdf_table,
    hitting_path,
    sample_hitting_times,
)
from .subordinators import IGParams, IGSubordinator, SamplePath

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# Mixture weights per hit_pdf_table call of sub_pdf_table: bounds the call's
# temporaries, which for a whole table would set the process's memory peak
WEIGHT_BLOCK = 8192
# Kernel exponents are clamped at this floor and the kernel is shifted down by
# its value there, e^(-700) ~ 1e-304, far under an ulp of any table entry: so
# numpy's exp, which leaves its vector path below about -707.5 and runs 20 to
# 200 times slower there, never sees such an argument, and the entries at the
# floor are exactly zero without a mask that would add to the kernel's memory
KERNEL_FLOOR = -700.0
_FLOOR_VALUE = np.exp(KERNEL_FLOOR)  # by numpy's exp, so the shift is exact


@dataclass(frozen=True)
class SubordinatedEval:
    """Parameters of the subordinated density."""

    params: IGParams


def _v_cutoff(t, ev: SubordinatedEval):
    """Upper end of the v-range of the mixture, broadcast over t."""
    return np.sqrt(density_support_cutoff(t, ev.params, tail_tol=1e-11))


def sub_pdf(x: float, t: float, ev: SubordinatedEval) -> float:
    """Density of X(t) at x; even in x, finite at x = 0."""
    _check_x(x)
    _check_t(t)
    v_max = float(_v_cutoff(t, ev))
    hev = HittingDensityEval(ev.params)
    x2 = x * x

    def integrand(v):
        gauss = np.exp(-x2 / (2.0 * v * v))
        return gauss * hit_pdf_table(v * v, t, hev)

    # one panel per stretch of the Gaussian boundary layer near v ~ |x|
    edges = geomspace(max(v_max * 1e-3, 1e-6), v_max, 17)
    val = integrate_interval(integrand, 0.0, v_max, edges=edges)
    return SQRT_2_OVER_PI * val


def sub_pdf_table(xs, t, ev: SubordinatedEval) -> np.ndarray:
    """Vectorised density on an array of x, broadcast over an array of t.

    The result has shape xs.shape + t.shape.  Each t shares one v-quadrature
    grid across x: shared nodes keep the tabulation error smooth in x, so
    high-order finite-difference stencils applied to the table see
    discretisation error rather than amplified point noise.  The v-rule and
    the Gauss kernel e^(-x^2/2v^2) depend on t only through the cutoff
    v_max(t), so times with one cutoff share one kernel, and each time adds a
    single kernel-times-weights product per batch of x.  The weights of all
    times, whatever their cutoffs, come from broadcast hit_pdf_table calls of
    WEIGHT_BLOCK points or fewer.
    """
    _check_t(t)
    xs = np.asarray(xs, dtype=float)
    _check_x(xs)
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()
    v_maxes, rule_of = np.unique(_v_cutoff(ts, ev), return_inverse=True)
    rules = [composite_gauss(np.concatenate([[0.0], geomspace(v * 1e-4, v, 96)]), 12)
             for v in v_maxes]
    v2 = np.array([pts * pts for pts, _ in rules])
    wts = np.array([w for _, w in rules])
    hev = HittingDensityEval(ev.params)
    weights = np.empty((ts.size, v2.shape[1]))
    step = max(1, WEIGHT_BLOCK // v2.shape[1])
    for i in range(0, ts.size, step):
        k = rule_of[i:i + step]
        np.multiply(wts[k], hit_pdf_table(v2[k], ts[i:i + step, None], hev),
                    out=weights[i:i + step])
    flat = xs.ravel()
    out = np.empty((flat.size, ts.size))
    batch = 256
    for k in range(v_maxes.size):
        cols = np.flatnonzero(rule_of == k)
        neg_inv_2v2 = -1.0 / (2.0 * v2[k])
        for start in range(0, flat.size, batch):
            x2 = flat[start:start + batch] ** 2
            # the leading columns, where even the least x^2 reaches the floor, stay 0
            lead = np.count_nonzero(x2.min() * neg_inv_2v2 < KERNEL_FLOOR)
            gauss = np.zeros((x2.size, v2.shape[1]))
            live = gauss[:, lead:]
            np.outer(x2, neg_inv_2v2[lead:], out=live)
            np.maximum(live, KERNEL_FLOOR, out=live)
            np.exp(live, out=live)
            live -= _FLOOR_VALUE
            for j in cols:
                out[start:start + batch, j] = gauss @ weights[j]
            del gauss, live  # one kernel alive at a time keeps peak memory flat
    out *= SQRT_2_OVER_PI
    return out.reshape(xs.shape + t_arr.shape)


def sub_cdf_interpolant(t: float, ev: SubordinatedEval):
    """Distribution function of X(t) as a callable built from a dense table."""
    xs = np.linspace(0.0, 8.0 * float(_v_cutoff(t, ev)), 4001)
    dens = sub_pdf_table(xs, t, ev)
    # cumulative composite Simpson on the uniform half-grid
    dx = xs[1] - xs[0]
    cum = np.zeros_like(xs)
    cum[1:] = np.cumsum(0.5 * dx * (dens[1:] + dens[:-1]))
    half_mass = cum[-1]
    cum = cum / (2.0 * half_mass)

    def cdf(x):
        x_arr = np.asarray(x, dtype=float)
        tail = np.interp(np.abs(x_arr), xs, cum)
        return np.where(x_arr >= 0, 0.5 + tail, 0.5 - tail)

    return cdf


def sub_sample_path(params: IGParams, horizon: float, dt: float,
                    rng: np.random.Generator) -> SamplePath:
    """Path of X(t) = B(H(t)) on the t-grid.

    The driving subordinator path is extended until it exceeds the horizon,
    inverted on the grid, and an independent Brownian motion is consumed over
    the nondecreasing clock increments; zero clock increments give exactly
    constant stretches of X.
    """
    h_path = hitting_path(IGSubordinator(params), horizon, dt, rng)[1]
    d_h = np.diff(h_path.values, prepend=0.0)
    gauss = rng.standard_normal(d_h.size)
    x_vals = np.cumsum(np.sqrt(d_h) * gauss)
    return SamplePath(h_path.times, x_vals)


def sub_sample_values(t_eval: float, n: int, params: IGParams, dt: float,
                      seed: int) -> np.ndarray:
    """n draws of X(t_eval), exact given the grid hitting times.

    Conditionally on H(t_eval) = h the value B(H(t_eval)) is N(0, h), so the
    grid hitting-time samples are scaled by independent standard normals; this
    is the same law a full path simulation produces at t_eval.
    """
    h_samples = sample_hitting_times(t_eval, n, params, dt, seed)
    z = np.random.default_rng([seed, 2 ** 31]).standard_normal(n)
    return np.sqrt(h_samples) * z
