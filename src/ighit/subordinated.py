"""Brownian motion run on the hitting-time clock: X(t) = B(H(t)).

The marginal density is the variance mixture
u(x, t) = integral over r of (2 pi r)^(-1/2) e^(-x^2/2r) h(r, t) dr,
evaluated after r = v^2 so the r^(-1/2) endpoint is flat.  B and H are
independent: path simulation draws fresh Gaussian increments over the
nondecreasing H-grid, and marginal sampling uses X = sqrt(H) Z exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _finite, _finite_positive
from .numerics import composite_gauss, geomspace, integrate_interval
from .hitting import (
    HittingDensityEval,
    density_support_cutoff,
    hit_pdf_table,
    hitting_path,
    sample_hitting_times,
)
from .subordinators import IGParams, SamplePath

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
# Nodes per matrix product of a table over several times.  A BLAS may sum a
# longer product in blocks that depend on its thread count (OpenBLAS 0.3.31
# does above 384 nodes on AVX-512 hosts), where a matrix-vector product's sums
# do not; summing shorter products keeps the table, and the residuals that a
# fourth-order stencil builds on it, the same on any number of threads.
NODE_CHUNK = 192


# the benchmark's spelling of the parameters of the subordinated density
SubordinatedEval = HittingDensityEval


def _v_cutoff(t, params: IGParams):
    """Upper end of the v-range of the mixture, broadcast over t."""
    return np.sqrt(density_support_cutoff(t, params, tail_tol=1e-11))


def sub_pdf(x: float, t: float, params: IGParams) -> float:
    """Density of X(t) at x; even in x, finite at x = 0."""
    _finite(x, "sub_pdf: x")
    _finite_positive(t, "sub_pdf: t")
    v_max = float(_v_cutoff(t, params))
    x2 = x * x

    def integrand(v):
        gauss = np.exp(-x2 / (2.0 * v * v))
        return gauss * hit_pdf_table(v * v, t, params)

    # one panel per stretch of the Gaussian boundary layer near v ~ |x|
    edges = geomspace(max(v_max * 1e-3, 1e-6), v_max, 17)
    val = integrate_interval(integrand, 0.0, v_max, edges=edges)
    return SQRT_2_OVER_PI * val


def sub_pdf_table(xs, t, params: IGParams) -> np.ndarray:
    """Vectorised density on an array of x, broadcast over an array of t.

    The result has shape xs.shape + t.shape.  All x and t share one v-rule:
    a panel [0, c_min 1e-4], then a geometric ladder from c_min 1e-4 to c_max
    at 95 panels per 4 decades, 12 Gauss nodes per panel, c_min and c_max
    being the least and greatest cutoff v_max(t) of the call.  Shared nodes
    keep the tabulation error smooth in x and t, so high-order
    finite-difference stencils applied to the table see discretisation error
    rather than amplified point noise.  With one t, or times of one cutoff,
    the ladder has 95 panels.  The Gauss kernel e^(-x^2/2v^2) is built once
    per batch of x, and its product with the weights of every t gives the
    batch's rows, summed over NODE_CHUNK nodes at a time when there are
    several times.  The weights come from broadcast hit_pdf_table calls of
    WEIGHT_BLOCK points or fewer.
    """
    _finite_positive(t, "sub_pdf_table: t")
    xs = _finite(np.asarray(xs, dtype=float), "sub_pdf_table: x")
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()
    cuts = _v_cutoff(ts, params)
    c_min, c_max = float(cuts.min()), float(cuts.max())
    panels = 95 + math.ceil(23.75 * math.log10(c_max / c_min))
    pts, wts = composite_gauss(
        np.concatenate([[0.0], geomspace(c_min * 1e-4, c_max, panels + 1)]), 12)
    v2 = pts * pts
    weights = np.empty((v2.size, ts.size))
    step = max(1, WEIGHT_BLOCK // v2.size)
    for i in range(0, ts.size, step):
        np.multiply(wts[:, None], hit_pdf_table(v2[:, None], ts[None, i:i + step], params),
                    out=weights[:, i:i + step])
    neg_inv_2v2 = -1.0 / (2.0 * v2)
    chunk = v2.size if ts.size == 1 else NODE_CHUNK
    flat = xs.ravel()
    out = np.zeros((flat.size, ts.size))
    batch = 256
    for start in range(0, flat.size, batch):
        x2 = flat[start:start + batch] ** 2
        rows = out[start:start + batch]
        for k in range(0, v2.size, chunk):
            neg = neg_inv_2v2[k:k + chunk]
            # the leading columns, where even the least x^2 reaches the floor, stay 0
            lead = np.count_nonzero(x2.min() * neg < KERNEL_FLOOR)
            if lead == neg.size:
                continue
            gauss = np.zeros((x2.size, neg.size))
            live = gauss[:, lead:]
            np.outer(x2, neg[lead:], out=live)
            np.maximum(live, KERNEL_FLOOR, out=live)
            np.exp(live, out=live)
            live -= _FLOOR_VALUE
            rows += gauss @ weights[k:k + chunk]
            del gauss, live  # one kernel alive at a time keeps peak memory flat
    out *= SQRT_2_OVER_PI
    return out.reshape(xs.shape + t_arr.shape)


def sub_cdf_interpolant(t: float, params: IGParams):
    """Distribution function of X(t) as a callable built from a dense table."""
    xs = np.linspace(0.0, 8.0 * float(_v_cutoff(t, params)), 4001)
    dens = sub_pdf_table(xs, t, params)
    # cumulative trapezoid rule on the uniform half-grid
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
    h_path = hitting_path(params, horizon, dt, rng)[1]
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
