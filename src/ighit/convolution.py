"""The fixed rules of `hitting.hit_pdf_convolution`, the hitting-time density
of any strictly increasing subordinator as the convolution of its Levy tail
with its marginal density.

q(x, t) = integral over y in (0, t) of levy_tail(t - y) * marginal_pdf(y, x)
needs only a model's `tail_exponent`, `psi`, `levy_tail` and `marginal_pdf`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalInstability
from .numerics import _N_HIGH, _N_LOW, _gauss_rule, geomspace

# The convolution's fixed rules, (Gauss panels per decade of its two geometric
# ladders, where the ladder at the tail's singular end stops as a share of
# t/2), coarse to fine: the first passes the self-check at every IG and
# index-1/2 point tried; the second at the tempered stable indices 0.2 to 0.9,
# where the first mostly misses.  Below the rules' lower end the marginal is
# at most about e^-L, L = _CONV_DEPTH; e^-750 is 0 in float64.
_CONV_RULES = ((2, 1e-2), (6, 1e-8))
_CONV_DEPTH = 750.0
# the self-check's bound on the summed 15/31-node difference, relative to
# |q|; below the floor the products are subnormal and hold no relative digits
_CONV_REL_TOL = 1e-10
_CONV_FLOOR = 1e-300
# psi(s) / s^p at this s is the constant c of psi(s) ~ c s^p as s -> oo
_PSI_LARGE_S = 1e16


def _conv_ladder(lo: float, hi: float, panels: int) -> np.ndarray:
    """0, then a geometric ladder from lo to hi with `panels` per decade."""
    n = max(1, math.ceil(panels * math.log10(hi / lo)))
    return np.concatenate(([0.0], geomspace(lo, hi, n + 1)))


def _convolution_table(xs: np.ndarray, t: float, model, y_lo: float) -> np.ndarray:
    """q(x, t) at each x of the 1-d xs on the first of _CONV_RULES that passes
    its self-check, the rules' first cell being [0, y_lo].

    A rule: [0, y_lo] and a geometric ladder in y up to t/2; then, over the
    singular end, v = (t - y)^(1-p) on [0, v_lo] and a geometric ladder in
    t - y from its bottom to t/2 (uniform cells in v would each span
    decades of t - y near index 1, where the marginal peaks).  Every cell takes both of
    `integrate_interval`'s Gauss rules (15 and 31 nodes); the levy tail is
    evaluated once, the marginal once per x.  The 31-node sum passes where
    the summed 15/31 difference is at most max(_CONV_REL_TOL |q|, _CONV_FLOOR)
    at every x; NumericalInstability is raised where no rule passes.
    """
    p = model.tail_exponent
    k = 1.0 / (1.0 - p)
    half_t = 0.5 * t
    (zl, wl), (zh, wh) = _gauss_rule(_N_LOW), _gauss_rule(_N_HIGH)
    z, w = np.concatenate([zl, zh]), np.concatenate([wl, wh])
    for panels, end in _CONV_RULES:
        y_edges = _conv_ladder(y_lo, half_t, panels)
        v_edges = _conv_ladder(half_t * end, half_t, panels) ** (1.0 - p)
        lo = np.concatenate([y_edges[:-1], v_edges[:-1]])[:, None]
        hi = np.concatenate([y_edges[1:], v_edges[1:]])[:, None]
        # one row per cell: its 15 nodes, then its 31; y itself on the
        # ladder, as t - (t - y) loses y's digits as y -> 0
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * z
        weights = 0.5 * (hi - lo) * w
        ny = y_edges.size - 1
        y, v = nodes[:ny], nodes[ny:]
        d = v ** k
        weights[ny:] *= k * v ** (k - 1.0)
        tail = model.levy_tail(np.concatenate([t - y, d])) * weights
        terms = model.marginal_pdf(np.concatenate([y, t - d]), xs[:, None, None]) * tail
        low = terms[..., :_N_LOW].sum(axis=-1)
        high = terms[..., _N_LOW:].sum(axis=-1)
        q = high.sum(axis=-1)
        err = np.abs(high - low).sum(axis=-1)
        if np.all(err <= np.maximum(_CONV_REL_TOL * np.abs(q), _CONV_FLOOR)):
            return q
    i = int(np.argmax(err / np.maximum(np.abs(q), _CONV_FLOOR)))
    raise NumericalInstability(
        f"the convolution rules at t = {t} miss their self-check: at x = {xs[i]} "
        f"the 15/31-node difference is {err[i]:.3e} against q = {q[i]:.3e}")


def _lower_end(model, x_min: float, t: float) -> float:
    """y_lo of the rules: psi(s) ~ c s^p as s -> oo, so the marginal at x is
    about (c x)^(1/p) times the unit p-stable law, whose density is below e^-L
    under w0 = p ((1-p)/L)^(1/p-1) (Kanter's bound, as in `ts_hit_pdf_table`);
    for the IG process that is (delta x_min)^2/1500."""
    p = model.tail_exponent
    c = model.psi(_PSI_LARGE_S) / _PSI_LARGE_S ** p
    w0 = p * ((1.0 - p) / _CONV_DEPTH) ** (1.0 / p - 1.0)
    return min(0.25 * t, w0 * (c * x_min) ** (1.0 / p))
