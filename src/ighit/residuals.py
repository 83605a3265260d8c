"""Finite-difference residual checks for the differential identities.

Each check tabulates the relevant density on a rectangular grid, applies the
discrete operator, and reports interior residual norms at two resolutions.
All eight grid checks are term lists under one driver (`_pde`): an operator
is a list of (coefficient, axis, order) terms, where orders 1 to 4 are
central stencils and order 1/2 is the L1 Caputo derivative.  An
integer-order check halves both steps at the second level, and a
second-order stencil set should show a refinement ratio near 4; a Caputo
check halves the step of its Caputo axis only, and the L1 scheme should
show a ratio near 2^(3/2).  Every check tabulates once, at the fine steps,
and takes its coarse level as every other point of that table along each
halved axis.  Dirac source terms are
handled by domain restriction: every grid is interior to the region where
those terms vanish, so the identities hold classically there.  A negative
control, such as the printed hitting density, is a `perturb(x, t, table)` hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, _finite, _finite_nonnegative, _finite_positive
from .numerics import integrate_ladder
from .hitting import hit_lt_time, hit_pdf_table, ts_hit_pdf_table
from .subordinated import sub_pdf_table
from .subordinators import IGParams, ig_pdf, ig_psi


# The most coarse steps from 0 to a box's far edge on either axis (the
# fractional checks' grids start at 0); the committed boxes need at most 384,
# where a step of 1e-9 would tabulate over a billion points.
_MAX_STEPS = 1024


@dataclass(frozen=True)
class GridBox:
    """Reporting region and coarsest steps for a residual check."""

    x0: float
    x1: float
    t0: float
    t1: float
    dx: float
    dt: float

    def __post_init__(self):
        for name in ("x0", "x1", "t0", "t1"):
            _finite(getattr(self, name), f"GridBox: {name}")
        _finite_positive(self.dx, "GridBox: dx")
        _finite_positive(self.dt, "GridBox: dt")
        if not (self.x1 > self.x0 and self.t1 > self.t0):
            raise DomainError("box must have positive extent")
        for name, lo, hi, h in (("dx", self.x0, self.x1, self.dx),
                                ("dt", self.t0, self.t1, self.dt)):
            if max(abs(lo), abs(hi)) / h > _MAX_STEPS:
                raise DomainError(f"step {name} = {h} is too fine (over {_MAX_STEPS} steps)")


# Default box of each residual check, keyed by its `ighit pde-check --pde`
# name; the `ighit verify` records check the same boxes.
PDE_BOXES = {
    "hitting": GridBox(0.4, 1.6, 0.5, 1.5, 1 / 32, 1 / 32),
    "ig": GridBox(0.5, 2.5, 0.5, 1.5, 1 / 32, 1 / 32),
    "ts2": GridBox(0.4, 1.0, 0.7, 1.1, 1 / 16, 1 / 16),
    "ts3": GridBox(0.5, 1.0, 0.6, 1.0, 1 / 8, 1 / 8),
    "subordinated": GridBox(0.3, 1.5, 0.5, 1.0, 1 / 24, 1 / 24),
    "frac-hitting": GridBox(0.25, 1.5, 0.3, 1.0, 1 / 256, 1 / 64),
    "frac-ig": GridBox(0.3, 1.5, 0.5, 1.0, 1 / 64, 1 / 256),
    "frac-subordinated": GridBox(0.25, 1.25, 0.3, 0.75, 1 / 128, 1 / 64),
}
# The s and x grids of `ighit pde-check --pde pseudo-lt` and of the closed-form
# half of the `verify` record
_PSEUDO_LT_GRIDS = ((0.5, 1.0, 2.0), (0.3, 0.7, 1.1))


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals at the finest resolution plus refinement behaviour."""

    x: np.ndarray
    t: np.ndarray
    residuals: np.ndarray
    norms: dict
    steps: tuple
    refinement_ratio: float
    fitted_order: float
    label: str = ""
    extra: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        from .tables import write_json
        write_json(path, {
            "label": self.label,
            "norms": {k: float(v) for k, v in self.norms.items()},
            "steps": [float(self.steps[0]), float(self.steps[1])],
            "refinement_ratio": float(self.refinement_ratio),
            "fitted_order": float(self.fitted_order),
            **self.extra,
        })

    def to_csv(self, path) -> None:
        from .tables import write_csv
        rows = []
        for i, xv in enumerate(self.x):
            for j, tv in enumerate(self.t):
                rows.append((xv, tv, self.residuals[i, j]))
        write_csv(path, ["x", "t", "residual"], rows)


# ---------------------------------------------------------------------------
# Caputo fractional derivative, L1 scheme
# ---------------------------------------------------------------------------

def caputo_derivative(times, values, alpha: float) -> np.ndarray:
    """Caputo derivative of order alpha in (0, 1) on a uniform grid from 0.

    L1 scheme: the integrand's f' is taken piecewise linear and the singular
    kernel integrated exactly, giving O(dt^(2-alpha)) accuracy for smooth f.
    The derivative applies along the last axis; the value at the first grid
    point is 0 by convention.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    t_arr = np.asarray(times, dtype=float)
    vals = np.asarray(values, dtype=float)
    if t_arr.ndim != 1 or t_arr.size < 2:
        raise DomainError("need at least two grid points")
    if vals.shape[-1] != t_arr.size:
        raise DomainError("values must match the time grid along the last axis")
    steps = np.diff(t_arr)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise DomainError("caputo_derivative requires a uniform grid")
    n = t_arr.size - 1
    k = np.arange(n, dtype=float)
    b = (k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha)
    # B[j, m] = b[m - j] for j <= m gives out[..., m+1] = sum_j diff_j b[m-j]:
    # row j of B is the window of (0,)*(n-1) + b that starts at n - 1 - j
    padded = np.concatenate([np.zeros(n - 1), b])
    B = np.lib.stride_tricks.sliding_window_view(padded, n)[::-1].copy()
    diffs = np.diff(vals, axis=-1)
    out = np.zeros_like(vals)
    out[..., 1:] = (diffs @ B) * dt ** (-alpha) / math.gamma(2.0 - alpha)
    return out


# ---------------------------------------------------------------------------
# Stencils (interior only; boundary rows are dropped, not one-sided)
# ---------------------------------------------------------------------------

def _d1(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.moveaxis(f, axis, 0)
    out = (f[2:] - f[:-2]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.moveaxis(f, axis, 0)
    out = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    return np.moveaxis(out, 0, axis)


def _d3(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.moveaxis(f, axis, 0)
    out = (f[4:] - 2.0 * f[3:-1] + 2.0 * f[1:-3] - f[:-4]) / (2.0 * h ** 3)
    return np.moveaxis(out, 0, axis)


def _d4(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.moveaxis(f, axis, 0)
    out = (f[4:] - 4.0 * f[3:-1] + 6.0 * f[2:-2] - 4.0 * f[1:-3] + f[:-4]) / h ** 4
    return np.moveaxis(out, 0, axis)


def _caputo_half(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """`caputo_derivative` of order 1/2 along `axis`, whose grid is h * arange(n)."""
    f = np.moveaxis(f, axis, -1)
    out = caputo_derivative(h * np.arange(f.shape[-1]), f, 0.5)
    return np.moveaxis(out, -1, axis)


def _norms(residual: np.ndarray, terms: list[np.ndarray]) -> dict:
    scale = max(float(np.abs(term).max()) for term in terms)
    max_abs = float(np.abs(residual).max())
    rms = float(np.sqrt(np.mean(residual ** 2)))
    return {"max_abs": max_abs, "rms": rms, "scale": scale,
            "max_rel": max_abs / scale if scale > 0 else math.inf}


def _perturbed(perturb, xs: np.ndarray, ts: np.ndarray, F: np.ndarray) -> np.ndarray:
    if perturb is None:
        return F
    X, T = np.meshgrid(xs, ts, indexing="ij")
    return perturb(X, T, F)


def _level(x, t, residual: np.ndarray, terms: list[np.ndarray],
           steps: tuple) -> ResidualReport:
    return ResidualReport(x=x, t=t, residuals=residual, norms=_norms(residual, terms),
                          steps=steps, refinement_ratio=math.nan, fitted_order=math.nan)


def _report(levels: list, label: str, extra: dict) -> ResidualReport:
    """The last level, refined against the level before it (a NaN ratio and
    order when there is only one)."""
    fine = levels[-1]
    ratio = math.nan
    if len(levels) > 1:
        fine_max = fine.norms["max_abs"]
        ratio = levels[-2].norms["max_abs"] / fine_max if fine_max > 0 else math.inf
    order = math.log2(ratio) if 0 < ratio < math.inf else math.nan
    return replace(fine, refinement_ratio=ratio, fitted_order=order, label=label, extra=extra)


# ---------------------------------------------------------------------------
# Residuals of term-list operators
# ---------------------------------------------------------------------------

# The axes of a residual term, and each derivative order's stencil and
# half-width; order 1/2 is the L1 Caputo derivative (`_caputo_half`).
_X, _T = 0, 1
_HALF = 0.5
_STENCILS = {_HALF: (_caputo_half, 0), 1: (_d1, 1), 2: (_d2, 1), 3: (_d3, 2), 4: (_d4, 2)}


def _pde(table, box: GridBox, terms: list, perturb, label: str, extra: dict,
         signs=(1.0,)) -> tuple:
    """Residual of the sum of c d^k F / d axis^k over `terms`, (c, axis, k)
    each, F being `table(xs, ts)`: one report per entry of `signs`, which
    multiplies the t-terms, all from one tabulation.

    An axis's grid margin is the widest stencil half-width on it, every term
    is cut to the reported points, and the terms are summed in the listed
    order; the scale is the largest |term|.  The second level halves both
    steps, unless a term has order 1/2: the grid of its axis then starts at 0,
    where F is 0 rather than tabulated, its points below the box are dropped,
    and its step alone is halved, the other being fixed small so that the fit
    sees the L1 order.  F is tabulated once, at the fine steps, over the
    points of both levels: a halved axis runs from 2m fine steps below its
    start (m its margin) to max(n_f, 2 n_c) + 2m above, n_f and n_c being the
    fine and coarse step counts to the far edge, which need not be
    n_f = 2 n_c.  The fine level takes its own points of that table, and the
    coarse level every other point along each halved axis: start + (h/2)(2j)
    is start + h j bit for bit.
    """
    frac = next((axis for _, axis, k in terms if k == _HALF), None)
    margin = [max((_STENCILS[k][1] for _, a, k in terms if a == axis), default=0)
              for axis in (_X, _T)]
    lo, hi = (box.x0, box.t0), (box.x1, box.t1)
    start = [0.0 if a == frac else lo[a] for a in (_X, _T)]
    coarse = (box.dx, box.dt)
    halved = [2 if frac in (None, a) else 1 for a in (_X, _T)]
    fine = tuple(h / r for h, r in zip(coarse, halved))

    def count(a, h):
        return int(round((hi[a] - start[a]) / h))

    grids = [start[a] + fine[a] * np.arange(-r * m, max(count(a, fine[a]), r * count(a, h))
                                            + r * m + 1)
             for a, (r, m, h) in enumerate(zip(halved, margin, coarse))]
    F = table(*(g[1:] if a == frac else g for a, g in enumerate(grids)))
    if frac is not None:
        F = np.insert(F, 0, 0.0, axis=frac)

    # the reports of the level whose step is q fine steps on each axis: its
    # points j = -m .. n + m are every q-th point of the table from fine index -q m
    def run(steps, q):
        cut = tuple(slice((r - s) * m, r * m + s * (count(a, steps[a]) + m) + 1, s)
                    for a, (r, s, m) in enumerate(zip(halved, q, margin)))
        grids_l = [g[c] for g, c in zip(grids, cut)]
        F_l = _perturbed(perturb, *grids_l, F[cut])
        # the [start, stop) of the reported points on each axis of F_l
        keep = [(int(np.searchsorted(g, lo[a] - 1e-12)), g.size) if a == frac
                else (margin[a], g.size - margin[a]) for a, g in enumerate(grids_l)]
        scaled = []
        for c, axis, k in terms:
            stencil, half = _STENCILS[k]
            part = tuple(slice(begin - half * (a == axis), stop - half * (a == axis))
                         for a, (begin, stop) in enumerate(keep))
            scaled.append((axis, c * stencil(F_l, steps[axis], axis)[part]))
        xs, ts = (g[begin:stop] for g, (begin, stop) in zip(grids_l, keep))
        signed = ([sign * P if axis == _T else P for axis, P in scaled] for sign in signs)
        return [_level(xs, ts, sum(parts[1:], parts[0]), parts, steps) for parts in signed]

    # the fine level first: while its larger temporaries are alive, no other
    # level's reports are held yet, which lowers the check's tracemalloc peak
    fine_levels = run(fine, (1, 1))
    return tuple(_report(pair, label, extra) for pair in zip(run(coarse, halved), fine_levels))


def residual_hitting_pde(params: IGParams, box: GridBox, *, perturb=None) -> ResidualReport:
    """Interior residual of h_xx - 2 delta gamma h_x - 2 delta^2 h_t on the
    tabulated hitting density."""
    d, g = params.delta, params.gamma
    return _pde(lambda xs, ts: hit_pdf_table(xs[:, None], ts[None, :], params), box,
                [(1.0, _X, 2), (-2.0 * d * g, _X, 1), (-2.0 * d * d, _T, 1)],
                perturb, "hitting_pde", {"delta": d, "gamma": g})[0]


def residual_ig_pde(params: IGParams, box: GridBox, *, perturb=None) -> ResidualReport:
    """Interior residual of g_tt - 2 delta gamma g_t - 2 delta^2 g_x on the
    subordinator density g(x, t) = IG(delta t, gamma) pdf at x."""
    d, g = params.delta, params.gamma
    return _pde(lambda xs, ts: ig_pdf(xs[:, None], ts, params), box,
                [(1.0, _T, 2), (-2.0 * d * g, _T, 1), (-2.0 * d * d, _X, 1)],
                perturb, "ig_pde", {"delta": d, "gamma": g})[0]


def residual_ts_pde(n: int, mu: float, box: GridBox, *,
                    perturb=None) -> tuple[ResidualReport, ResidualReport]:
    """Residual of the order-n hitting PDE of the tempered stable subordinator,
    as printed and with the sign of its time-derivative side flipped.

    beta = 1/n; the operator is sum_j (-1)^j C(n, j) mu^(1-j/n) d^j/dx^j
    applied to the hitting density, equated to its time derivative.  n = 2 and
    n = 3 are supported.  The flipped report is the negative control for the
    sign-convention check; both come from one tabulation per level.

    The hitting density is `ts_hit_pdf_table`: at n = 2 the IG closed form
    `hit_pdf_table` of `ts_half_ig_params(mu)`, the same process, and at
    n = 3 the x-derivative of the duality.  The Levy-tail convolution
    `hit_pdf_convolution`, one fixed-rule table per time, stays the oracle of
    both.
    """
    if n not in (2, 3):
        raise DomainError("n must be 2 or 3")
    # max(mu, 0.0): a negative mu reaches the table's check, not math.sqrt's
    space = ([(1.0, _X, 2), (-2.0 * math.sqrt(max(mu, 0.0)), _X, 1)] if n == 2 else
             [(-1.0, _X, 3), (3.0 * mu ** (1.0 / 3.0), _X, 2),
              (-3.0 * mu ** (2.0 / 3.0), _X, 1)])
    reports = _pde(lambda xs, ts: ts_hit_pdf_table(xs, ts, 1.0 / n, mu), box,
                   space + [(-1.0, _T, 1)], perturb, f"ts_pde_n{n}",
                   {"beta": 1.0 / n, "mu": mu}, signs=(1.0, -1.0))
    return tuple(replace(rep, extra={**rep.extra, "sign": sign})
                 for rep, sign in zip(reports, ("as_printed", "flipped")))


def residual_subordinated(params: IGParams, box: GridBox, *,
                          perturb=None) -> ResidualReport:
    """Residual of 2 delta^2 u_t = (1/4) u_xxxx + delta gamma u_xx on the
    subordinated density, interior to x != 0, t > 0."""
    d, g = params.delta, params.gamma
    return _pde(lambda xs, ts: sub_pdf_table(xs, ts, params), box,
                [(2.0 * d * d, _T, 1), (-0.25, _X, 4), (-d * g, _X, 2)],
                perturb, "subordinated_pde", {"delta": d, "gamma": g})[0]


# ---------------------------------------------------------------------------
# Fractional residuals: driftless, unit slope, Caputo order 1/2
# ---------------------------------------------------------------------------

# Each operator lists its Caputo term first.  `_pde` cuts a term to the
# reported points before it takes the next, so the Caputo derivative's
# whole-grid work then runs while no other term is held.  `pde_frac_hitting`
# sets the verify battery's peak resident memory, and listed second the
# Caputo term raised that check's `tracemalloc` peak from 1.58 to 1.78 MB.
_SQRT2 = math.sqrt(2.0)


def residual_frac_hitting(box: GridBox, *, perturb=None) -> ResidualReport:
    """Residual of sqrt(2) * caputo_t^(1/2) h + h_x = 0 for the driftless
    unit-slope hitting density (h(x, 0) = 0 on x > 0 kills the source term).

    Refinement halves the time step only.
    """
    params = IGParams(1.0, 0.0)
    return _pde(lambda xs, ts: hit_pdf_table(xs[:, None], ts[None, :], params), box,
                [(_SQRT2, _T, _HALF), (1.0, _X, 1)], perturb, "frac_hitting",
                {"alpha": 0.5})[0]


def residual_frac_ig(box: GridBox, *, perturb=None) -> ResidualReport:
    """Residual of sqrt(2) * caputo_x^(1/2) g + g_t = 0 for the driftless
    unit-slope subordinator density (g(0, t) = 0).

    The Caputo derivative acts in space; refinement halves the space step.
    """
    params = IGParams(1.0, 0.0)
    return _pde(lambda xs, ts: ig_pdf(xs[:, None], ts, params), box,
                [(_SQRT2, _X, _HALF), (1.0, _T, 1)], perturb, "frac_ig",
                {"alpha": 0.5})[0]


def residual_subordinated_frac(box: GridBox, *, perturb=None) -> ResidualReport:
    """Residual of sqrt(2) * caputo_t^(1/2) u - (1/2) u_xx = 0 for the
    driftless unit-slope subordinated density, interior to |x| >= box.x0 > 0.

    Refinement halves the time step only.
    """
    params = IGParams(1.0, 0.0)
    return _pde(lambda xs, ts: sub_pdf_table(xs, ts, params), box,
                [(_SQRT2, _T, _HALF), (-0.5, _X, 2)], perturb, "subordinated_frac",
                {"alpha": 0.5})[0]


# ---------------------------------------------------------------------------
# Transform-space identity
# ---------------------------------------------------------------------------

# The x step of the transform-space check: its shift at source='closed', the
# coarse central-difference step at source='numeric'.
_LT_STEP = 1e-2


def _numeric_lt(params: IGParams, xs: np.ndarray, s_arr: np.ndarray) -> np.ndarray:
    """Time transforms of h(x, .), x in xs by s in s_arr, from one `integrate_ladder`
    table.  It starts where the exponent (delta x - gamma t)^2/(2t) of h is 40 below
    its peak, and as h <= delta sqrt(2/(pi t)), the tail it drops beyond
    t_hi >= 40/s_min is below delta sqrt(2/(pi t_hi)) e^(-s_min t_hi)/s_min."""
    dx, g = params.delta * float(xs.min()), params.gamma
    t_lo = dx * dx / (dx * g + 40.0 + math.sqrt(1600.0 + 80.0 * dx * g))
    return integrate_ladder(
        lambda ts: np.exp(-s_arr[:, None] * ts) * hit_pdf_table(xs[:, None, None], ts, params),
        t_lo, max(40.0 / s_arr.min(), 10.0 * t_lo), abs_tol=1e-12, rel_tol=1e-10)


def residual_pseudo_lt(params: IGParams, s_grid, x_grid, *,
                       source: str = "closed") -> ResidualReport:
    """Residual of d/dx h~(x, s) + Psi(s) h~(x, s) = 0 in transform space.

    source='closed' checks the integrated identity
    h~(x + step, s) = e^(-step Psi(s)) h~(x, s) on the closed-form transform,
    where it is exact and the residual is pure rounding; there is one level,
    so the refinement ratio is NaN.  source='numeric' tests the transform
    obtained by integrating the tabulated density over t, with a central
    difference in x at two steps for the refinement record: one
    `_numeric_lt` table holds x and x -+ step at both steps.  There every x
    must exceed the coarse step.
    """
    if source not in ("closed", "numeric"):
        raise DomainError("source must be 'closed' or 'numeric'")
    s_arr = _finite_positive(np.asarray(s_grid, dtype=float), "residual_pseudo_lt: s_grid")
    x_arr = _finite_nonnegative(np.asarray(x_grid, dtype=float), "residual_pseudo_lt: x_grid")
    if s_arr.size == 0 or x_arr.size == 0:
        empty = "x_grid" if s_arr.size else "s_grid"
        raise DomainError(f"residual_pseudo_lt: {empty} must be nonempty")
    if source == "numeric" and np.any(x_arr <= _LT_STEP):
        raise DomainError(f"x_grid must exceed the step {_LT_STEP} at source='numeric'")
    psi = ig_psi(s_arr, params)

    if source == "closed":
        h, shifted = (np.array([hit_lt_time(float(x), s_arr, params) for x in xs])
                      for xs in (x_arr, x_arr + _LT_STEP))
        decayed = np.exp(-_LT_STEP * psi) * h
        level = _level(x_arr, s_arr, shifted - decayed, [shifted, decayed], (_LT_STEP, 0.0))
        return _report([level], "pseudo_lt_closed", {"source": source})

    steps = (_LT_STEP, _LT_STEP / 2)
    shifts = np.array([0.0] + [sign * step for step in steps for sign in (1.0, -1.0)])
    h, *shifted = _numeric_lt(params, (x_arr + shifts[:, None]).ravel(), s_arr).reshape(
        shifts.size, x_arr.size, s_arr.size)
    levels = [_level(x_arr, s_arr, (up - down) / (2.0 * step) + psi * h, [psi * h], (step, 0.0))
              for step, up, down in zip(steps, shifted[::2], shifted[1::2])]
    return _report(levels, "pseudo_lt_numeric", {"source": source})
