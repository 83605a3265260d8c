"""Every public entry point rejects a non-finite or out-of-bound number with DomainError.

Each case passes NaN, +inf and, where the argument has a bound, a value past
it; the message names the function that checks and the argument at fault.  A
count of draws is an integer, and its message says so in place of "finite".
"""

import math

import numpy as np
import pytest

from ighit.errors import DomainError
from ighit.hitting import (
    hit_boundary_slope,
    hit_boundary_value,
    hit_cdf,
    hit_lt_space,
    hit_lt_space_closed,
    hit_lt_time,
    hit_mean,
    hit_moment,
    hit_moment_quadrature,
    hit_pdf_convolution,
    hit_pdf_integral,
    hit_pdf_table,
    hit_second_moment,
    hit_survival,
    hit_variance,
    hitting_path,
    sample_hitting_times,
    stable_hit_pdf,
    stable_hit_survival,
    stable_hit_tail_report,
    tail_report,
    ts_hit_pdf_table,
)
from ighit.montecarlo import ecdf_ks, estimate_moment, ks_critical_1pct
from ighit.numerics import (
    integrate_interval,
    integrate_semi_infinite,
    invert_laplace,
    invert_laplace_talbot,
    upper_gamma,
)
from ighit.residuals import PDE_BOXES, GridBox, residual_pseudo_lt, residual_ts_pde
from ighit.subordinated import (
    sub_cdf_interpolant,
    sub_pdf,
    sub_pdf_table,
    sub_sample_values,
)
from ighit.subordinators import (
    IGParams,
    TemperedStableSubordinator,
    ig_cdf,
    ig_levy_tail,
    ig_pdf,
    ig_sample,
    stable_cdf,
    stable_pdf,
    stable_sample,
    ts_half_ig_params,
    ts_levy_tail,
    ts_pdf,
    ts_psi,
    ts_sample,
)

P = IGParams(1.0, 1.0)
GRID = [2.0, 3.0, 4.0]
BOX = (0.4, 1.6, 0.5, 1.5, 1 / 32, 1 / 32)


def _rng():
    return np.random.default_rng(0)


def _lt(s):
    return 1.0 / (s + 1.0)


def _box(i):
    return lambda v: GridBox(*BOX[:i], v, *BOX[i + 1:])


# (message prefix, call with the value under test, a value past the bound or None)
CASES = [
    ("upper_gamma: x", lambda v: upper_gamma(-0.5, v), 0.0),
    ("integrate_interval: abs_tol", lambda v: integrate_interval(np.cos, 0, 1, abs_tol=v), 0.0),
    ("integrate_interval: rel_tol", lambda v: integrate_interval(np.cos, 0, 1, rel_tol=v), -1.0),
    ("integrate_interval: abs_tol", lambda v: integrate_semi_infinite(np.exp, abs_tol=v), -1.0),
    ("invert_laplace: t", lambda v: invert_laplace(_lt, v), 0.0),
    ("invert_laplace: t", lambda v: invert_laplace(_lt, [1.0, v]), -1.0),
    ("invert_laplace_talbot: t", lambda v: invert_laplace_talbot(_lt, v), 0.0),
    ("IGParams: delta", lambda v: IGParams(v, 1.0), 0.0),
    ("IGParams: gamma", lambda v: IGParams(1.0, v), -0.5),
    ("TemperedStableSubordinator: mu", lambda v: TemperedStableSubordinator(0.5, v), -0.5),
    ("ig_pdf: x", lambda v: ig_pdf(v, 1.0, P), 0.0),
    ("ig_pdf: t", lambda v: ig_pdf(1.0, v, P), 0.0),
    ("ig_cdf: t", lambda v: ig_cdf(1.0, v, P), 0.0),
    ("ig_sample: t", lambda v: ig_sample(v, P, _rng()), 0.0),
    ("ig_sample: t", lambda v: P.sample_increment(v, _rng()), -1.0),
    ("ig_levy_tail: u", lambda v: ig_levy_tail(v, P), 0.0),
    ("stable_pdf: u", lambda v: stable_pdf(v, 1.0, 0.4), 0.0),
    ("stable_pdf: t", lambda v: stable_pdf(1.0, v, 0.4), 0.0),
    ("stable_cdf: t", lambda v: stable_cdf(1.0, v, 0.4), 0.0),
    ("stable_sample: t", lambda v: stable_sample(v, 0.4, _rng()), 0.0),
    ("ts_pdf: u", lambda v: ts_pdf(v, 1.0, 0.4, 1.0), 0.0),
    ("ts_pdf: t", lambda v: ts_pdf(1.0, v, 0.4, 1.0), 0.0),
    ("ts_pdf: mu", lambda v: ts_pdf(1.0, 1.0, 0.4, v), -0.5),
    ("ts_levy_tail: u", lambda v: ts_levy_tail(v, 0.4, 1.0), 0.0),
    ("ts_levy_tail: mu", lambda v: ts_levy_tail(1.0, 0.4, v), -0.5),
    ("ts_psi: mu", lambda v: ts_psi(1.0, 0.4, v), -0.5),
    ("ts_half_ig_params: mu", ts_half_ig_params, -0.5),
    ("ts_hit_pdf_table: mu", lambda v: residual_ts_pde(2, v, PDE_BOXES["ts2"]), -0.5),
    ("ts_hit_pdf_table: mu", lambda v: residual_ts_pde(3, v, PDE_BOXES["ts3"]), -0.5),
    ("ts_sample: t", lambda v: ts_sample(v, 0.4, 1.0, _rng()), 0.0),
    ("ts_sample: mu", lambda v: ts_sample(1.0, 0.4, v, _rng()), -0.5),
    ("hit_pdf_integral: x", lambda v: hit_pdf_integral(v, 1.0, P), -0.5),
    ("hit_pdf_integral: t", lambda v: hit_pdf_integral(0.5, v, P), 0.0),
    ("hit_pdf_table: x", lambda v: hit_pdf_table([0.5, v], 1.0, P), -0.5),
    ("hit_pdf_table: t", lambda v: hit_pdf_table(0.5, [1.0, v], P), 0.0),
    ("hit_pdf_convolution: x", lambda v: hit_pdf_convolution(v, 1.0, P), 0.0),
    ("hit_pdf_convolution: t", lambda v: hit_pdf_convolution(0.5, v, P), 0.0),
    ("ts_hit_pdf_table: mu", lambda v: ts_hit_pdf_table([0.5], [1.0], 0.4, v), -0.5),
    ("stable_hit_pdf: x", lambda v: ts_hit_pdf_table([v], [1.0], 0.4, 1.0), 0.0),
    ("stable_hit_pdf: t", lambda v: ts_hit_pdf_table([0.5], [v], 0.4, 1.0), 0.0),
    ("hit_cdf: x", lambda v: hit_cdf(v, 1.0, P), -0.5),
    ("hit_cdf: t", lambda v: hit_cdf(0.5, v, P), 0.0),
    ("hit_survival: x", lambda v: hit_survival(v, 1.0, P), None),
    ("hit_survival: t", lambda v: hit_survival(0.5, v, P), 0.0),
    ("hit_lt_time: x", lambda v: hit_lt_time(v, 1.0, P), -0.5),
    ("hit_lt_space: mu", lambda v: hit_lt_space(v, 1.0, P), None),
    ("hit_lt_space: t", lambda v: hit_lt_space(2.0, v, P), 0.0),
    ("hit_lt_space_closed: mu", lambda v: hit_lt_space_closed(v, 1.0, P), -0.5),
    ("hit_lt_space_closed: t", lambda v: hit_lt_space_closed(1.0, v, P), 0.0),
    ("hit_mean: t", lambda v: hit_mean(v, P), 0.0),
    ("hit_second_moment: t", lambda v: hit_second_moment(v, P), 0.0),
    ("hit_variance: t", lambda v: hit_variance(v, P), -1.0),
    ("hit_moment: q", lambda v: hit_moment(v, 1.0, P), 0.0),
    ("hit_moment: t", lambda v: hit_moment(0.5, v, P), 0.0),
    ("hit_moment_quadrature: q", lambda v: hit_moment_quadrature(v, 1.0, P), None),
    ("density_support_cutoff: t", lambda v: hit_moment_quadrature(0.5, v, P), 0.0),
    ("hit_boundary_value: t", lambda v: hit_boundary_value(v, P), 0.0),
    ("hit_boundary_value: t", lambda v: hit_boundary_slope(v, P), 0.0),
    ("tail_report: t", lambda v: tail_report(v, P, GRID), 0.0),
    ("tail_report: x_grid", lambda v: tail_report(1.0, P, [v, *GRID]), 0.0),
    ("stable_hit_tail_report: t", lambda v: stable_hit_tail_report(v, 0.4, GRID), 0.0),
    ("stable_hit_tail_report: x_grid", lambda v: stable_hit_tail_report(1.0, 0.4, [*GRID, v]),
     -1.0),
    ("hitting_path: horizon", lambda v: hitting_path(P, v, 0.5, _rng()), None),
    ("hitting_path: dt", lambda v: hitting_path(P, 1.0, v, _rng()), None),
    ("sample_hitting_times: t_eval", lambda v: sample_hitting_times(v, 4, P, 0.1, 0), 0.0),
    ("sample_hitting_times: dt", lambda v: sample_hitting_times(1.0, 4, P, v, 0), 0.0),
    ("sample_hitting_times: dt", lambda v: sub_sample_values(1.0, 4, P, v, 0), -1.0),
    ("stable_hit_pdf: x", lambda v: stable_hit_pdf(v, 1.0, 0.4), 0.0),
    ("stable_hit_pdf: t", lambda v: stable_hit_pdf(0.5, v, 0.4), 0.0),
    ("stable_hit_survival: x", lambda v: stable_hit_survival(v, 1.0, 0.4), 0.0),
    ("stable_hit_survival: t", lambda v: stable_hit_survival(0.5, v, 0.4), 0.0),
    ("sub_pdf: x", lambda v: sub_pdf(v, 1.0, P), None),
    ("sub_pdf: t", lambda v: sub_pdf(0.5, v, P), 0.0),
    ("sub_pdf_table: x", lambda v: sub_pdf_table([0.5, v], 1.0, P), None),
    ("sub_pdf_table: t", lambda v: sub_pdf_table(0.5, v, P), 0.0),
    ("density_support_cutoff: t", lambda v: sub_cdf_interpolant(v, P), 0.0),
    ("GridBox: x0", _box(0), None),
    ("GridBox: x1", _box(1), None),
    ("GridBox: t0", _box(2), None),
    ("GridBox: t1", _box(3), None),
    ("GridBox: dx", _box(4), 0.0),
    ("GridBox: dt", _box(5), -1 / 32),
    ("residual_pseudo_lt: s_grid", lambda v: residual_pseudo_lt(P, [0.5, v], [0.5]), 0.0),
    ("residual_pseudo_lt: x_grid", lambda v: residual_pseudo_lt(P, [0.5], [0.5, v]), -0.5),
    ("estimate_moment: q", lambda v: estimate_moment(lambda n, rng: np.ones(n), v, 4, 0), None),
    ("estimate_moment: n must be an integer >= 2",
     lambda v: estimate_moment(lambda n, rng: np.ones(n), 1.0, v, 0), 2.5),
    ("sample_hitting_times: n must be an integer >= 1",
     lambda v: sample_hitting_times(1.0, v, P, 0.1, 0), 2.5),
    ("sample_hitting_times: n must be an integer >= 1",
     lambda v: sub_sample_values(1.0, v, P, 0.1, 0), 2.5),
    ("ecdf_ks: samples", lambda v: ecdf_ks([0.5, v, 0.2], lambda x: x), None),
    ("ks_critical_1pct: n must be an integer >= 1", ks_critical_1pct, 0),
]

PARAMS = [pytest.param(what, call, value, id=f"{what}-{i}-{value}")
          for i, (what, call, past) in enumerate(CASES)
          for value in (math.nan, math.inf) + (() if past is None else (past,))]


@pytest.mark.parametrize("what, call, value", PARAMS)
def test_bad_number_raises_naming_the_argument(what, call, value):
    message = what if " must be " in what else f"{what} must be finite"
    with pytest.raises(DomainError, match=f"^{message}"):
        call(value)
