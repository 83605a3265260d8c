"""Formula verification battery.

Every closed form in the package is checked against at least one independent
oracle (cross-route evaluation, quadrature, transform inversion, stencil
refinement).  Each record carries the printed variant where one exists, the
implemented (possibly corrected) variant, the oracle values, and a verdict:

  confirmed    printed form agrees with the oracles within tolerance
  corrected    printed form fails, the implemented correction agrees
  bounded-only the claim is an asymptotic envelope, verified as boundedness
  failed       not even the implemented form agrees (should never happen)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import DomainError, NonConvergence, NumericalInstability
from .numerics import erfcx, invert_laplace
from .hitting import (
    density_support_cutoff,
    hit_boundary_slope,
    hit_boundary_value,
    hit_lt_space,
    hit_lt_space_closed,
    hit_lt_time,
    hit_llt,
    hit_mean,
    hit_moment,
    hit_moment_quadrature,
    hit_pdf_convolution,
    hit_pdf_integral,
    hit_pdf_table,
    hit_second_moment,
    hit_survival,
    hit_variance,
    printed_prefactor_ratio,
    stable_hit_pdf,
    stable_hit_tail_report,
    tail_report,
)
from .numerics import integrate_interval, integrate_ladder, integrate_semi_infinite
from .residuals import (
    PDE_BOXES,
    _PSEUDO_LT_GRIDS,
    residual_frac_hitting,
    residual_frac_ig,
    residual_hitting_pde,
    residual_ig_pde,
    residual_pseudo_lt,
    residual_subordinated,
    residual_subordinated_frac,
    residual_ts_pde,
)
from .subordinators import (
    IGParams,
    TemperedStableSubordinator,
    ig_levy_tail,
    ts_half_ig_params,
)

P11 = IGParams(1.0, 1.0)
P10 = IGParams(1.0, 0.0)


@dataclass(frozen=True)
class VerificationRecord:
    id: str
    claim: str
    verdict: str
    tolerance: float
    discrepancy: float
    values: dict = field(default_factory=dict)
    # wall-clock seconds of the builder; kept out of to_dict so reports stay deterministic
    elapsed: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {"id": self.id, "claim": self.claim, "verdict": self.verdict,
                "tolerance": self.tolerance, "discrepancy": self.discrepancy,
                "values": self.values}


@dataclass(frozen=True)
class VerificationReport:
    records: tuple

    def to_obj(self) -> dict:
        return {"version": __version__, "records": [r.to_dict() for r in self.records]}

    def to_json(self, path) -> None:
        from .tables import write_json
        write_json(path, self.to_obj())

    @property
    def ok(self) -> bool:
        return all(r.verdict != "failed" for r in self.records)

    def summary_lines(self):
        width = max(len(r.id) for r in self.records) if self.records else 0
        for r in self.records:
            yield (f"{r.id:<{width}}  {r.verdict:<12} "
                   f"disc={r.discrepancy:.3e} tol={r.tolerance:.1e}")


def _verdict(printed_disc, corrected_disc, tol) -> str:
    if printed_disc is not None and printed_disc <= tol:
        return "confirmed"
    if corrected_disc <= tol:
        return "corrected" if printed_disc is not None else "confirmed"
    return "failed"


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------

def _rec_density_two_routes() -> VerificationRecord:
    worst = 0.0
    xs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    for t in (0.5, 1.0, 2.0):
        conv = hit_pdf_convolution(xs, t, P11)
        for x, c in zip(xs.tolist(), conv.tolist()):
            worst = max(worst, abs(hit_pdf_integral(x, t, P11) - c))
    tol = 1e-6
    return VerificationRecord(
        "density_two_routes",
        "hitting density: oscillatory-integral route equals Levy-tail convolution route",
        _verdict(worst, worst, tol), tol, worst,
        {"grid": "x in {0.25,0.5,1,2,4}, t in {0.5,1,2}, delta=gamma=1"})


def _rec_density_prefactor() -> VerificationRecord:
    t = 4.0
    corrected = hit_moment_quadrature(0.0, t, P11)
    literal = corrected * printed_prefactor_ratio(t, P11)
    tol = 1e-6
    return VerificationRecord(
        "density_prefactor",
        "integral-density prefactor: time-dependent exp(-t g^2/2) normalises; "
        "the t-free variant does not",
        _verdict(abs(literal - 1.0), abs(corrected - 1.0), tol), tol,
        abs(corrected - 1.0),
        {"corrected_mass": corrected, "literal_mass": literal,
         "literal_expected": math.exp(0.5 * (t - 1.0)), "t": t})


def _rec_mean_m1() -> VerificationRecord:
    closed = hit_mean(1.0, P11)
    quad = hit_moment_quadrature(1.0, 1.0, P11)
    ilt = hit_moment(1.0, 1.0, P11)
    disc = max(abs(closed - quad), abs(closed - ilt) / closed)
    tol = 1e-4
    return VerificationRecord(
        "mean_m1", "closed-form mean of the hitting time vs quadrature and "
        "transform inversion",
        _verdict(disc, disc, tol), tol, disc,
        {"closed": closed, "quadrature": quad, "ilt": ilt})


def _rec_second_moment_m2() -> VerificationRecord:
    corrected = hit_second_moment(1.0, P11)
    printed = 2.0 * corrected
    quad = hit_moment_quadrature(2.0, 1.0, P11)
    ilt = hit_moment(2.0, 1.0, P11)
    quad_driftless = hit_moment_quadrature(2.0, 1.0, P10)
    tol = 1e-4
    disc_corr = max(abs(corrected - quad), abs(corrected - ilt) / corrected)
    disc_printed = abs(printed - quad)
    return VerificationRecord(
        "second_moment_m2",
        "second moment: the widely printed closed form is twice the true value "
        "(driftless special case gives t, not 2t)",
        _verdict(disc_printed, disc_corr, tol), tol, disc_corr,
        {"corrected": corrected, "printed": printed, "quadrature": quad,
         "ilt": ilt, "driftless_quadrature_t1": quad_driftless,
         "driftless_printed_t1": 2.0})


def _rec_moment_lt_numerator() -> VerificationRecord:
    quad = hit_moment_quadrature(2.0, 1.0, P11)
    corrected = hit_moment(2.0, 1.0, P11)    # numerator Gamma(1+q)
    printed = 2.0 * corrected                # numerator q * Gamma(1+q) at q = 2
    tol = 1e-3
    return VerificationRecord(
        "moment_lt_numerator",
        "moment transform numerator: Gamma(1+q), not q*Gamma(1+q) "
        "(the q-factor breaks the q=2 moment by a factor 2)",
        _verdict(abs(printed - quad) / quad, abs(corrected - quad) / quad, tol),
        tol, abs(corrected - quad) / quad,
        {"corrected_ilt": corrected, "printed_ilt": printed, "quadrature": quad})


def _rec_lt_time_inversion() -> VerificationRecord:
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        inv = invert_laplace(lambda s: hit_lt_time(0.7, s, P11), t)
        dens = hit_pdf_integral(0.7, t, P11)
        worst = max(worst, abs(inv - dens) / dens)
    tol = 1e-4
    return VerificationRecord(
        "lt_time_inversion",
        "closed-form time transform inverts back to the density",
        _verdict(worst, worst, tol), tol, worst, {"x": 0.7})


def _rec_spatial_lt_prefactor() -> VerificationRecord:
    params = IGParams(1.0, 0.5)
    mu, t = 1.0, 2.0
    corrected = hit_lt_space(mu, t, params)
    literal = corrected * printed_prefactor_ratio(t, params)
    x_max = density_support_cutoff(t, params)
    direct = integrate_interval(
        lambda xs: np.exp(-mu * xs) * hit_pdf_table(xs, t, params), 0.0, x_max,
        edges=np.linspace(0.0, x_max, 33))
    driftless = hit_lt_space(1.0, 1.0, P10)
    driftless_closed = erfcx(1.0 / math.sqrt(2.0))
    tol = 1e-5
    disc_corr = max(abs(corrected - direct), abs(driftless - driftless_closed))
    return VerificationRecord(
        "spatial_lt_prefactor",
        "space transform: global factor exp(-t g^2/2) matches direct quadrature; "
        "the t-free printed factor does not",
        _verdict(abs(literal - direct), disc_corr, tol), tol, disc_corr,
        {"corrected": corrected, "literal": literal, "direct_quadrature": direct,
         "driftless_value": driftless, "driftless_closed": driftless_closed,
         "mu": mu, "t": t})


def _rec_llt() -> VerificationRecord:
    params = IGParams(1.0, 0.5)
    closed = hit_llt(1.0, 1.0, params)
    # E e^(-H(t)) <= 1 drops below e^(-40) past t = 40.  Its cusp 1 - sqrt(2t/pi)/delta
    # leaves about 2e-5 t_lo^(3/2)/delta = 2e-17 on the first cell, t_lo = 1e-8
    double = float(integrate_ladder(lambda ts: np.exp(-ts) * hit_lt_space_closed(1.0, ts, params),
                                    1e-8, 40.0, abs_tol=1e-11, rel_tol=1e-9))
    tol = 1e-4
    disc = abs(closed - double)
    return VerificationRecord(
        "llt", "double space-time transform matches double quadrature",
        _verdict(disc, disc, tol), tol, disc,
        {"closed": closed, "double_quadrature": double, "u": 1.0, "s": 1.0})


def _rec_boundary_value() -> VerificationRecord:
    t = 2.0
    corrected = hit_boundary_value(t, P11)
    literal = corrected * printed_prefactor_ratio(t, P11)
    levy = ig_levy_tail(t, P11)
    conv = hit_pdf_convolution(1e-4, t, P11)
    tol = 1e-3
    disc_corr = max(abs(corrected - levy), abs(corrected - conv))
    return VerificationRecord(
        "boundary_value",
        "density at the spatial origin equals the Levy tail at t "
        "(with the time-dependent prefactor)",
        _verdict(abs(literal - conv), disc_corr, tol), tol, disc_corr,
        {"corrected": corrected, "literal": literal, "levy_tail": levy,
         "convolution_near_zero": conv, "t": t})


def _rec_boundary_slope() -> VerificationRecord:
    fd = (hit_pdf_integral(2e-3, 1.0, P11) - hit_pdf_integral(0.0, 1.0, P11)) / 2e-3
    closed = hit_boundary_slope(1.0, P11)
    tol = 1e-3
    disc = abs(fd - closed)
    return VerificationRecord(
        "boundary_slope", "spatial slope at the origin equals twice "
        "delta*gamma times the boundary value",
        _verdict(disc, disc, tol), tol, disc, {"fd": fd, "closed": closed})


def _rec_tail_bound() -> VerificationRecord:
    rep = tail_report(1.0, P11, np.linspace(2.0, 8.0, 25))
    ratios = rep.ratios()
    bounded = bool(ratios.argmax() == 0 and np.all(ratios <= ratios[0] * (1 + 1e-12)))
    rep0 = tail_report(1.0, P10, np.linspace(2.0, 8.0, 25))
    return VerificationRecord(
        "tail_bound",
        "survival envelope x^-1 exp(dg x - x^2/4t): verified as a bound only; "
        "the fitted Gaussian rate is 1/(2t)-like, steeper than the stated x^2/4t",
        "bounded-only" if bounded else "failed",
        math.inf, 0.0 if bounded else math.inf,
        {"max_ratio": float(ratios.max()), "ratio_decreasing": bounded,
         "fitted_rate_driftless": rep0.fitted_gaussian_rate,
         "stated_rate": 0.25, "duality_rate": 0.5})


def _rec_variance_large_t() -> VerificationRecord:
    ts = np.array([100.0, 200.0, 400.0, 800.0])
    vs = np.array([hit_variance(float(t), P11) for t in ts])
    fitted_exponent = float(np.polyfit(np.log(ts), np.log(vs), 1)[0])
    printed_exponent = 2.0
    tol = 0.1
    return VerificationRecord(
        "variance_large_t",
        "large-time variance grows linearly (the printed t^2 law follows from "
        "the doubled second moment, not from the corrected one)",
        _verdict(abs(fitted_exponent - printed_exponent),
                 abs(fitted_exponent - 1.0), tol), tol,
        abs(fitted_exponent - 1.0),
        {"fitted_exponent": fitted_exponent, "printed_exponent": printed_exponent,
         "variance_t100": float(vs[0]), "variance_t800": float(vs[-1])})


def _rec_nonlevy_witness() -> VerificationRecord:
    m1_4 = hit_mean(4.0, P10)
    m1_1 = hit_mean(1.0, P10)
    margin = abs(m1_4 - 4.0 * m1_1)
    ok = margin > 0.5
    return VerificationRecord(
        "nonlevy_witness",
        "mean grows like sqrt(t), not linearly: the inverse process is not Levy",
        "confirmed" if ok else "failed", 0.5, margin,
        {"mean_t4": m1_4, "four_times_mean_t1": 4.0 * m1_1})


def _rec_stable_hit_density() -> VerificationRecord:
    worst = 0.0
    for t in (0.5, 1.0):
        for x in (0.25, 1.0, 2.0):
            closed = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
            worst = max(worst, abs(stable_hit_pdf(x, t, 0.5) - closed))
    mass = integrate_semi_infinite(
        lambda x: stable_hit_pdf(np.maximum(x, 1e-300), 1.0, 0.5))
    worst = max(worst, abs(mass - 1.0))
    tol = 1e-6
    return VerificationRecord(
        "stable_hit_density",
        "half-index hitting density collapses to the scaled Gaussian form and "
        "normalises",
        _verdict(worst, worst, tol), tol, worst, {"mass": mass})


def _rec_stable_hit_tail_rate() -> VerificationRecord:
    rep = stable_hit_tail_report(1.0, 0.5, np.linspace(8.0, 16.0, 17))
    target = rep.extra["rate_n"]
    disc = abs(rep.fitted_gaussian_rate - target) / target
    tol = 0.02
    return VerificationRecord(
        "stable_hit_tail_rate",
        "stretched-exponential tail rate of the stable hitting time matches "
        "(1-b)(t/b)^(b/(b-1))",
        _verdict(disc, disc, tol), tol, disc,
        {"fitted": rep.fitted_gaussian_rate, "stated": target})


def _pde_record(rec_id, claim, report, extra_values=None,
                oracle_ok=True) -> VerificationRecord:
    rel_limit = 2e-3
    ok_ratio = 3.2 <= report.refinement_ratio <= 4.8
    ok_rel = report.norms["max_rel"] <= rel_limit
    disc = report.norms["max_rel"]
    verdict = "confirmed" if (ok_ratio and ok_rel and oracle_ok) else "failed"
    values = {"max_rel": report.norms["max_rel"],
              "refinement_ratio": report.refinement_ratio,
              "fitted_order": report.fitted_order,
              "steps": list(report.steps)}
    if extra_values is not None:
        values.update(extra_values)
    return VerificationRecord(rec_id, claim, verdict, rel_limit, disc, values)


def _rec_pde_hitting() -> VerificationRecord:
    box = PDE_BOXES["hitting"]
    rep = residual_hitting_pde(P11, box)
    rep_lit = residual_hitting_pde(
        P11, box, perturb=lambda x, t, h: h * printed_prefactor_ratio(t, P11))
    return _pde_record(
        "pde_hitting",
        "second-order space PDE of the hitting density (literal prefactor "
        "does not satisfy it)",
        rep, extra_values={"literal_max_rel": rep_lit.norms["max_rel"],
                          "literal_ratio": rep_lit.refinement_ratio})


def _rec_pde_ig() -> VerificationRecord:
    rep = residual_ig_pde(P11, PDE_BOXES["ig"])
    return _pde_record("pde_ig", "dual second-order time PDE of the "
                       "subordinator density", rep)


def _rec_pde_ts_n2() -> VerificationRecord:
    mu = 1.0
    box = PDE_BOXES["ts2"]
    rep = residual_ts_pde(2, mu, box)[0]
    # the residual tabulates the IG closed form; the Levy-tail convolution of
    # the tempered stable model checks it at the box's corners and centre
    xs = np.array([box.x0, box.x0, box.x1, box.x1, 0.5 * (box.x0 + box.x1)])
    ts = np.array([box.t0, box.t1, box.t0, box.t1, 0.5 * (box.t0 + box.t1)])
    closed = hit_pdf_table(xs, ts, ts_half_ig_params(mu))
    model = TemperedStableSubordinator(0.5, mu)
    conv = np.empty_like(xs)
    for t in sorted(set(ts.tolist())):
        at = ts == t
        conv[at] = hit_pdf_convolution(xs[at], t, model)
    oracle_rel = float(np.max(np.abs(closed - conv) / conv))
    return _pde_record("pde_ts_n2", "order-2 PDE of the tempered stable "
                       "hitting density (index 1/2)", rep,
                       extra_values={"closed_vs_convolution_max_rel": oracle_rel},
                       oracle_ok=oracle_rel <= 1e-8)


def _rec_pde_ts_n3_sign() -> VerificationRecord:
    rep, rep_flip = residual_ts_pde(3, 1.0, PDE_BOXES["ts3"])
    ok = (3.0 <= rep.refinement_ratio <= 5.0
          and rep.norms["max_rel"] < 0.05
          and rep_flip.norms["max_rel"] > 10.0 * rep.norms["max_rel"])
    return VerificationRecord(
        "pde_ts_n3_sign",
        "order-3 PDE of the tempered stable hitting density (index 1/3): "
        "printed sign convention converges, the flipped one does not",
        "confirmed" if ok else "failed", 0.05, rep.norms["max_rel"],
        {"printed_max_rel": rep.norms["max_rel"],
         "printed_ratio": rep.refinement_ratio,
         "flipped_max_rel": rep_flip.norms["max_rel"]})


def _rec_pde_pseudo_lt() -> VerificationRecord:
    rep_closed = residual_pseudo_lt(P11, *_PSEUDO_LT_GRIDS, source="closed")
    rep_num = residual_pseudo_lt(P11, [0.5, 1.0], [0.5, 0.9], source="numeric")
    ok = rep_closed.norms["max_abs"] < 1e-12 and rep_num.norms["max_abs"] < 1e-4
    return VerificationRecord(
        "pde_pseudo_lt",
        "first-order transform-space identity: exact on the closed form, "
        "near-zero on the numerically transformed density",
        "confirmed" if ok else "failed", 1e-4, rep_num.norms["max_abs"],
        {"closed_max_abs": rep_closed.norms["max_abs"],
         "numeric_max_abs": rep_num.norms["max_abs"],
         "numeric_ratio": rep_num.refinement_ratio})


def _frac_record(rec_id, claim, report) -> VerificationRecord:
    ok = 1.0 <= report.fitted_order <= 2.0 and report.norms["max_rel"] < 5e-2
    return VerificationRecord(
        rec_id, claim, "confirmed" if ok else "failed", 5e-2,
        report.norms["max_rel"],
        {"max_rel": report.norms["max_rel"], "fitted_order": report.fitted_order,
         "refinement_ratio": report.refinement_ratio})


def _rec_pde_frac_hitting() -> VerificationRecord:
    rep = residual_frac_hitting(PDE_BOXES["frac-hitting"])
    return _frac_record("pde_frac_hitting",
                        "half-order time-fractional identity of the driftless "
                        "hitting density", rep)


def _rec_pde_frac_ig() -> VerificationRecord:
    rep = residual_frac_ig(PDE_BOXES["frac-ig"])
    return _frac_record("pde_frac_ig",
                        "half-order space-fractional identity of the driftless "
                        "subordinator density", rep)


def _rec_pde_subordinated() -> VerificationRecord:
    rep = residual_subordinated(P11, PDE_BOXES["subordinated"])
    return _pde_record("pde_subordinated",
                       "fourth-order PDE of the Brownian-on-hitting-clock "
                       "density", rep)


def _rec_pde_frac_subordinated() -> VerificationRecord:
    rep = residual_subordinated_frac(PDE_BOXES["frac-subordinated"])
    return _frac_record("pde_frac_subordinated",
                        "half-order time-fractional PDE of the driftless "
                        "subordinated density", rep)


_BUILDERS = [
    _rec_density_two_routes,
    _rec_density_prefactor,
    _rec_mean_m1,
    _rec_second_moment_m2,
    _rec_moment_lt_numerator,
    _rec_lt_time_inversion,
    _rec_spatial_lt_prefactor,
    _rec_llt,
    _rec_boundary_value,
    _rec_boundary_slope,
    _rec_tail_bound,
    _rec_variance_large_t,
    _rec_nonlevy_witness,
    _rec_stable_hit_density,
    _rec_stable_hit_tail_rate,
    _rec_pde_hitting,
    _rec_pde_ig,
    _rec_pde_ts_n2,
    _rec_pde_ts_n3_sign,
    _rec_pde_pseudo_lt,
    _rec_pde_frac_hitting,
    _rec_pde_frac_ig,
    _rec_pde_subordinated,
    _rec_pde_frac_subordinated,
]


def builder_ids() -> list:
    return [b.__name__[5:] for b in _BUILDERS]


def run_verification(only: str | None = None) -> VerificationReport:
    """Run the oracle battery; `only` filters record ids by substring.

    An `only` that matches no id raises DomainError naming the valid ids.
    """
    ids = builder_ids()
    if only is not None and not any(only.lower() in rec_id.lower() for rec_id in ids):
        raise DomainError(f"{only!r} matches no record id; valid ids: {', '.join(ids)}")
    records = []
    for builder, rec_id in zip(_BUILDERS, ids):
        if only is not None and only.lower() not in rec_id.lower():
            continue
        start = time.perf_counter()
        try:
            record = builder()
        except (NonConvergence, NumericalInstability) as exc:
            # keep going: the report stays partial but is still written
            record = VerificationRecord(
                rec_id, "oracle evaluation aborted", "failed", math.nan,
                math.inf, {"error": f"{type(exc).__name__}: {exc}"})
        records.append(replace(record, elapsed=time.perf_counter() - start))
    return VerificationReport(tuple(records))
