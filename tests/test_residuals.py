import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ighit import residuals
from ighit.errors import DomainError
from ighit.hitting import (
    hit_lt_time,
    hit_pdf_table,
    printed_prefactor_ratio,
)
from ighit.numerics import erfcx
from ighit.residuals import (
    _LT_STEP,
    PDE_BOXES,
    GridBox,
    ResidualReport,
    caputo_derivative,
    residual_frac_hitting,
    residual_frac_ig,
    residual_hitting_pde,
    residual_ig_pde,
    residual_pseudo_lt,
    residual_subordinated,
    residual_subordinated_frac,
    residual_ts_pde,
    _numeric_lt,
)
from ighit.subordinators import IGParams, ig_pdf, ig_psi
from ighit.verification import _rec_llt, _rec_pde_ts_n3_sign


def _grid(lo, hi, h, margin):
    """lo + h j for j = -margin .. n + margin, n = round((hi - lo) / h): one
    axis of a check's box at step h with its stencil margin."""
    n = int(round((hi - lo) / h))
    return lo + h * np.arange(-margin, n + margin + 1)


def perturb(x, t, values):
    return values * (1.0 + 0.01 * x)


@pytest.fixture(scope="module")
def ts_n3_signs():
    """The order-3 residual on the verify record's box, both signs."""
    return residual_ts_pde(3, 1.0, GridBox(0.5, 1.0, 0.6, 1.0, 1 / 8, 1 / 8))


class TestCaputo:
    def test_constant_vanishes(self):
        ts = np.linspace(0.0, 1.0, 257)
        out = caputo_derivative(ts, np.full_like(ts, 3.7), 0.5)
        assert np.all(out == 0.0)

    def test_linear_function_exact(self):
        # the scheme integrates piecewise-linear inputs exactly:
        # half-derivative of t is 2 sqrt(t/pi)
        ts = np.linspace(0.0, 1.0, 513)
        out = caputo_derivative(ts, ts, 0.5)
        exact = 2.0 * np.sqrt(ts / math.pi)
        assert np.max(np.abs(out[1:] - exact[1:])) < 1e-13
        assert exact[-1] == pytest.approx(1.128379, abs=5e-7)

    def test_sqrt_gives_constant(self):
        # half-derivative of sqrt(t) is sqrt(pi)/2 everywhere; the endpoint
        # error of the scheme shrinks with the step
        target = math.sqrt(math.pi) / 2.0
        assert target == pytest.approx(0.886227, abs=5e-7)
        errs = []
        for n in (256, 512, 1024):
            ts = np.linspace(0.0, 1.0, n + 1)
            out = caputo_derivative(ts, np.sqrt(ts), 0.5)
            errs.append(abs(out[-1] - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-5

    def test_power_rule(self):
        # D^(1/2) t^2 = Gamma(3)/Gamma(5/2) t^(3/2)
        ts = np.linspace(0.0, 1.0, 2049)
        out = caputo_derivative(ts, ts ** 2, 0.5)
        exact = math.gamma(3.0) / math.gamma(2.5) * ts ** 1.5
        assert np.max(np.abs(out[1:] - exact[1:])) < 5e-5

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(DomainError):
            caputo_derivative(np.array([0.0, 0.1, 0.3]), np.zeros(3), 0.5)

    def test_order_bounds(self):
        ts = np.linspace(0.0, 1.0, 11)
        for alpha in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(DomainError):
                caputo_derivative(ts, ts, alpha)

    def test_vectorised_leading_axes(self):
        ts = np.linspace(0.0, 1.0, 65)
        grid = np.stack([ts, 2.0 * ts, ts ** 2])
        out = caputo_derivative(ts, grid, 0.5)
        single = caputo_derivative(ts, ts, 0.5)
        assert np.allclose(out[0], single)
        assert np.allclose(out[1], 2.0 * single)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 65, 129])
    def test_matches_indexed_toeplitz(self, n):
        # the L1 weights matrix built from index arrays, B[j, m] = b[m - j] on j <= m
        ts = np.linspace(0.0, 1.0, n + 1)
        vals = np.random.default_rng(n).standard_normal((3, n + 1))
        k = np.arange(n, dtype=float)
        b = (k + 1.0) ** 0.5 - k ** 0.5
        jj, mm = np.indices((n, n))
        B = np.where(jj <= mm, b[np.clip(mm - jj, 0, n - 1)], 0.0)
        ref = np.zeros_like(vals)
        ref[..., 1:] = (np.diff(vals, axis=-1) @ B) * (ts[1] - ts[0]) ** -0.5 / math.gamma(1.5)
        assert np.array_equal(caputo_derivative(ts, vals, 0.5), ref)


class TestResidualTables:
    @pytest.mark.parametrize("gamma,xs,ts", [
        # both levels of the pde_ig and pde_frac_ig records' grids
        (1.0, _grid(0.5, 2.5, 1 / 32, 1), _grid(0.5, 1.5, 1 / 32, 1)),
        (1.0, _grid(0.5, 2.5, 1 / 64, 1), _grid(0.5, 1.5, 1 / 64, 1)),
        (0.0, np.arange(1, 97) / 64, _grid(0.5, 1.0, 1 / 256, 1)),
        (0.0, np.arange(1, 193) / 128, _grid(0.5, 1.0, 1 / 256, 1)),
    ], ids=["ig", "ig_fine", "frac_ig", "frac_ig_fine"])
    def test_ig_table_matches_per_t_calls(self, gamma, xs, ts):
        params = IGParams(1.0, gamma)
        loop = np.stack([ig_pdf(xs, float(t), params) for t in ts], axis=1)
        assert np.array_equal(ig_pdf(xs[:, None], ts, params), loop)

    @pytest.mark.parametrize("field", ["x0", "x1", "t0", "t1", "dx", "dt"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_box_rejects_a_non_finite_field(self, field, bad):
        # dx = inf passed, x1 = inf read as a too fine step, and NaN failed later
        with pytest.raises(DomainError, match=f"^GridBox: {field} must be finite"):
            dataclasses.replace(PDE_BOXES["hitting"], **{field: bad})

    def test_ig_table_rejects_nonpositive_points(self):
        params = IGParams(1.0, 1.0)
        with pytest.raises(DomainError):
            ig_pdf(np.array([0.0, 1.0])[:, None], np.array([1.0]), params)
        with pytest.raises(DomainError):
            ig_pdf(np.array([1.0])[:, None], np.array([0.0, 1.0]), params)

    @pytest.mark.parametrize("dt", [1 / 64, 1 / 128], ids=["coarse", "fine"])
    def test_driftless_hitting_table_matches_general_form(self, dt):
        # both levels of the pde_frac_hitting record's grid; the general form's
        # erfcx term is 0 * erfcx(v/sqrt(2)) there
        d, g = 1.0, 0.0
        xs = _grid(0.25, 1.5, 1 / 256, 1)[:, None]
        ts = dt * np.arange(1, int(round(1.0 / dt)) + 1)[None, :]
        sq = np.sqrt(ts)
        a, v = (d * xs - g * ts) / sq, (d * xs + g * ts) / sq
        general = d * np.exp(-0.5 * a * a) * (np.sqrt(2.0 / (math.pi * ts))
                                              - g * erfcx(v / math.sqrt(2.0)))
        table = hit_pdf_table(xs, ts, IGParams(d, g))
        assert np.array_equal(table, general)


BOX_HIT = GridBox(0.4, 1.6, 0.5, 1.5, 1 / 24, 1 / 24)


class TestSecondOrderResiduals:
    def test_hitting_driftless_pure_discretisation(self, params_10):
        # the identity holds exactly for the closed-form density, so the
        # residual is entirely stencil error with second-order decay
        rep = residual_hitting_pde(params_10, GridBox(0.2, 3.0, 0.5, 2.0, 1 / 32, 1 / 32))
        assert 3.5 <= rep.refinement_ratio <= 4.5
        assert rep.norms["max_rel"] < 1e-3

    def test_hitting_with_drift(self, params_11):
        rep = residual_hitting_pde(params_11, BOX_HIT)
        assert 3.5 <= rep.refinement_ratio <= 4.5
        assert rep.norms["max_rel"] < 2e-3

    def test_hitting_literal_mode_does_not_converge(self, params_11):
        # the printed density is the true one times the prefactor ratio
        rep = residual_hitting_pde(params_11, BOX_HIT, perturb=lambda x, t, h: h *
                                   printed_prefactor_ratio(t, params_11))
        assert rep.refinement_ratio < 2.0
        assert rep.norms["max_rel"] > 0.05

    def test_ig_pde(self, params_11):
        rep = residual_ig_pde(params_11, GridBox(0.5, 2.5, 0.5, 1.5, 1 / 32, 1 / 32))
        assert 3.5 <= rep.refinement_ratio <= 4.5
        assert rep.norms["max_rel"] < 2e-3

    def test_ts_heat_kernel_case(self):
        # untempered half-index: the hitting density solves the plain heat
        # equation exactly
        rep = residual_ts_pde(2, 0.0, GridBox(0.3, 1.1, 0.6, 1.2, 1 / 16, 1 / 16))[0]
        assert 3.5 <= rep.refinement_ratio <= 4.5

    def test_ts_n2(self):
        rep = residual_ts_pde(2, 1.0, GridBox(0.4, 1.0, 0.7, 1.1, 1 / 16, 1 / 16))[0]
        assert 3.5 <= rep.refinement_ratio <= 4.5
        assert rep.norms["max_rel"] < 5e-3

    def test_ts_n3_sign_arbitration(self, ts_n3_signs):
        printed, flipped = ts_n3_signs
        assert 3.0 <= printed.refinement_ratio <= 5.0
        assert flipped.norms["max_rel"] > 10.0 * printed.norms["max_rel"]
        assert flipped.refinement_ratio < 1.5

    def test_ts_n3_record_matches_separate_calls(self, ts_n3_signs):
        # the verify record tabulates F once for both signs
        printed, flipped = ts_n3_signs
        assert printed.extra["sign"] == "as_printed" and flipped.extra["sign"] == "flipped"
        assert _rec_pde_ts_n3_sign().values == {
            "printed_max_rel": printed.norms["max_rel"],
            "printed_ratio": printed.refinement_ratio,
            "flipped_max_rel": flipped.norms["max_rel"]}

    def test_subordinated_fourth_order(self, params_11):
        rep = residual_subordinated(params_11, GridBox(0.3, 1.5, 0.5, 1.0, 1 / 24, 1 / 24))
        assert 3.5 <= rep.refinement_ratio <= 4.5
        assert rep.norms["max_rel"] < 2e-3

    def test_ts_invalid_order(self):
        with pytest.raises(DomainError):
            residual_ts_pde(4, 1.0, BOX_HIT)


class TestFractionalResiduals:
    def test_frac_hitting_order(self):
        rep = residual_frac_hitting(GridBox(0.25, 1.5, 0.3, 1.0, 1 / 256, 1 / 64))
        assert 1.0 <= rep.fitted_order <= 2.0
        assert rep.norms["max_rel"] < 1e-2

    def test_frac_ig_order(self):
        rep = residual_frac_ig(GridBox(0.3, 1.5, 0.5, 1.0, 1 / 64, 1 / 256))
        assert 1.0 <= rep.fitted_order <= 2.0
        assert rep.norms["max_rel"] < 1e-2

    def test_frac_subordinated_order(self):
        rep = residual_subordinated_frac(GridBox(0.25, 1.25, 0.3, 0.75, 1 / 192, 1 / 64))
        assert 1.0 <= rep.fitted_order <= 2.0
        assert rep.norms["max_rel"] < 5e-2


class TestPseudoTransformResidual:
    def test_closed_form_exact(self, params_11):
        rep = residual_pseudo_lt(params_11, [0.5, 1.0, 2.0], [0.3, 0.7, 1.1],
                                 source="closed")
        assert rep.norms["max_abs"] < 1e-12

    def test_closed_form_detects_wrong_exponent(self, params_11, monkeypatch):
        # a transform decaying at Psi(2s) in x breaks the identity; the check
        # must see it
        def wrong(x, s, params):
            return ig_psi(s, params) / s * np.exp(-x * ig_psi(2.0 * s, params))

        monkeypatch.setattr(residuals, "hit_lt_time", wrong)
        rep = residual_pseudo_lt(params_11, [0.5, 1.0, 2.0], [0.3, 0.7, 1.1],
                                 source="closed")
        assert rep.norms["max_abs"] > 1e-6

    def test_unknown_source_rejected(self, params_11):
        with pytest.raises(DomainError):
            residual_pseudo_lt(params_11, [0.5], [0.3], source="bogus")

    def test_numeric_transform_small(self, params_11):
        rep = residual_pseudo_lt(params_11, [0.5, 1.0], [0.5, 0.9], source="numeric")
        assert rep.norms["max_abs"] < 1e-4
        assert 3.0 <= rep.refinement_ratio <= 5.0

    # the (s, x) grids of the pde_pseudo_lt record and of `ighit pde-check --pde pseudo-lt`
    @pytest.mark.parametrize("s_grid,x_grid", [([0.5, 1.0], [0.5, 0.9]),
                                               ([0.5, 1.0, 2.0], [0.3, 0.7, 1.1])])
    @pytest.mark.parametrize("delta,gamma", [(1, 1), (1, 0), (5, 1), (0.2, 1), (1, 20), (1, 100)])
    def test_numeric_transform_matches_closed_form(self, s_grid, x_grid, delta, gamma):
        params = IGParams(float(delta), float(gamma))
        s = np.array(s_grid)
        x = np.array(x_grid)
        # the one table the residual takes: the grid and its shifts by both steps
        xs = np.concatenate([x + shift for shift in
                             (0.0, _LT_STEP, -_LT_STEP, _LT_STEP / 2, -_LT_STEP / 2)])
        numeric = _numeric_lt(params, xs, s)
        closed = np.array([[hit_lt_time(float(xv), float(sv), params) for sv in s]
                           for xv in xs])
        assert np.allclose(numeric, closed, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("source", ["closed", "numeric"])
    def test_empty_grids_rejected(self, params_11, source):
        with pytest.raises(DomainError, match="s_grid"):
            residual_pseudo_lt(params_11, [], [0.5], source=source)
        with pytest.raises(DomainError, match="x_grid"):
            residual_pseudo_lt(params_11, [0.5], [], source=source)

    @pytest.mark.parametrize("x", [0.005, _LT_STEP, -0.2])
    def test_numeric_x_below_step_rejected(self, params_11, x):
        with pytest.raises(DomainError, match="x_grid"):
            residual_pseudo_lt(params_11, [0.5], [0.5, x], source="numeric")

    def test_transforms_need_no_adaptive_quadrature(self, params_11, monkeypatch):
        # the numeric check and the llt record run on integrate_ladder alone
        import ighit.hitting
        import ighit.numerics
        import ighit.residuals
        import ighit.verification

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        for module in (ighit.numerics, ighit.hitting, ighit.residuals, ighit.verification):
            for name in ("integrate_interval", "integrate_semi_infinite"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        rep = residual_pseudo_lt(params_11, [0.5, 1.0], [0.5, 0.9], source="numeric")
        assert rep.norms["max_abs"] < 1e-4
        assert 3.0 <= rep.refinement_ratio <= 5.0
        rec = _rec_llt()
        assert rec.verdict == "confirmed" and rec.discrepancy < 1e-14


P11 = IGParams(1.0, 1.0)
# each grid check and the numeric transform check, with the table function
# of `residuals` that it calls
TABLED_CHECKS = {
    "hitting": ("hit_pdf_table", lambda: residual_hitting_pde(P11, PDE_BOXES["hitting"])),
    "ig": ("ig_pdf", lambda: residual_ig_pde(P11, PDE_BOXES["ig"])),
    "ts2": ("ts_hit_pdf_table", lambda: residual_ts_pde(2, 1.0, PDE_BOXES["ts2"])),
    "ts3": ("ts_hit_pdf_table", lambda: residual_ts_pde(3, 1.0, PDE_BOXES["ts3"])),
    "subordinated": ("sub_pdf_table",
                     lambda: residual_subordinated(P11, PDE_BOXES["subordinated"])),
    "frac-hitting": ("hit_pdf_table", lambda: residual_frac_hitting(PDE_BOXES["frac-hitting"])),
    "frac-ig": ("ig_pdf", lambda: residual_frac_ig(PDE_BOXES["frac-ig"])),
    "frac-subordinated": ("sub_pdf_table",
                          lambda: residual_subordinated_frac(PDE_BOXES["frac-subordinated"])),
    "pseudo-lt": ("_numeric_lt", lambda: residual_pseudo_lt(
        P11, [0.5, 1.0], [0.5, 0.9], source="numeric")),
}


def _pde_per_level(table, box, terms, perturb, label, extra, signs=(1.0,)):
    """`residuals._pde` with each level tabulated on its own grid, from 0 on a
    Caputo axis and with the level's own margin on the others."""
    frac = next((a for _, a, k in terms if k == residuals._HALF), None)
    margin = [max((residuals._STENCILS[k][1] for _, a, k in terms if a == axis), default=0)
              for axis in (0, 1)]
    lo, hi = (box.x0, box.t0), (box.x1, box.t1)

    def run(steps):
        grids = [_grid(0.0 if a == frac else lo[a], hi[a], steps[a], margin[a])
                 for a in (0, 1)]
        F = table(*(g[1:] if a == frac else g for a, g in enumerate(grids)))
        if frac is not None:
            F = np.insert(F, 0, 0.0, axis=frac)
        F = residuals._perturbed(perturb, *grids, F)
        keep = [(int(np.searchsorted(g, lo[a] - 1e-12)), g.size) if a == frac
                else (margin[a], g.size - margin[a]) for a, g in enumerate(grids)]
        scaled = []
        for c, axis, k in terms:
            stencil, half = residuals._STENCILS[k]
            cut = tuple(slice(b - half * (a == axis), e - half * (a == axis))
                        for a, (b, e) in enumerate(keep))
            scaled.append((axis, c * stencil(F, steps[axis], axis)[cut]))
        xs, ts = (g[b:e] for g, (b, e) in zip(grids, keep))
        signed = ([sign * P if axis == 1 else P for axis, P in scaled] for sign in signs)
        return [residuals._level(xs, ts, sum(parts[1:], parts[0]), parts, steps)
                for parts in signed]

    coarse = (box.dx, box.dt)
    fine = tuple(h / 2 if frac in (None, a) else h for a, h in enumerate(coarse))
    return tuple(residuals._report(pair, label, extra) for pair in zip(run(coarse), run(fine)))


def _reports(check):
    out = check()
    return out if isinstance(out, tuple) else (out,)


class TestOneTabulation:
    """Each check tabulates once; its coarse level is a slice of the fine table."""

    @pytest.mark.parametrize("name", list(TABLED_CHECKS))
    def test_one_table_call_per_check(self, name, monkeypatch):
        function, check = TABLED_CHECKS[name]
        calls = []
        table = getattr(residuals, function)

        def counted(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(residuals, function, counted)
        reports = _reports(check)
        assert len(calls) == 1
        assert len(reports) == (2 if name in ("ts2", "ts3") else 1)

    @pytest.mark.parametrize("name", ["ts3", "subordinated"])
    def test_layer_grids_are_the_record_tables(self, name, monkeypatch):
        # scripts/bench_layers.py times these two tables as the records make them
        spec = importlib.util.spec_from_file_location(
            "bench_layers", Path(__file__).resolve().parents[1] / "scripts/bench_layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        function, check = TABLED_CHECKS[name]
        calls = []
        table = getattr(residuals, function)
        monkeypatch.setattr(residuals, function, lambda *args: calls.append(args) or table(*args))
        check()
        xs, ts = layers.pde_grids(np)[name]
        assert np.array_equal(calls[0][0], xs) and np.array_equal(calls[0][1], ts)

    # the closed-form checks on their record boxes, the literal control, and
    # boxes whose fine step count is below twice the coarse one (6.6 coarse
    # steps: 7 coarse, 13 fine), on an integer-order and on a Caputo axis
    CLOSED_FORM = {
        "hitting": lambda: residual_hitting_pde(P11, PDE_BOXES["hitting"]),
        "hitting_literal": lambda: residual_hitting_pde(
            P11, PDE_BOXES["hitting"],
            perturb=lambda x, t, h: h * printed_prefactor_ratio(t, P11)),
        "ig": lambda: residual_ig_pde(P11, PDE_BOXES["ig"]),
        "ts2": lambda: residual_ts_pde(2, 1.0, PDE_BOXES["ts2"]),
        "frac-hitting": lambda: residual_frac_hitting(PDE_BOXES["frac-hitting"]),
        "frac-ig": lambda: residual_frac_ig(PDE_BOXES["frac-ig"]),
        "hitting_short_edge": lambda: residual_hitting_pde(
            P11, GridBox(0.4, 1.06, 0.5, 1.16, 0.1, 0.1)),
        "frac-hitting_short_edge": lambda: residual_frac_hitting(
            GridBox(0.25, 1.0, 0.3, 0.66, 1 / 64, 0.1)),
    }

    @pytest.mark.parametrize("name", list(CLOSED_FORM))
    def test_closed_form_reports_equal_a_table_per_level(self, name, monkeypatch):
        check = self.CLOSED_FORM[name]
        sliced = _reports(check)
        monkeypatch.setattr(residuals, "_pde", _pde_per_level)
        for got, ref in zip(sliced, _reports(check), strict=True):
            assert np.array_equal(got.x, ref.x) and np.array_equal(got.t, ref.t)
            assert np.array_equal(got.residuals, ref.residuals)
            assert got.norms == ref.norms and got.steps == ref.steps
            assert got.refinement_ratio == ref.refinement_ratio
            assert got.label == ref.label and got.extra == ref.extra

    @pytest.mark.parametrize("name", ["ts3", "subordinated", "frac-subordinated"])
    def test_shared_rule_reports_near_a_table_per_level(self, name, monkeypatch):
        # these tables share one quadrature rule over their grid, which the
        # union of both levels' points moves: by 1.2e-7 of the ratio at most
        check = TABLED_CHECKS[name][1]
        sliced = _reports(check)
        monkeypatch.setattr(residuals, "_pde", _pde_per_level)
        for got, ref in zip(sliced, _reports(check), strict=True):
            assert np.array_equal(got.x, ref.x) and np.array_equal(got.t, ref.t)
            assert got.refinement_ratio == pytest.approx(ref.refinement_ratio, rel=1e-6)
            for key in ("max_abs", "rms", "scale"):
                assert got.norms[key] == pytest.approx(ref.norms[key], rel=1e-6)


class TestNegativeControlsAndDeterminism:
    @pytest.mark.parametrize("op", ["hitting", "ig", "ts2", "subordinated",
                                    "frac_hitting", "frac_ig"])
    def test_perturbed_density_detected(self, op, params_11):
        small = {
            "hitting": lambda **kw: residual_hitting_pde(
                params_11, GridBox(0.5, 1.1, 0.6, 1.2, 1 / 32, 1 / 32), **kw),
            "ig": lambda **kw: residual_ig_pde(
                params_11, GridBox(0.6, 1.8, 0.6, 1.2, 1 / 48, 1 / 48), **kw),
            "ts2": lambda **kw: residual_ts_pde(
                2, 1.0, GridBox(0.2, 0.8, 0.7, 1.0, 1 / 48, 1 / 48), **kw)[0],
            "subordinated": lambda **kw: residual_subordinated(
                params_11, GridBox(0.4, 1.0, 0.6, 0.9, 1 / 24, 1 / 24), **kw),
            "frac_hitting": lambda **kw: residual_frac_hitting(
                GridBox(0.3, 1.0, 0.4, 0.8, 1 / 128, 1 / 128), **kw),
            "frac_ig": lambda **kw: residual_frac_ig(
                GridBox(0.4, 1.2, 0.6, 1.0, 1 / 256, 1 / 128), **kw),
        }[op]
        clean = small()
        dirty = small(perturb=perturb)
        assert dirty.norms["max_abs"] > 10.0 * clean.norms["max_abs"]

    def test_box_refuses_too_fine_a_step(self):
        assert GridBox(0.5, 1.0, -1.0, -0.5, 1 / 1024, 1 / 1024).dt == 1 / 1024
        with pytest.raises(DomainError, match="step dx"):
            GridBox(0.5, 1.0, 0.5, 1.0, 1 / 2048, 1 / 1024)
        with pytest.raises(DomainError, match="step dt"):
            GridBox(0.5, 1.0, -1.0, -0.5, 1 / 1024, 1 / 2048)

    def test_reports_deterministic(self, params_11):
        box = GridBox(0.5, 1.1, 0.6, 1.2, 1 / 16, 1 / 16)
        a = residual_hitting_pde(params_11, box)
        b = residual_hitting_pde(params_11, box)
        assert np.array_equal(a.residuals, b.residuals)
        assert a.norms == b.norms

    def test_report_serialisation(self, params_11, tmp_path):
        rep = residual_hitting_pde(params_11, GridBox(0.5, 1.1, 0.6, 1.2, 1 / 16, 1 / 16))
        rep.to_json(tmp_path / "r.json")
        rep.to_csv(tmp_path / "r.csv")
        assert isinstance(rep, ResidualReport)
        text = (tmp_path / "r.csv").read_text()
        assert text.startswith("x,t,residual\n")
        import json
        obj = json.loads((tmp_path / "r.json").read_text())
        assert "refinement_ratio" in obj and "norms" in obj
