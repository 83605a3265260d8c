import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ighit import cli
from ighit.cli import build_parser, grid_spec, main
from ighit.hitting import (
    hit_llt,
    hit_lt_space_closed,
    hit_lt_time,
    hit_pdf_table,
    printed_prefactor_ratio,
)
from ighit.residuals import (
    PDE_BOXES,
    GridBox,
    residual_frac_hitting,
    residual_hitting_pde,
    residual_pseudo_lt,
    residual_ts_pde,
)
from ighit.subordinators import IGParams
from ighit.tables import format_float, json_dumps, write_csv


def run_in(tmp_path, argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(argv)
    finally:
        os.chdir(cwd)


def run_module(tmp_path, argv, flags=()):
    """`python [flags] -m ighit argv` in tmp_path, with this checkout's src/ first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    return subprocess.run([sys.executable, *flags, "-m", "ighit", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(cell)
    return cols


class TestTables:
    def test_float_roundtrip_exact(self):
        for x in (1.0, math.pi, 1e-300, 123456.789, 2.0 / 3.0):
            assert float(format_float(x)) == x

    def test_csv_lf_endings(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a", "b"], [(1.0, 2.0)])
        raw = f.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_sorted_keys(self):
        assert json_dumps({"b": 1, "a": 2}).index('"a"') < json_dumps({"b": 1, "a": 2}).index('"b"')


class TestDensityCommand:
    def test_driftless_matches_closed_form(self, tmp_path):
        assert run_in(tmp_path, ["density", "--delta", "1", "--gamma", "0",
                                 "--t", "1", "--x", "0:3:0.1"]) == 0
        cols = read_csv(tmp_path / "density.csv")
        xs = np.array([float(v) for v in cols["x"]])
        dens = np.array([float(v) for v in cols["hitting_density"]])
        closed = np.sqrt(2.0 / math.pi) * np.exp(-xs ** 2 / 2.0)
        assert np.max(np.abs(dens - closed)) < 1e-9

    def test_small_gamma_table(self, tmp_path):
        assert run_in(tmp_path, ["density", "--delta", "1", "--gamma", "0.001",
                                 "--t", "1", "--x", "0:3:0.5"]) == 0
        cols = read_csv(tmp_path / "density.csv")
        assert float(cols["x"][2]) == 1.0
        # running maximum of W_s + 0.001 s at 1, in 30-digit arithmetic
        assert float(cols["hitting_density"][2]) == pytest.approx(0.48410792922989326,
                                                                  rel=1e-12)

    def test_json_format(self, tmp_path):
        assert run_in(tmp_path, ["density", "--t", "1", "--x", "0:1:0.5",
                                 "--format", "json", "--out", "d.json"]) == 0
        obj = json.loads((tmp_path / "d.json").read_text())
        assert obj["meta"]["command"] == "density"
        assert len(obj["x"]) == 3

    def test_literal_mode_is_the_true_density_times_the_ratio(self, tmp_path):
        assert run_in(tmp_path, ["density", "--gamma", "1.5", "--t", "2.5",
                                 "--mode", "literal"]) == 0
        cols = read_csv(tmp_path / "density.csv")
        xs = np.array([float(v) for v in cols["x"]])
        dens = np.array([float(v) for v in cols["hitting_density"]])
        params = IGParams(1.0, 1.5)
        expected = hit_pdf_table(xs, 2.5, params) * printed_prefactor_ratio(2.5, params)
        assert np.array_equal(dens, expected)


class TestMomentsCommand:
    def test_closed_forms(self, tmp_path, params_11):
        from ighit.hitting import hit_mean, hit_second_moment
        assert run_in(tmp_path, ["moments", "--delta", "1", "--gamma", "1",
                                 "--t", "1", "--q", "1,2"]) == 0
        cols = read_csv(tmp_path / "moments.csv")
        vals = [float(v) for v in cols["moment"]]
        assert vals[0] == pytest.approx(hit_mean(1.0, params_11), rel=1e-15)
        assert vals[1] == pytest.approx(hit_second_moment(1.0, params_11), rel=1e-15)


class TestPathsCommand:
    def test_byte_identical_under_seed(self, tmp_path):
        args = ["paths", "--delta", "1", "--gamma", "1", "--T", "2",
                "--dt", "0.01", "--seed", "42", "--svg"]
        assert run_in(tmp_path, args + ["--out", "a"]) == 0
        assert run_in(tmp_path, args + ["--out", "b"]) == 0
        for suffix in ("_g.csv", "_h.csv", ".svg"):
            assert (tmp_path / f"a{suffix}").read_bytes() == \
                (tmp_path / f"b{suffix}").read_bytes()

    def test_path_structure(self, tmp_path):
        assert run_in(tmp_path, ["paths", "--delta", "1", "--gamma", "1",
                                 "--T", "2", "--dt", "0.01", "--seed", "7"]) == 0
        g = read_csv(tmp_path / "paths_g.csv")
        h = read_csv(tmp_path / "paths_h.csv")
        g_vals = np.array([float(v) for v in g["value"]])
        h_vals = np.array([float(v) for v in h["value"]])
        assert np.all(np.diff(g_vals) > 0)
        assert np.all(np.diff(h_vals) >= 0)

    def test_step_above_horizon_is_usage_error(self, tmp_path, capsys):
        assert run_in(tmp_path, ["paths", "--T", "1", "--dt", "2"]) == 2
        assert "dt <= horizon" in capsys.readouterr().err
        assert not (tmp_path / "paths_h.csv").exists()

    def test_overflowing_step_count_is_usage_error(self, tmp_path, capsys):
        # T / dt is inf, which has no integer step count
        assert run_in(tmp_path, ["paths", "--T", "1e300", "--dt", "1e-300"]) == 2
        assert "must not exceed 10000000 steps" in capsys.readouterr().err
        assert not (tmp_path / "paths_h.csv").exists()

    @pytest.mark.parametrize("gamma", ["1", "0"], ids=["drift", "driftless"])
    def test_overflowing_draw_scale_is_usage_error(self, tmp_path, capsys, gamma):
        # an IG(1e199, gamma) draw's scale, (1e199 / gamma)^2 or 1e199^2, overflows
        assert run_in(tmp_path, ["paths", "--T", "1e200", "--dt", "1e199",
                                 "--gamma", gamma]) == 2
        assert "of the draws overflows" in capsys.readouterr().err
        assert not (tmp_path / "paths_h.csv").exists()


class TestExitCodes:
    def test_usage_error_on_bad_flag_value(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, ["paths", "--dt", "0"])
        assert exc.value.code == 2

    def test_usage_error_on_unknown_command(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, ["frobnicate"])
        assert exc.value.code == 2

    def test_usage_error_on_domain_violation(self, tmp_path):
        # the flags parse, but mu < 0 is outside the transform's domain
        code = run_in(tmp_path, ["lt", "--which", "space", "--delta", "1",
                                 "--gamma", "1", "--mu=-0.5"])
        assert code == 2

    def test_moment_order_not_finite_is_usage_error(self, tmp_path):
        assert run_in(tmp_path, ["moments", "--q", "nan"]) == 2
        assert run_in(tmp_path, ["moments", "--q", "inf"]) == 2

    def test_moment_order_overflowing_gamma_is_numeric_failure(self, tmp_path):
        assert run_in(tmp_path, ["moments", "--q", "1e308"]) == 3

    @pytest.mark.parametrize("grid", ["0:inf:0.1", "-inf:1:0.1", "0:1:inf", "0:nan:0.1"])
    def test_non_finite_grid_is_usage_error(self, tmp_path, grid):
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, ["density", "--t", "1", "--x", grid])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["density", "--t", "1", "--x", "0:1e300:1e-300"],
                                      ["stable", "--tail", "8:1e300:1e-300"]],
                             ids=["density", "stable"])
    def test_overflowing_grid_count_is_usage_error(self, tmp_path, argv, capsys):
        # the point count is inf, which has no integer value
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, argv)
        assert exc.value.code == 2
        assert "takes over 10000000 steps" in capsys.readouterr().err

    def test_space_transform_at_defaults(self, tmp_path):
        # mu = 1 = delta*gamma, where z1 = 0 and the transform is erfc(1/sqrt(2))
        assert run_in(tmp_path, ["lt", "--which", "space"]) == 0
        cols = read_csv(tmp_path / "lt.csv")
        assert [float(v) for v in cols["mu"]] == [1.0, 2.0]
        assert float(cols["lt_space"][0]) == pytest.approx(
            math.erfc(1.0 / math.sqrt(2.0)), rel=1e-15)

    def test_space_transform_where_the_decay_underflows(self, tmp_path):
        # e^(-gamma^2 t/2) underflows at t = 1e300; mu = 2 = 2 delta gamma wrote NaN
        assert run_in(tmp_path, ["lt", "--which", "space", "--t", "1e300"]) == 0
        assert read_csv(tmp_path / "lt.csv")["lt_space"] == ["0", "0"]

    @pytest.mark.parametrize("argv", [["--t", "1e-300"], ["--t", "1", "--gamma", "1e300"]],
                             ids=["envelope_underflows", "envelope_overflows"])
    def test_tail_with_a_non_finite_envelope_is_numeric_failure(self, tmp_path, argv, capsys):
        # the envelope e^(dg x - x^2/4t)/x is 0 or inf on the grid: the bounds were NaN
        with np.errstate(over="ignore"):
            assert run_in(tmp_path, ["tail", *argv]) == 3
        assert "envelope" in capsys.readouterr().err
        assert not (tmp_path / "tail.csv").exists()

    def test_tail_with_an_underflowing_survival_is_numeric_failure(self, tmp_path):
        # delta = 1000: every survival on the grid is 0, which wrote a fit of 0s
        out = run_module(tmp_path, ["tail", "--delta", "1000", "--gamma", "0.001", "--t", "1"])
        assert out.returncode == 3
        assert out.stderr.splitlines() == [
            "ighit: numeric failure: NumericalInstability: ig_hitting: the survival "
            "underflows on the grid"]
        assert not (tmp_path / "tail.csv").exists()

    def test_overflowing_envelope_prints_only_the_failure(self, tmp_path):
        # numpy's overflow warning came before the exit-3 message
        out = run_module(tmp_path, ["tail", "--t", "1", "--gamma", "1e300"])
        assert out.returncode == 3
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("ighit: numeric failure")

    def test_unknown_flag_is_hard_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, ["density", "--t", "1", "--bogus", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--seed", "1"], ["verify", "--format", "json"],
        ["pde-check", "--pde", "ig", "--format", "json"], ["paths", "--format", "json"]],
        ids=["verify_seed", "verify_format", "pde_check_format", "paths_format"])
    def test_flags_without_effect_are_unknown(self, tmp_path, argv):
        # verify draws no random numbers, and these commands each write one
        # fixed format
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, argv)
        assert exc.value.code == 2

    # every subcommand with the arguments it requires
    SUBCOMMANDS = {"density": ["--t", "1"], "cdf": ["--t", "1"], "moments": [],
                   "tail": ["--t", "1"], "lt": [], "paths": [], "subordinated": [],
                   "stable": [], "pde-check": ["--pde", "hitting"], "verify": []}

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    @pytest.mark.parametrize("flag, value", [
        ("--abs-tol", "1e-9"), ("--rel-tol", "1e-7"), ("--ilt-terms", "18"),
        ("--ilt-method", "gaver_stehfest")])
    def test_tolerance_flags_are_unknown(self, tmp_path, command, flag, value):
        # every command runs at the package default tolerances; there is no tolerance flag
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, [command, *self.SUBCOMMANDS[command], flag, value])
        assert exc.value.code == 2

    def test_profile_variable_is_ignored(self, tmp_path, monkeypatch):
        argv = ["density", "--t", "1", "--x", "0:1:0.5", "--out"]
        assert run_in(tmp_path, argv + ["plain.csv"]) == 0
        monkeypatch.setenv("IGHIT_PROFILE", "bogus")
        assert run_in(tmp_path, argv + ["profiled.csv"]) == 0
        assert (tmp_path / "plain.csv").read_bytes() == \
            (tmp_path / "profiled.csv").read_bytes()

    def test_help_lists_flags(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, ["density", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--delta", "--gamma", "--t", "--x", "--mode", "--out",
                     "--format"):
            assert flag in out


class TestStableCommand:
    def test_density_and_tail_report(self, tmp_path):
        assert run_in(tmp_path, ["stable", "--beta", "0.5", "--t", "1",
                                 "--tail", "8:16:0.5"]) == 0
        cols = read_csv(tmp_path / "stable.csv")
        x0 = float(cols["x"][0])
        d0 = float(cols["stable_hitting_density"][0])
        assert d0 == pytest.approx(math.exp(-x0 * x0 / 4.0) / math.sqrt(math.pi),
                                   rel=1e-10)
        tail = json.loads((tmp_path / "stable_tail.json").read_text())
        assert tail["rate_n"] == pytest.approx(0.25)

    def test_general_index_at_default_grid(self, tmp_path):
        # the default grid reaches the onset of the stable density (x = 4
        # maps to u = 4^(-1/0.7) = 0.14), where an inversion route failed
        from ighit.hitting import stable_hit_pdf
        assert run_in(tmp_path, ["stable", "--beta", "0.7"]) == 0
        cols = read_csv(tmp_path / "stable.csv")
        xs = np.array([float(v) for v in cols["x"]])
        dens = np.array([float(v) for v in cols["stable_hitting_density"]])
        assert xs.size == 80 and xs[-1] == 4.0
        assert np.array_equal(dens, stable_hit_pdf(xs, 1.0, 0.7))
        assert np.all(dens > 0)

    def test_near_index_one_prints_no_warning(self, tmp_path):
        # numpy's "overflow encountered in power" from Kanter's rule went to stderr
        out = run_module(tmp_path, ["stable", "--beta", "0.9999"], flags=["-W", "error"])
        assert out.returncode == 0
        assert out.stderr == ""

    @pytest.mark.parametrize("beta", ["0.5", repr(1.0 / 3.0)], ids=["half", "third"])
    def test_tiny_time_writes_zeros(self, tmp_path, beta):
        # every row was NaN, with exit 0 and numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_in(tmp_path, ["stable", "--beta", beta, "--t", "1e-300"]) == 0
        assert read_csv(tmp_path / "stable.csv")["stable_hitting_density"] == ["0"] * 80


class TestSubordinatedCommand:
    def test_density_and_path(self, tmp_path):
        assert run_in(tmp_path, ["subordinated", "--delta", "1", "--gamma", "1",
                                 "--t", "1", "--x=-2:2:0.5", "--with-path",
                                 "--dt", "0.03125"]) == 0
        cols = read_csv(tmp_path / "subordinated.csv")
        dens = [float(v) for v in cols["subordinated_density"]]
        assert dens[0] == pytest.approx(dens[-1], rel=1e-10)  # even in x
        assert (tmp_path / "subordinated_path.csv").exists()

    def test_negative_grid_start_with_space(self, tmp_path):
        args = ["subordinated", "--t", "1", "--with-path", "--dt", "0.03125"]
        assert run_in(tmp_path, args + ["--x", "-2:2:0.5", "--out", "a"]) == 0
        assert run_in(tmp_path, args + ["--x=-2:2:0.5", "--out", "b"]) == 0
        for a, b in (("a", "b"), ("a_path.csv", "b_path.csv")):
            assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
        assert (tmp_path / "a").read_text().count("\n") == 10  # header and 9 grid points


@pytest.mark.parametrize("argv,flag", [
    (["density", "--t", "1"], "x"),
    (["cdf", "--t", "1"], "x"),
    (["tail", "--t", "1"], "x"),
    (["subordinated"], "x"),
    (["stable"], "x"),
    (["stable"], "tail"),
], ids=["density_x", "cdf_x", "tail_x", "subordinated_x", "stable_x", "stable_tail"])
def test_every_grid_flag_takes_a_negative_start_after_a_space(argv, flag):
    for grid in ("-2:2:0.5", "-.5:1:0.5", "-1e-1:1:0.1"):
        args = build_parser().parse_args(argv + [f"--{flag}", grid])
        assert np.array_equal(getattr(args, flag), grid_spec(grid))


def _parse_outcome(parse, argv, capsys):
    """Exit code, standard output and standard error of parsing argv."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


class TestParserStartup:
    """`main` builds the subparser of the command it runs, or all of them."""

    # argv, exit code and a line that the output holds
    CASES = {
        "help": (["-h"], 0, "{density,cdf,moments,tail,lt,paths,subordinated,stable,pde-check,"
                            "verify}"),
        "command_help": (["density", "-h"], 0, "usage: ighit density [-h]"),
        "unknown_command": (["foo"], 2, "ighit: error: argument command: invalid choice: "
                                        "'foo' (choose from 'density', 'cdf'"),
        "missing_t": (["density"], 2, "ighit density: error: the following arguments are "
                                      "required: --t"),
        "extra_argument": (["density", "--t", "1", "extra"], 2,
                           "ighit: error: unrecognized arguments: extra"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_output_as_from_the_full_parser(self, name, capsys):
        argv, code, line = self.CASES[name]
        lazy = _parse_outcome(main, argv, capsys)
        full = _parse_outcome(build_parser().parse_args, argv, capsys)
        assert lazy == full and lazy[0] == code
        assert line in (lazy[1] if code == 0 else lazy[2])

    @pytest.mark.parametrize("argv,built", [
        (["verify", "--only", "nothing-matches"], ["verify"]),
        (["-h"], list(cli._COMMANDS)),
        (["foo"], list(cli._COMMANDS)),
    ], ids=["command", "help", "unknown"])
    def test_builds_only_the_named_command(self, argv, built, monkeypatch, capsys, tmp_path):
        added = []
        monkeypatch.setattr(cli, "_COMMANDS", {
            name: (text, lambda p, add=add, name=name: (added.append(name), add(p)))
            for name, (text, add) in cli._COMMANDS.items()})
        try:
            run_in(tmp_path, argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert added == built


class TestLtCommand:
    """Each transform flag reaches the library call: the file is that call's table."""

    @pytest.mark.parametrize("argv, column, expected", [
        (["--which", "time", "--x", "0.4", "--s", "0.25,3"], "s",
         lambda p: ([0.25, 3.0], hit_lt_time(0.4, [0.25, 3.0], p))),
        (["--which", "llt", "--u", "2.5", "--s", "0,0.75"], "s",
         lambda p: ([0.0, 0.75], hit_llt(2.5, [0.0, 0.75], p))),
        (["--which", "space", "--t", "0.6", "--mu", "0,0.3,5"], "mu",
         lambda p: ([0.0, 0.3, 5.0], hit_lt_space_closed(np.array([0.0, 0.3, 5.0]), 0.6, p))),
    ], ids=["time_s", "llt_u_s", "space_mu"])
    def test_flags_reach_the_transform(self, tmp_path, argv, column, expected):
        assert run_in(tmp_path, ["lt", "--delta", "1.5", "--gamma", "0.5", *argv]) == 0
        args, values = expected(IGParams(1.5, 0.5))
        name = {"time": "lt_time", "llt": "llt", "space": "lt_space"}[argv[1]]
        write_csv(tmp_path / "expected.csv", [column, name], zip(args, values))
        assert (tmp_path / "lt.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestPdeCheckCommand:
    @pytest.mark.parametrize("pde", ["hitting", "pseudo-lt"])
    def test_residual_csv_is_the_reports_table(self, tmp_path, pde):
        assert run_in(tmp_path, ["pde-check", "--pde", pde, "--residual-csv", "res.csv"]) == 0
        params = IGParams(1.0, 1.0)
        rep = residual_hitting_pde(params, PDE_BOXES["hitting"]) if pde == "hitting" else \
            residual_pseudo_lt(params, [0.5, 1.0, 2.0], [0.3, 0.7, 1.1])
        rep.to_csv(tmp_path / "expected.csv")
        assert (tmp_path / "res.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert len(read_csv(tmp_path / "res.csv")["residual"]) == rep.residuals.size

    def test_report_written(self, tmp_path):
        assert run_in(tmp_path, ["pde-check", "--pde", "ig", "--delta", "1",
                                 "--gamma", "1"]) == 0
        obj = json.loads((tmp_path / "pde_ig.json").read_text())
        assert 3.5 <= obj["refinement_ratio"] <= 4.5
        assert obj["norms"]["max_rel"] < 2e-3

    def test_hitting_literal_mode(self, tmp_path):
        assert run_in(tmp_path, ["pde-check", "--pde", "hitting", "--mode", "literal"]) == 0
        # the printed density, the true one times the prefactor ratio, with
        # the mode in the report
        params = IGParams(1.0, 1.0)
        rep = residual_hitting_pde(params, PDE_BOXES["hitting"], perturb=lambda x, t, h: h *
                                   printed_prefactor_ratio(t, params))
        replace(rep, extra={**rep.extra, "mode": "literal"}).to_json(tmp_path / "expected.json")
        assert (tmp_path / "pde_hitting.json").read_bytes() == \
            (tmp_path / "expected.json").read_bytes()

    def test_dt_alone_replaces_the_time_step(self, tmp_path):
        assert run_in(tmp_path, ["pde-check", "--pde", "frac-hitting", "--dt", "0.0078125"]) == 0
        box = PDE_BOXES["frac-hitting"]
        residual_frac_hitting(GridBox(box.x0, box.x1, box.t0, box.t1, box.dx, 0.0078125)) \
            .to_json(tmp_path / "expected.json")
        residual_frac_hitting(box).to_json(tmp_path / "default.json")
        written = (tmp_path / "pde_frac_hitting.json").read_bytes()
        assert written == (tmp_path / "expected.json").read_bytes()
        assert written != (tmp_path / "default.json").read_bytes()

    def test_dx_alone_sets_both_steps(self, tmp_path):
        assert run_in(tmp_path, ["pde-check", "--pde", "ts2", "--dx", "0.03125"]) == 0
        box = PDE_BOXES["ts2"]
        residual_ts_pde(2, 1.0, GridBox(box.x0, box.x1, box.t0, box.t1, 0.03125, 0.03125))[0] \
            .to_json(tmp_path / "expected.json")
        assert (tmp_path / "pde_ts2.json").read_bytes() == \
            (tmp_path / "expected.json").read_bytes()

    @pytest.mark.parametrize("pde, flag", [("hitting", "--dx"), ("frac-hitting", "--dt")])
    def test_too_fine_step_is_usage_error(self, tmp_path, pde, flag, capsys):
        # the grid would take about 1e9 points; the box refuses the step first
        assert run_in(tmp_path, ["pde-check", "--pde", pde, flag, "1e-9"]) == 2
        assert f"step {flag[2:]} = 1e-09 is too fine (over 1024 steps)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dx", "--dt"])
    def test_steps_on_pseudo_lt_are_usage_errors(self, tmp_path, flag, capsys):
        assert run_in(tmp_path, ["pde-check", "--pde", "pseudo-lt", flag, "0.01"]) == 2
        assert "--dx and --dt do not apply" in capsys.readouterr().err
        assert not (tmp_path / "pde_pseudo_lt.json").exists()

    @pytest.mark.parametrize("levels", ["1", "2"])
    def test_refine_flag_is_unknown(self, tmp_path, levels):
        # every check runs at two levels; a finer grid is --dx/--dt
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, ["pde-check", "--pde", "ig", "--refine", levels])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_single_record(self, tmp_path):
        assert run_in(tmp_path, ["verify", "--only", "m1"]) == 0
        obj = json.loads((tmp_path / "verification.json").read_text())
        assert len(obj["records"]) == 1
        assert obj["records"][0]["id"] == "mean_m1"
        assert obj["records"][0]["verdict"] == "confirmed"

    def test_unmatched_only_is_usage_error(self, tmp_path, capsys):
        from ighit.verification import builder_ids
        assert run_in(tmp_path, ["verify", "--only", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert all(rec_id in err for rec_id in builder_ids())
        assert not (tmp_path / "verification.json").exists()

    def test_record_times_on_stderr(self, tmp_path, capsys):
        assert run_in(tmp_path, ["verify", "--only", "boundary"]) == 0
        captured = capsys.readouterr()
        lines = captured.err.strip().split("\n")
        assert [line.split()[0] for line in lines] == ["boundary_value", "boundary_slope"]
        assert all(float(line.split()[1]) >= 0.0 for line in lines)
        # stdout keeps only the summary lines and the report path
        assert len(captured.out.strip().split("\n")) == 3
        assert "elapsed" not in (tmp_path / "verification.json").read_text()
