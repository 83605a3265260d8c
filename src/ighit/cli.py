"""Command-line front door.

Subcommands evaluate densities, distribution functions, moments, transforms
and tail reports, simulate subordinator / hitting-time / subordinated paths,
run PDE residual checks, and emit the formula-verification report.  Every
command is deterministic given its flags and seed; outputs are written
atomically with fixed float formatting.  The table commands take
`--format csv|json`; `paths` writes CSV (and SVG), `pde-check` and `verify`
JSON, and take no `--format`.

Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import (
    BudgetExceeded,
    DomainError,
    NonConvergence,
    NumericalInstability,
    _finite,
    _finite_nonnegative,
    _finite_positive,
)
from .hitting import (
    hit_cdf,
    hit_lt_space_closed,
    hit_lt_time,
    hit_llt,
    hit_mean,
    hit_moment,
    hit_pdf_table,
    hit_second_moment,
    hit_variance,
    hitting_path,
    printed_prefactor_ratio,
    stable_hit_pdf,
    stable_hit_tail_report,
    tail_report,
)
from .subordinated import sub_pdf_table, sub_sample_path
from .subordinators import IGParams, TemperedStableSubordinator
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
from .tables import write_csv, write_json, write_svg_lines
from .verification import run_verification


def _float_flag(text: str, check) -> float:
    """`text` as a float that `check` passes, else argparse's usage error (exit 2)."""
    try:
        return check(float(text), repr(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc


def positive_float(text: str) -> float:
    return _float_flag(text, _finite_positive)


def nonneg_float(text: str) -> float:
    return _float_flag(text, _finite_nonnegative)


# The most steps a grid flag may ask for; the defaults take at most 80.
_MAX_GRID_STEPS = 10 ** 7


def grid_spec(text: str) -> np.ndarray:
    """Parse 'start:stop:step' into an inclusive uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (_float_flag(p, _finite) for p in parts)
    if step <= 0 or stop <= start:
        raise argparse.ArgumentTypeError("grid needs stop > start and step > 0")
    n = (stop - start) / step
    if not n <= _MAX_GRID_STEPS:
        raise argparse.ArgumentTypeError(f"grid {text!r} takes over {_MAX_GRID_STEPS} steps")
    return start + step * np.arange(int(round(n)) + 1)


def float_list(text: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc


def _params_from(args) -> IGParams:
    return IGParams(args.delta, args.gamma)


def _emit_table(args, columns: dict, meta: dict) -> str:
    """Write the columns as CSV or JSON to --out (default <command>.<format>).

    The JSON's meta holds `meta`, the command and the package version.
    """
    out = args.out or f"{args.command}.{args.format}"
    names = list(columns)
    if args.format == "csv":
        rows = zip(*columns.values())
        write_csv(out, names, rows)
    else:
        payload = {name: [float(v) for v in vals] for name, vals in columns.items()}
        payload["meta"] = {**meta, "command": args.command, "version": __version__}
        write_json(out, payload)
    print(out)
    return out


def _add_common(p, with_params=True, with_format=True):
    if with_params:
        p.add_argument("--delta", type=positive_float, default=1.0,
                       help="barrier slope of the subordinator (> 0)")
        p.add_argument("--gamma", type=nonneg_float, default=1.0,
                       help="drift of the underlying Brownian motion (>= 0)")
    p.add_argument("--out", help="output path (command-specific default)")
    if with_format:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def cmd_density(args) -> int:
    params = _params_from(args)
    xs = args.x
    dens = hit_pdf_table(xs, args.t, params)
    if args.mode == "literal":
        dens = dens * printed_prefactor_ratio(args.t, params)
    meta = {"delta": params.delta, "gamma": params.gamma, "t": args.t, "mode": args.mode}
    _emit_table(args, {"x": xs, "hitting_density": dens}, meta)
    return 0


def cmd_cdf(args) -> int:
    params = _params_from(args)
    xs = args.x
    vals = hit_cdf(xs, args.t, params)
    meta = {"delta": params.delta, "gamma": params.gamma, "t": args.t}
    _emit_table(args, {"x": xs, "hitting_cdf": vals}, meta)
    return 0


def cmd_moments(args) -> int:
    params = _params_from(args)
    rows_t, rows_q, rows_v, rows_m = [], [], [], []
    for t in args.t:
        for q in args.q:
            if q == 1.0:
                value, method = hit_mean(t, params), "closed_form"
            elif q == 2.0:
                value, method = hit_second_moment(t, params), "closed_form"
            else:
                value, method = hit_moment(q, t, params), "laplace_inversion"
            rows_t.append(t)
            rows_q.append(q)
            rows_v.append(value)
            rows_m.append(method)
        if args.variance:
            rows_t.append(t)
            rows_q.append(-1.0)
            rows_v.append(hit_variance(t, params))
            rows_m.append("variance")
    meta = {"delta": params.delta, "gamma": params.gamma}
    _emit_table(args, {"t": rows_t, "q": rows_q, "moment": rows_v, "method": rows_m}, meta)
    return 0


def cmd_tail(args) -> int:
    params = _params_from(args)
    rep = tail_report(args.t, params, args.x)
    out = args.out or ("tail." + args.format)
    if args.format == "csv":
        rep.to_csv(out)
    else:
        rep.to_json(out)
    print(out)
    return 0


def cmd_lt(args) -> int:
    params = _params_from(args)
    if args.which == "time":
        ss = args.s
        cols = {"s": ss, "lt_time": hit_lt_time(args.x, ss, params)}
    elif args.which == "space":
        mus = args.mu
        vals = hit_lt_space_closed(np.asarray(mus, dtype=float), args.t, params)
        cols = {"mu": mus, "lt_space": list(vals)}
    else:
        ss = args.s
        cols = {"s": ss, "llt": hit_llt(args.u, ss, params)}
    meta = {"which": args.which, "delta": params.delta, "gamma": params.gamma}
    _emit_table(args, cols, meta)
    return 0


def _model_from(args):
    if args.model == "ig":
        return _params_from(args)
    return TemperedStableSubordinator(args.beta, 0.0 if args.model == "stable" else args.mu)


def cmd_paths(args) -> int:
    g_path, h_path = hitting_path(_model_from(args), args.T, args.dt,
                                  np.random.default_rng(args.seed))
    base = args.out or "paths"
    g_file, h_file = base + "_g.csv", base + "_h.csv"
    g_path.to_csv(g_file)
    h_path.to_csv(h_file)
    print(g_file)
    print(h_file)
    if args.svg:
        svg_file = base + ".svg"
        keep = g_path.values <= 1.05 * float(h_path.times[-1]) + 4.0 * args.dt
        write_svg_lines(svg_file, [
            ("subordinator", g_path.times[keep], g_path.values[keep], "steps"),
            ("hitting time", h_path.times, h_path.values, "line"),
        ], title=f"delta={args.delta} gamma={args.gamma} seed={args.seed}")
        print(svg_file)
    return 0


def cmd_subordinated(args) -> int:
    params = _params_from(args)
    xs = args.x
    dens = sub_pdf_table(xs, args.t, params)
    meta = {"delta": params.delta, "gamma": params.gamma, "t": args.t}
    _emit_table(args, {"x": xs, "subordinated_density": dens}, meta)
    if args.with_path:
        rng = np.random.default_rng(args.seed)
        path = sub_sample_path(params, args.T, args.dt, rng)
        out = (args.out or "subordinated") + "_path.csv"
        path.to_csv(out)
        print(out)
    return 0


def cmd_stable(args) -> int:
    xs = args.x
    dens = stable_hit_pdf(xs, args.t, args.beta)
    _emit_table(args, {"x": xs, "stable_hitting_density": dens},
                {"beta": args.beta, "t": args.t})
    if args.tail is not None:
        rep = stable_hit_tail_report(args.t, args.beta, args.tail)
        out = (args.out or "stable") + "_tail.json"
        rep.to_json(out)
        print(out)
    return 0


def cmd_pde_check(args) -> int:
    params = _params_from(args)
    box = PDE_BOXES.get(args.pde)
    if box is not None:  # --dx alone sets dt = dx too; --dt alone replaces dt only
        box = replace(box, dx=args.dx or box.dx, dt=args.dt or args.dx or box.dt)
    elif args.dx or args.dt:
        raise DomainError("pseudo-lt has no grid steps: --dx and --dt do not apply")
    if args.pde == "hitting":
        # the literal control: the printed density, the true one times the ratio
        perturb = None if args.mode == "corrected" else \
            (lambda x, t, h: h * printed_prefactor_ratio(t, params))
        rep = residual_hitting_pde(params, box, perturb=perturb)
        rep = replace(rep, extra={**rep.extra, "mode": args.mode})
    elif args.pde == "ig":
        rep = residual_ig_pde(params, box)
    elif args.pde == "ts2":
        rep = residual_ts_pde(2, args.mu, box)[0]
    elif args.pde == "ts3":
        rep = residual_ts_pde(3, args.mu, box)[args.sign == "flipped"]
    elif args.pde == "subordinated":
        rep = residual_subordinated(params, box)
    elif args.pde == "frac-hitting":
        rep = residual_frac_hitting(box)
    elif args.pde == "frac-ig":
        rep = residual_frac_ig(box)
    elif args.pde == "frac-subordinated":
        rep = residual_subordinated_frac(box)
    else:
        rep = residual_pseudo_lt(params, *_PSEUDO_LT_GRIDS, source=args.source)
    out = args.out or f"pde_{args.pde.replace('-', '_')}.json"
    rep.to_json(out)
    if args.residual_csv:
        rep.to_csv(args.residual_csv)
    print(out)
    print(f"max_rel={rep.norms['max_rel']:.6e} ratio={rep.refinement_ratio:.4f}")
    return 0


def cmd_verify(args) -> int:
    report = run_verification(only=args.only)
    for r in report.records:
        print(f"{r.id}  {r.elapsed:.3f}", file=sys.stderr)
    out = args.out or "verification.json"
    report.to_json(out)
    for line in report.summary_lines():
        print(line)
    print(out)
    if any("error" in r.values for r in report.records):
        return 3
    return 0 if report.ok else 3


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with '-' and a digit (or '-.' and a digit) as
    a value, so a grid flag's value may start below zero: `--x -2:2:0.5`.
    argparse itself reads only plain negative numbers so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _density_flags(p):
    _add_common(p)
    p.add_argument("--t", type=positive_float, required=True)
    p.add_argument("--x", type=grid_spec, default=grid_spec("0:3:0.1"))
    p.add_argument("--mode", choices=("corrected", "literal"), default="corrected")
    p.set_defaults(func=cmd_density)


def _cdf_flags(p):
    _add_common(p)
    p.add_argument("--t", type=positive_float, required=True)
    p.add_argument("--x", type=grid_spec, default=grid_spec("0:3:0.1"))
    p.set_defaults(func=cmd_cdf)


def _moments_flags(p):
    _add_common(p)
    p.add_argument("--t", type=float_list, default=[1.0])
    p.add_argument("--q", type=float_list, default=[1.0, 2.0])
    p.add_argument("--variance", action="store_true")
    p.set_defaults(func=cmd_moments)


def _tail_flags(p):
    _add_common(p)
    p.add_argument("--t", type=positive_float, required=True)
    p.add_argument("--x", type=grid_spec, default=grid_spec("2:8:0.25"))
    p.set_defaults(func=cmd_tail)


def _lt_flags(p):
    _add_common(p)
    p.add_argument("--which", choices=("time", "space", "llt"), default="time")
    p.add_argument("--x", type=nonneg_float, default=0.7)
    p.add_argument("--t", type=positive_float, default=1.0)
    p.add_argument("--u", type=positive_float, default=1.0)
    p.add_argument("--s", type=float_list, default=[0.5, 1.0, 2.0])
    p.add_argument("--mu", type=float_list, default=[1.0, 2.0])
    p.set_defaults(func=cmd_lt)


def _paths_flags(p):
    _add_common(p, with_format=False)
    p.add_argument("--T", type=positive_float, default=5.0,
                   help="time horizon of the inverse process")
    p.add_argument("--dt", type=positive_float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=("ig", "stable", "ts"), default="ig")
    p.add_argument("--beta", type=positive_float, default=0.5)
    p.add_argument("--mu", type=nonneg_float, default=1.0)
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p.set_defaults(func=cmd_paths)


def _subordinated_flags(p):
    _add_common(p)
    p.add_argument("--t", type=positive_float, default=1.0)
    p.add_argument("--x", type=grid_spec, default=grid_spec("-4:4:0.1"))
    p.add_argument("--with-path", dest="with_path", action="store_true")
    p.add_argument("--T", type=positive_float, default=1.0)
    p.add_argument("--dt", type=positive_float, default=1 / 256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_subordinated)


def _stable_flags(p):
    _add_common(p, with_params=False)
    p.add_argument("--beta", type=positive_float, default=0.5)
    p.add_argument("--t", type=positive_float, default=1.0)
    p.add_argument("--x", type=grid_spec, default=grid_spec("0.05:4:0.05"))
    p.add_argument("--tail", type=grid_spec, default=None,
                   help="x grid for a tail report (e.g. 8:16:0.5)")
    p.set_defaults(func=cmd_stable)


def _pde_check_flags(p):
    _add_common(p, with_format=False)
    p.add_argument("--pde", choices=sorted(list(PDE_BOXES) + ["pseudo-lt"]),
                   required=True)
    p.add_argument("--mu", type=nonneg_float, default=1.0)
    p.add_argument("--mode", choices=("corrected", "literal"), default="corrected")
    p.add_argument("--sign", choices=("as_printed", "flipped"), default="as_printed")
    p.add_argument("--source", choices=("closed", "numeric"), default="closed")
    p.add_argument("--dx", type=positive_float, default=None)
    p.add_argument("--dt", type=positive_float, default=None)
    p.add_argument("--residual-csv", dest="residual_csv", default=None)
    p.set_defaults(func=cmd_pde_check)


def _verify_flags(p):
    _add_common(p, with_params=False, with_format=False)
    p.add_argument("--only", default=None,
                   help="run only records whose id contains this substring")
    p.set_defaults(func=cmd_verify)


# command -> its help line and the function that adds its flags, in the order
# of `ighit -h`
_COMMANDS = {
    "density": ("hitting-time density on an x grid", _density_flags),
    "cdf": ("hitting-time distribution function", _cdf_flags),
    "moments": ("moments of the hitting time", _moments_flags),
    "tail": ("survival values against the tail envelope", _tail_flags),
    "lt": ("Laplace transforms of the density", _lt_flags),
    "paths": ("simulate a subordinator path and its inverse", _paths_flags),
    "subordinated": ("density (and path) of Brownian motion on the hitting-time clock",
                     _subordinated_flags),
    "stable": ("stable hitting-time density and tail", _stable_flags),
    "pde-check": ("finite-difference residual of a differential identity", _pde_check_flags),
    "verify": ("run the formula verification battery", _verify_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone: a parser with one
    subparser reads that command's argv as the full parser does, and its
    usage names every command."""
    parser = _Parser(
        prog="ighit",
        description="Inverse Gaussian subordinator hitting times: densities, "
                    "transforms, moments, paths, PDE residual checks, and a "
                    "formula verification report.")
    parser.add_argument("--version", action="version", version=__version__)
    # one subparser's usage still lists every command (argparse's own metavar
    # for all of them, which their errors name "command")
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (text, add_flags) in _COMMANDS.items():
        if command in (None, name):
            add_flags(subs.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argv that starts with a command needs that command's subparser alone;
    # any other argv (`-h`, `--version`, an unknown command) needs all of them
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"ighit: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, NumericalInstability, BudgetExceeded) as exc:
        print(f"ighit: numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
