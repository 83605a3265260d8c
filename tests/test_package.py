"""The package namespace: every public name resolves, lazily, to its module's object."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ighit

ROOT = Path(__file__).resolve().parents[1]

# the public names of `dir(ighit)`, by defining module
PUBLIC = {
    "errors": ("BudgetExceeded", "DomainError", "NonConvergence", "NumericalInstability"),
    "numerics": ("bessel_k", "erf", "erfc", "erfcx", "integrate_interval",
                 "integrate_semi_infinite", "invert_laplace", "invert_laplace_talbot",
                 "upper_gamma"),
    "subordinators": ("IGParams", "IGSubordinator", "SamplePath",
                      "TemperedStableSubordinator", "ig_cdf", "ig_levy_tail", "ig_pdf",
                      "ig_psi", "ig_sample", "stable_cdf", "stable_pdf", "stable_sample",
                      "ts_half_ig_params", "ts_levy_tail", "ts_pdf", "ts_psi", "ts_sample"),
    "hitting": ("HittingDensityEval", "TailBoundReport", "hit_boundary_slope",
                "hit_boundary_value", "hit_cdf", "hit_llt", "hit_lt_space",
                "hit_lt_space_closed", "hit_lt_time", "hit_mean", "hit_moment",
                "hit_moment_quadrature", "hit_pdf_convolution", "hit_pdf_integral",
                "hit_pdf_table", "hit_second_moment", "hit_survival", "hit_variance",
                "hitting_path", "invert_path", "printed_prefactor_ratio",
                "sample_hitting_times", "stable_hit_pdf", "stable_hit_survival",
                "stable_hit_tail_report", "tail_report", "ts_hit_pdf_table"),
    "subordinated": ("SubordinatedEval", "sub_cdf_interpolant", "sub_pdf", "sub_pdf_table",
                     "sub_sample_path", "sub_sample_values"),
    "residuals": ("GridBox", "ResidualReport", "caputo_derivative", "residual_frac_hitting",
                  "residual_frac_ig", "residual_hitting_pde", "residual_ig_pde",
                  "residual_pseudo_lt", "residual_subordinated", "residual_subordinated_frac",
                  "residual_ts_pde"),
    "montecarlo": ("HistogramTable", "MCEstimate", "ecdf_ks", "estimate_moment",
                   "histogram_density", "ks_critical_1pct"),
    "verification": ("VerificationRecord", "VerificationReport", "run_verification"),
    "convolution": (),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
SUBMODULES = sorted(PUBLIC)


def _fresh(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter that imports ighit from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout


def test_public_names_are_the_listed_ones():
    # before any module loads, dir() lists every name; other tests import cli
    # and tables, which then join the namespace, so this runs in its own process
    assert len(NAMES) + len(SUBMODULES) == 92
    listed = sorted([name for _, name in NAMES] + SUBMODULES)
    assert _fresh("import ighit\nprint(*[n for n in dir(ighit) if n[0] != '_'])").split() == listed


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_the_defining_modules_object(module, name):
    defined = getattr(importlib.import_module(f"ighit.{module}"), name)
    scope = {}
    exec(f"from ighit import {name}", scope)
    assert getattr(ighit, name) is defined and scope[name] is defined
    assert name in dir(ighit)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_is_an_attribute(module):
    assert getattr(ighit, module) is importlib.import_module(f"ighit.{module}")
    assert module in dir(ighit)


def test_star_import_gives_every_name():
    scope = {}
    exec("from ighit import *", scope)
    assert all(scope[name] is getattr(ighit, name) for _, name in NAMES)
    assert all(scope[module] is getattr(ighit, module) for module in SUBMODULES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ighit.no_such_name
    with pytest.raises(ImportError):
        exec("from ighit import no_such_name", {})


def test_tracer_installs_after_a_bare_import():
    # the benchmark's tracer reads sys.modules for its layers after importing
    # only ighit and ighit.verification; montecarlo is not in that import chain
    code = ("import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
            "import ighit, tracing\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "wrapped = hasattr(ighit.estimate_moment, '__wrapped__')\n"
            "tracer.uninstall()\n"
            "print(wrapped, hasattr(ighit.estimate_moment, '__wrapped__'))\n")
    assert _fresh(code).split() == ["True", "False"]


def test_loading_a_module_binds_its_names():
    # a module loaded by any import, not only by attribute access, puts its
    # names in the package namespace
    code = ("import ighit, ighit.verification\n"
            "print(all(n in vars(ighit) for n in ('hit_mean', 'ts_pdf', 'GridBox',"
            " 'sub_pdf', 'run_verification')))\n"
            "print(ighit.hit_mean is ighit.hitting.hit_mean)\n")
    assert _fresh(code).split() == ["True", "True"]


def test_tracer_restores_a_name_first_read_while_installed():
    # the tracer restores only the bindings present when it installs; a name
    # read for the first time while it is installed must be among them
    code = ("import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
            "import ighit, tracing\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "wrapped = hasattr(ighit.hit_pdf_table, '__wrapped__')\n"
            "tracer.uninstall()\n"
            "print(wrapped, ighit.hit_pdf_table is ighit.hitting.hit_pdf_table,\n"
            "      hasattr(ighit.hit_pdf_table, '__wrapped__'))\n")
    assert _fresh(code).split() == ["True", "True", "False"]
