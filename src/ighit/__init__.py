"""First-passage times of the inverse Gaussian subordinator.

Densities, distribution functions, transforms, moments, tail bounds,
fractional-PDE residual checks, exact samplers and a verification CLI for the
hitting-time process of inverse Gaussian, stable and tempered stable
subordinators, and for Brownian motion run on the hitting-time clock.

`import ighit` runs only `errors`, `numerics` and `montecarlo`; every other
public name, and every submodule, is imported on first access (PEP 562).
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# module -> its public names, bound here when the module loads
_LAZY = {
    "numerics": "bessel_k erf erfc erfcx integrate_interval integrate_semi_infinite "
                "invert_laplace invert_laplace_talbot upper_gamma",
    "subordinators": "IGParams IGSubordinator SamplePath TemperedStableSubordinator ig_cdf "
                     "ig_levy_tail ig_pdf ig_psi ig_sample stable_cdf stable_pdf stable_sample "
                     "ts_half_ig_params ts_levy_tail ts_pdf ts_psi ts_sample",
    "hitting": "HittingDensityEval TailBoundReport hit_boundary_slope hit_boundary_value "
               "hit_cdf hit_lt_space hit_lt_space_closed hit_lt_time hit_llt hit_mean "
               "hit_moment hit_moment_quadrature hit_pdf_convolution hit_pdf_integral "
               "hit_pdf_table hit_second_moment hit_survival hit_variance hitting_path "
               "invert_path printed_prefactor_ratio sample_hitting_times stable_hit_pdf "
               "stable_hit_survival stable_hit_tail_report tail_report ts_hit_pdf_table",
    "subordinated": "SubordinatedEval sub_cdf_interpolant sub_pdf sub_pdf_table "
                    "sub_sample_path sub_sample_values",
    "residuals": "GridBox ResidualReport caputo_derivative residual_frac_hitting "
                 "residual_frac_ig residual_hitting_pde residual_ig_pde residual_pseudo_lt "
                 "residual_subordinated residual_subordinated_frac residual_ts_pde",
    "verification": "VerificationRecord VerificationReport run_verification",
    "convolution": "",
}
_MODULE_OF = {name: module for module, names in _LAZY.items()
              for name in [module, *names.split()]}


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # the import system binds each loaded submodule here: bind its public
        # names with it, so every loaded name is in the namespace, as when all
        # were imported eagerly (bench/tracing.py patches and restores them)
        for public in _LAZY.get(name, "").split():
            super().__setattr__(public, getattr(value, public))


_sys.modules[__name__].__class__ = _Package

from .errors import BudgetExceeded, DomainError, NonConvergence, NumericalInstability
# eager: every layer imports numerics; compiled first, inside `import ighit`,
# it read a lower peak memory in verify processes
from . import numerics
# eager: bench/tracing.py reads sys.modules["ighit.montecarlo"] after importing ighit
from .montecarlo import (
    HistogramTable,
    MCEstimate,
    ecdf_ks,
    estimate_moment,
    histogram_density,
    ks_critical_1pct,
)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__all__ = [name for name in __dir__() if not name.startswith("_")]
