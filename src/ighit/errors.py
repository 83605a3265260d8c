"""Exception types shared across the package, and the argument checks that raise them.

Every finite, finite-and-nonnegative and finite-and-positive argument check
of the package is `_finite`, `_finite_nonnegative` or `_finite_positive`:
each returns its argument (a float as it is, anything else as an array)
and raises DomainError "<what> must be finite[ and <bound>]", where
`what` names the function and the argument.  A count of draws is checked by
`_count`, which raises "<what> must be an integer >= <least>".
"""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergence(RuntimeError):
    """An adaptive numerical routine exhausted its budget before reaching tolerance."""


class NumericalInstability(RuntimeError):
    """Successive approximations disagree badly; the result cannot be trusted."""


class BudgetExceeded(RuntimeError):
    """A rejection or iteration loop exceeded its configured trial cap."""


def _checked(value, what: str, bound: str, ok):
    # a float (np.float64 included) takes math.isfinite, far cheaper than numpy
    if isinstance(value, float):
        if math.isfinite(value) and ok(value):
            return value
    else:
        value = np.asarray(value)
        if np.all(np.isfinite(value) & ok(value)):
            return value
    raise DomainError(f"{what} must be finite{bound}")


def _finite(value, what: str):
    """`value`, a float as it is or else as an array; DomainError unless every entry is finite."""
    return _checked(value, what, "", lambda v: True)


def _finite_nonnegative(value, what: str):
    """`value` as `_finite` returns it; DomainError unless every entry is finite and >= 0."""
    return _checked(value, what, " and nonnegative", lambda v: v >= 0)


def _finite_positive(value, what: str):
    """`value` as `_finite` returns it; DomainError unless every entry is finite and > 0."""
    return _checked(value, what, " and positive", lambda v: v > 0)


def _count(value, least: int, what: str):
    """`value`; DomainError unless it is an integer (numpy's included) >= least."""
    if isinstance(value, numbers.Integral) and value >= least:
        return value
    raise DomainError(f"{what} must be an integer >= {least}")
