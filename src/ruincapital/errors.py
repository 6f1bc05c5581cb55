"""Exception hierarchy shared across the library, and its one argument rule.

Every error raised on purpose derives from :class:`RuinCapitalError`, so
callers can catch one base class.  Domain violations additionally derive
from ``ValueError`` to stay friendly to generic numeric code.  Each class
carries its command-line ``exit_code`` and stderr line ``prefix``.  Every public
entry point checks its numeric arguments with :func:`check_real` or
:func:`check_real_array`, which raise DomainError for anything else.
"""

import math
import numbers

import numpy as np


class RuinCapitalError(Exception):
    """Base class for all library errors."""

    exit_code, prefix = 1, "error"


class _NumericFailure(RuinCapitalError):
    exit_code, prefix = 3, "numeric failure"


class _Incompatible(RuinCapitalError):
    exit_code, prefix = 4, "model incompatibility"


class DomainError(RuinCapitalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""

    exit_code = 2


class MomentUndefinedError(DomainError):
    """A requested moment does not exist for the given parameters."""


class MomentRangeError(_Incompatible):
    """A moment exists but lies outside the float range."""


class UnsupportedDistributionError(_Incompatible):
    """Operation not available for this family (e.g. Kummer sampling)."""


class ConstantsUnavailableError(_Incompatible):
    """Derived model constants need moments that do not exist, or lie outside the float range."""


class IntegrationError(_NumericFailure):
    """A probability could not be evaluated to a finite value."""


class NoAdjustmentCoefficientError(_Incompatible):
    """Lundberg's equation has no positive root (heavy tail or c <= c*)."""


class ExcludedCaseError(_Incompatible):
    """The Cramer approximation is undefined at c = c*."""


class BackendIncompatibleError(_Incompatible):
    """A probability backend cannot serve the requested model or query."""


class BracketError(_NumericFailure):
    """Root bracketing exhausted without enclosing a solution."""


class InfiniteCapitalError(_NumericFailure):
    """The ultimate capital u_alpha(c) is infinite for c <= c*."""


def _bad_argument(name: str, got: str, noun: str, above, at_least, below) -> DomainError:
    bounds = ((">", above), (">=", at_least), ("<", below))
    rule = ", ".join(["finite", *(f"{op} {b:g}" for op, b in bounds if math.isfinite(b))])
    return DomainError(f"{name} must be {noun} ({rule}), got {got}")


def check_real(name: str, x, above=-math.inf, at_least=-math.inf, below=math.inf) -> float:
    """``x`` as a float: a real number (NumPy scalars included) with
    ``above < x < below`` and ``x >= at_least``, else DomainError naming the
    argument and the value it got.  The default range admits every finite
    number, NaN fails every range and a string is never converted.
    """
    if type(x) is float:  # the common case skips the slower ABC check
        v = x
    else:
        try:
            v = float(x) if isinstance(x, numbers.Real) else math.nan
        except OverflowError:  # an int beyond the float range
            v = math.nan
    if above < v < below and v >= at_least:
        return v
    raise _bad_argument(name, repr(x), "a real number", above, at_least, below)


def check_real_array(name: str, x, above=-math.inf, at_least=-math.inf, below=math.inf):
    """``x`` as a float array; DomainError unless it has an integer or float dtype
    and every entry lies in the range of :func:`check_real`.  The message names
    the first bad entry, the dtype and shape of an array of non-numbers, or the
    type and length of a ragged nesting."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting
        got = f"a ragged {type(x).__name__} of length {len(x)}"
        raise _bad_argument(name, got, "an array of real numbers", above, at_least, below) from None
    ok = (above < a) & (a < below) & (a >= at_least) if a.dtype.kind in "iuf" else np.False_
    if ok.all():
        return np.asarray(a, dtype=float)
    if not ok.ndim:  # a scalar, or not an array of numbers
        got = f"an array of dtype {a.dtype} and shape {a.shape}" if a.ndim else repr(x)
        raise _bad_argument(name, got, "an array of real numbers", above, at_least, below)
    i = np.unravel_index(ok.argmin(), a.shape)  # the first entry out of range
    got = f"{name}[{', '.join(map(str, i))}] = {a[i].item()!r} in an array of shape {a.shape}"
    raise _bad_argument(name, got, "an array of real numbers", above, at_least, below)
