"""Scalar special-function kernels and the root finder used by every other module.

The heavy lifting (the erf family) is delegated to :mod:`scipy.special`;
this module pins down domains, overflow-safe compositions and the
inverse-Gaussian distribution function, which scipy does not expose in
the overflow-safe form needed here.  :func:`_scipy_special` is the one
place that imports :mod:`scipy.special`, on a kernel's first call, so
importing the package and the routes without special functions (Monte
Carlo, the Lundberg solves of light-tailed laws) never load it.
:func:`brentq`, Brent's method, is the one bracketed root finder of the
capital and Lundberg solves, so nothing imports :mod:`scipy.optimize`.

All functions are pure and accept numpy arrays where it is natural.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import BracketError, DomainError, IntegrationError, check_real, check_real_array

__all__ = [
    "std_normal_quantile",
    "inverse_gaussian_cdf",
]


@functools.cache
def _scipy_special():
    """:mod:`scipy.special`, imported on the first call: about half the package's import time."""
    from scipy import special

    return special


def std_normal_quantile(p: float) -> float:
    """Inverse of Phi.

    Uses scipy's rational approximation, then polishes with one Newton step
    so that ``scipy.special.ndtr(result) == p`` to ~1e-15.

    Raises:
        DomainError: unless 0 < p < 1.
    """
    p = check_real("p", p, above=0.0, below=1.0)
    sp = _scipy_special()
    z = sp.ndtri(p)
    # One Newton step: z <- z - (Phi(z) - p) / phi(z)
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        z -= (sp.ndtr(z) - p) / pdf
    return float(z)


def _positive(name: str, x):
    """``x`` checked by the argument rule, finite and > 0: a float stays a
    float (the IG route's scalar calls), anything else becomes a float array."""
    if type(x) is float:
        return check_real(name, x, above=0.0)
    return check_real_array(name, x, above=0.0)


def _ig_cdf(sp, x, mu, lam):
    """The IG(mu, lam) distribution function on checked arguments, clamped to
    [0, 1]; NaN where x/mu or 2 lam/mu overflows.  ``sp`` is
    :func:`_scipy_special`, fetched once by the caller.

    One expression for a float and for arrays of one broadcast shape: the
    body of :func:`inverse_gaussian_cdf` and of the inverse Gaussian ruin
    probability's prepared kernel.  Callers evaluate it under
    ``np.errstate(invalid="ignore", over="ignore")``, so that NaN is their
    typed error and not first a NumPy warning.
    """
    s = np.sqrt(lam / x)
    if math.isinf(mu):
        out = 2.0 * sp.ndtr(-s)
    else:
        a = s * (x / mu - 1.0)
        b = s * (x / mu + 1.0)
        out = sp.ndtr(a) + np.exp(2.0 * lam / mu + sp.log_ndtr(-b))
    return np.minimum(np.maximum(out, 0.0), 1.0)


def inverse_gaussian_cdf(x, mu, lam):
    """Distribution function of the inverse Gaussian law IG(mu, lam).

    Evaluates ``Phi(a) + exp(2 lam / mu) * Phi(-b)`` with
    ``a = sqrt(lam/x) (x/mu - 1)`` and ``b = sqrt(lam/x) (x/mu + 1)``.
    The second term is combined in log space, ``exp(2 lam/mu + log Phi(-b))``,
    because the raw product overflows for large ``lam/mu`` long before the
    result leaves [0, 1].

    ``x`` and ``lam`` may be arrays of one broadcast shape; ``mu = inf`` is
    accepted and returns the zero-drift limit ``2 Phi(-sqrt(lam/x))``.

    Raises:
        DomainError: unless ``x`` and ``lam`` are finite and > 0, checked
            per element by the argument rule, and ``mu`` is a real number
            > 0 (``inf`` included); a string is never converted.
        IntegrationError: where x/mu or 2 lam/mu overflows and the two
            terms give NaN.
    """
    x, lam = _positive("x", x), _positive("lam", lam)
    if not (isinstance(mu, numbers.Real) and mu > 0.0):
        raise DomainError(f"mu must be a real number > 0 (inf included), got {mu!r}")
    with np.errstate(invalid="ignore", over="ignore"):
        out = _ig_cdf(_scipy_special(), x, mu, lam)
    if np.isnan(out).any():
        raise IntegrationError("inverse_gaussian_cdf is not finite: x/mu or 2 lam/mu overflows")
    return float(out) if out.ndim == 0 else out


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * math.ulp(1.0)):
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq`` (``scipy/optimize/Zeros/brentq.c``):
    the same iterates, the tolerance ``delta = (xtol + rtol |x|) / 2`` and at
    most 100 iterations, so it returns scipy's root after the same calls of f.

    Raises:
        BracketError: f(a) and f(b) have the same sign, f returns NaN, or
            100 iterations do not converge.
    """

    def fx(x):
        y = float(f(x))
        if math.isnan(y):
            raise BracketError(f"brentq: the function value at x = {x!r} is NaN")
        return y

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(f"brentq: f({xpre!r}) and f({xcur!r}) have the same sign")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero divisor gives C an inf or NaN step, which bisects
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise BracketError(f"brentq: no convergence after 100 iterations, last x = {xcur!r}")
