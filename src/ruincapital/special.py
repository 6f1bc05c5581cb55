"""Scalar special-function kernels and the root finders used by every other module.

The heavy lifting (the erf family) is delegated to :mod:`scipy.special`;
this module pins down domains, overflow-safe compositions and the
inverse-Gaussian distribution function of the IG ruin route, which scipy
does not expose in the overflow-safe form needed here.
:func:`_scipy_special` is the one place that imports
:mod:`scipy.special`, on a kernel's first call, so importing the package
and the routes without special functions (Monte Carlo, the Lundberg
solves of light-tailed laws) never load it.
:func:`brentq`, Brent's method, is the scalar bracketed root finder of
the exact capital and Lundberg solves, so nothing imports
:mod:`scipy.optimize`; :func:`falsi_columns` runs the Illinois method on
many independent brackets in lockstep, for the inverse Gaussian capital
columns.

All functions are pure and accept numpy arrays where it is natural.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BracketError, check_real

__all__ = [
    "std_normal_quantile",
]

# the IntegrationError of an inverse Gaussian distribution function that overflows
IG_NOT_FINITE = "inverse Gaussian distribution function not finite: x/mu or 2 lam/mu overflows"


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


def _ig_cdf(sp, x, mu, lam):
    """The IG(mu, lam) distribution function on checked arguments, clamped to
    [0, 1]; NaN where x/mu or 2 lam/mu overflows.  ``sp`` is
    :func:`_scipy_special`, fetched once by the caller.

    One expression for floats and for arrays of one broadcast shape, mu
    included: the body of the inverse Gaussian ruin probability's prepared
    kernel, whose cells each have their own mu.  Where mu is inf the
    zero-drift limit ``2 Phi(-s)`` replaces the general expression, element
    by element.  Callers evaluate it under ``np.errstate(invalid="ignore",
    over="ignore")``, so that NaN is their typed error and not first a
    NumPy warning.
    """
    s = np.sqrt(lam / x)
    a = s * (x / mu - 1.0)
    b = s * (x / mu + 1.0)
    out = sp.ndtr(a) + np.exp(2.0 * lam / mu + sp.log_ndtr(-b))
    inf_mu = np.isinf(mu)
    if np.count_nonzero(inf_mu):  # zero drift
        out = np.where(inf_mu, 2.0 * sp.ndtr(-s), out)
    return np.minimum(np.maximum(out, 0.0), 1.0)


# brentq's default relative tolerance, and falsi_columns' only one
_RTOL = 4 * math.ulp(1.0)


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL):
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


def falsi_columns(f, a, b, fa, fb, xtol: float):
    """The Illinois method (Dowell & Jarratt 1971) on n brackets [a[i], b[i]] in lockstep.

    ``fa`` and ``fb`` are f at the ends, of opposite signs, known to the
    caller.  ``f(x, rows)`` evaluates the elements ``rows`` (an index array)
    at ``x[j]`` for element ``rows[j]``; each step asks only for the open
    elements.  A step evaluates the secant point of the ends, kept tol/2
    inside each, tol = xtol + 4 eps max(|a|, |b|), as the new b: where f
    changes sign the old b becomes a, otherwise f(a) is halved.  An element
    stops once |b - a| <= tol or f(b) = 0 and returns b, one of its own
    iterates, none evaluated twice.

    Returns ``(x, fx, errors)``: the roots, f there and one
    :class:`BracketError` or None per element.  A NaN or 100 steps fail only
    their own element, whose last iterate and f there are in ``x`` and ``fx``.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x, fx, errors, rows = b.copy(), fb.copy(), [None] * b.size, np.arange(b.size)
    for step in range(101):
        tol = xtol + _RTOL * np.maximum(np.abs(a), np.abs(b))
        nan = np.isnan(fb)
        ok = ~nan & ((fb == 0.0) | (np.abs(b - a) <= tol))
        bad = nan | (~ok & (step == 100))
        done = ok | bad
        x[rows[done]], fx[rows[done]] = b[done], fb[done]
        for i, xi, isnan in zip(rows[bad].tolist(), b[bad].tolist(), nan[bad].tolist()):
            why = "the function value is NaN" if isnan else "no convergence after 100 steps"
            errors[i] = BracketError(f"falsi_columns: {why} at x = {xi!r}")
        rows, a, b, fa, fb, tol = (v[~done] for v in (rows, a, b, fa, fb, tol))
        if not rows.size:
            break
        w = a - b  # the secant step from b, kept tol/2 inside both ends
        s = np.clip(np.abs(w * (fb / (fb - fa))), tol / 2, np.abs(w) - tol / 2)
        xs = b + np.copysign(s, w)
        fs = f(xs, rows)
        flip = np.signbit(fs) != np.signbit(fb)
        a, fa, b, fb = np.where(flip, b, a), np.where(flip, fb, fa / 2), xs, fs
    return x, fx, errors
