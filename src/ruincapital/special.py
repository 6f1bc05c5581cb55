"""Scalar special-function kernels and the root finders used by every other module.

The heavy lifting (the erf family) is delegated to :mod:`scipy.special`;
this module pins down domains, overflow-safe compositions and the
inverse-Gaussian distribution function of the IG ruin route, which scipy
does not expose in the overflow-safe form needed here.
:func:`_scipy_special` is the one place that imports
:mod:`scipy.special`, on a kernel's first call, so importing the package
and the routes without special functions (Monte Carlo, the Lundberg
solves of light-tailed laws) never load it.
:func:`brentq`, Brent's method, is the one bracketed root finder of the
capital and Lundberg solves, so nothing imports :mod:`scipy.optimize`;
:func:`brentq_columns` runs it element by element on many independent
brackets in lockstep, for the inverse Gaussian capital columns.

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


# brentq's default relative tolerance, and brentq_columns' only one
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


def brentq_columns(f, a, b, fa, fb, xtol: float):
    """Brent's method on n independent brackets [a[i], b[i]] in lockstep.

    An element-wise port of :func:`brentq`: element i takes the iterates,
    the tolerance and the early returns of ``brentq(lambda x: f_i(x), a[i],
    b[i], xtol)``, bit for bit and after the same evaluations past the
    bracket ends.  ``fa`` and ``fb`` are f at the ends, known to the caller
    (``fb[i]`` is not read where ``fa[i]`` is NaN, as brentq stops there).
    ``f(x, rows)`` evaluates the elements ``rows`` (an index array) at
    ``x[j]`` for element ``rows[j]`` and returns a float array; each
    iteration asks only for the elements still open.

    Returns ``(x, fx, errors)``: the roots, f at each root and one
    :class:`BracketError` or None per element.  A failed element (f(a) and
    f(b) of one sign, f NaN, 100 iterations without convergence) carries
    brentq's message, its last iterate in ``x`` and f there in ``fx``
    (NaN when a NaN failed it); the other elements go on.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    n = a.size
    x, fx, errors = np.full(n, math.nan), np.full(n, math.nan), [None] * n

    def settle(done, rows, xs, fs, error=None):
        """Record the elements ``rows[done]``, at ``xs[done]``; return the open mask."""
        if done.any():
            ended, xs = rows[done], xs[done]
            x[ended], fx[ended] = xs, fs[done]
            if error:
                for i, xi in zip(ended.tolist(), xs.tolist()):
                    errors[i] = error(i, xi)
        return ~done

    nan_error = lambda i, xi: BracketError(f"brentq: the function value at x = {xi!r} is NaN")
    rows = np.arange(n)
    fpre = np.array(fa, dtype=float)
    keep = settle(np.isnan(fpre), rows, a, fpre, nan_error)
    rows, xpre, xcur, fpre = rows[keep], a[keep], b[keep], fpre[keep]
    fcur = np.array(fb, dtype=float)[rows]
    keep = settle(np.isnan(fcur), rows, xcur, fcur, nan_error)
    keep &= settle(keep & (fpre == 0.0), rows, xpre, fpre)
    keep &= settle(keep & (fcur == 0.0), rows, xcur, fcur)
    same = keep & (np.signbit(fpre) == np.signbit(fcur))
    keep &= settle(
        same, rows, xcur, fcur,
        lambda i, xi: BracketError(f"brentq: f({float(a[i])!r}) and f({xi!r}) have the same sign"),
    )
    rows, xpre, xcur, fpre, fcur = rows[keep], xpre[keep], xcur[keep], fpre[keep], fcur[keep]
    xblk = fblk = spre = scur = np.zeros(rows.size)
    for _ in range(100):
        if not rows.size:
            break
        # float arithmetic as brentq's: overflow to inf, NaN and a zero
        # divisor pass silently (an inf or NaN step bisects, as there)
        with np.errstate(all="ignore"):
            new = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            step = xcur - xpre
            xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
            spre, scur = np.where(new, step, spre), np.where(new, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            pairs = (xcur, xpre), (xblk, xcur), (xcur, xblk), (fcur, fpre), (fblk, fcur), (fcur, fblk)
            xpre, xcur, xblk, fpre, fcur, fblk = (np.where(swap, *v) for v in pairs)

            delta = (xtol + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            keep = settle((fcur == 0.0) | (np.abs(sbis) < delta), rows, xcur, fcur)
            if not keep.all():
                state = (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
                rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[keep] for v in state
                )
                if not rows.size:
                    break

            # interpolate, or extrapolate where xpre != xblk
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            good = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            good &= 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, rows)
        keep = settle(np.isnan(fcur), rows, xcur, fcur, nan_error)
        if not keep.all():
            rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                v[keep] for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
            )
    settle(
        np.ones(rows.size, bool), rows, xcur, fcur,
        lambda i, xi: BracketError(f"brentq: no convergence after 100 iterations, last x = {xi!r}"),
    )
    return x, fx, errors
