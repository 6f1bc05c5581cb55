"""Scalar special-function kernels used by every other module.

The heavy lifting (the erf family) is delegated to :mod:`scipy.special`;
this module pins down domains, overflow-safe compositions and the
inverse-Gaussian distribution function, which scipy does not expose in
the overflow-safe form needed here.

All functions are pure and accept numpy arrays where it is natural.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import DomainError, check_real

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "normal_pdf",
    "inverse_gaussian_cdf",
]


def std_normal_cdf(x):
    """Standard Gaussian distribution function Phi(x)."""
    return sp.ndtr(x)


def std_normal_quantile(p: float) -> float:
    """Inverse of Phi.

    Uses scipy's rational approximation, then polishes with one Newton step
    so that ``std_normal_cdf(result) == p`` to ~1e-15.

    Raises:
        DomainError: unless 0 < p < 1.
    """
    p = check_real("p", p, above=0.0, below=1.0)
    z = sp.ndtri(p)
    # One Newton step: z <- z - (Phi(z) - p) / phi(z)
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        z -= (sp.ndtr(z) - p) / pdf
    return float(z)


def normal_pdf(x, mean, variance):
    """Gaussian density with given mean and *variance*.

    Raises:
        DomainError: if variance <= 0.
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0.0):
        raise DomainError("variance must be positive")
    x = np.asarray(x, dtype=float)
    z = (x - mean) ** 2 / (2.0 * variance)
    out = np.exp(-z) / np.sqrt(2.0 * np.pi * variance)
    if out.ndim == 0:
        return float(out)
    return out


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
        DomainError: for nonpositive ``x``, ``mu`` or ``lam``, checked per element.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (x > 0.0).all():
        raise DomainError("inverse_gaussian_cdf requires x > 0")
    if not mu > 0.0:
        raise DomainError("inverse_gaussian_cdf requires mu > 0")
    if not (lam > 0.0).all():
        raise DomainError("inverse_gaussian_cdf requires lambda > 0")
    s = np.sqrt(lam / x)
    if math.isinf(mu):
        out = 2.0 * sp.ndtr(-s)
    else:
        a = s * (x / mu - 1.0)
        b = s * (x / mu + 1.0)
        out = sp.ndtr(a) + np.exp(2.0 * lam / mu + sp.log_ndtr(-b))
    out = out.clip(0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out
