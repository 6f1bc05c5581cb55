"""Parametric families for inter-claim times T and claim sizes Y.

Five families are supported: exponential, Erlang, two-component exponential
mixture, Pareto (in the Lomax form ``f(x) = a b / (x b + 1)^(a+1)``) and
Kummer.  The Kummer family is moments-only: its density involves the
confluent hypergeometric function U and is deliberately not evaluated, so
``pdf``/``cdf``/``sample`` raise :class:`UnsupportedDistributionError`.

Moment generating functions return ``math.inf`` when the defining integral
diverges; use :func:`mgf_abscissa` for the convergence boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy import integrate
from scipy import special as sp

from .errors import DomainError, MomentUndefinedError, UnsupportedDistributionError

__all__ = [
    "Exponential",
    "Erlang",
    "MixtureExp2",
    "Pareto",
    "Kummer",
    "Distribution",
    "MomentSet",
    "moments",
    "pdf",
    "cdf",
    "sample",
    "mgf",
    "mgf_abscissa",
    "is_heavy_tailed",
    "has_bounded_density",
    "distribution_from_config",
]


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise DomainError("exponential rate must be finite and positive")


@dataclass(frozen=True)
class Erlang:
    """Erlang law: sum of ``shape`` i.i.d. exponentials with the given rate."""

    rate: float
    shape: int

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise DomainError("erlang rate must be finite and positive")
        if not (1 <= self.shape < math.inf and int(self.shape) == self.shape):
            raise DomainError("erlang shape must be a positive integer")


@dataclass(frozen=True)
class MixtureExp2:
    """Two-component exponential mixture: rate1 w.p. weight, else rate2."""

    rate1: float
    rate2: float
    weight: float

    def __post_init__(self):
        if not (0.0 < self.rate1 < math.inf and 0.0 < self.rate2 < math.inf):
            raise DomainError("mixture rates must be finite and positive")
        if not 0.0 < self.weight < 1.0:
            raise DomainError("mixture weight must lie in (0, 1)")


@dataclass(frozen=True)
class Pareto:
    """Pareto law in Lomax form, density ``a b / (x b + 1)^(a+1)``.

    ``scale`` is the parameter b; the j-th moment exists iff ``shape > j``.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise DomainError("pareto parameters must be finite and positive")


@dataclass(frozen=True)
class Kummer:
    """Kummer law with parameters (k, l); j-th moment exists iff 2j < l."""

    k: float
    l: float

    def __post_init__(self):
        if not (0.0 < self.k < math.inf and 0.0 < self.l < math.inf):
            raise DomainError("kummer parameters must be finite and positive")


Distribution = Union[Exponential, Erlang, MixtureExp2, Pareto, Kummer]


@dataclass(frozen=True)
class MomentSet:
    """Mean, variance and raw third moment (None when the integral diverges)."""

    mean: float
    variance: float
    third_moment: Optional[float]


def _raw_moments_pareto(d: Pareto, j: int) -> float:
    # E Y^j = j! / (b^j * (a-1)(a-2)...(a-j)), requires a > j
    out = math.factorial(j) / d.scale**j
    for i in range(1, j + 1):
        out /= d.shape - i
    return out


def _raw_moment_kummer(d: Kummer, j: int) -> float:
    # Gamma-ratio moment formula; requires 2j < l
    lg = (
        sp.gammaln(d.k / 2.0 + j)
        + sp.gammaln(d.l / 2.0 - j)
        - sp.gammaln(d.k / 2.0)
        - sp.gammaln(d.l / 2.0)
    )
    return math.exp(lg) * (d.l / d.k) ** j


def moments(d: Distribution) -> MomentSet:
    """Exact closed-form mean, variance and raw third moment.

    Raises:
        MomentUndefinedError: when the mean or variance does not exist
            (Pareto shape <= 2, Kummer l <= 4), naming the violated
            parameter constraint.  A nonexistent *third* moment is reported
            as ``third_moment=None`` instead, because downstream theorem
            checks consume that flag.
    """
    if isinstance(d, Exponential):
        r = d.rate
        return MomentSet(1.0 / r, 1.0 / r**2, 6.0 / r**3)
    if isinstance(d, Erlang):
        r, k = d.rate, d.shape
        return MomentSet(k / r, k / r**2, k * (k + 1) * (k + 2) / r**3)
    if isinstance(d, MixtureExp2):
        p, r1, r2 = d.weight, d.rate1, d.rate2
        m1 = p / r1 + (1.0 - p) / r2
        m2 = 2.0 * p / r1**2 + 2.0 * (1.0 - p) / r2**2
        m3 = 6.0 * p / r1**3 + 6.0 * (1.0 - p) / r2**3
        return MomentSet(m1, m2 - m1**2, m3)
    if isinstance(d, Pareto):
        if d.shape <= 1.0:
            raise MomentUndefinedError(f"pareto mean requires shape > 1, got {d.shape}")
        if d.shape <= 2.0:
            raise MomentUndefinedError(
                f"pareto variance requires shape > 2, got {d.shape}"
            )
        m1 = _raw_moments_pareto(d, 1)
        m2 = _raw_moments_pareto(d, 2)
        m3 = _raw_moments_pareto(d, 3) if d.shape > 3.0 else None
        return MomentSet(m1, m2 - m1**2, m3)
    if isinstance(d, Kummer):
        if d.l <= 2.0:
            raise MomentUndefinedError(f"kummer mean requires l > 2, got {d.l}")
        if d.l <= 4.0:
            raise MomentUndefinedError(f"kummer variance requires l > 4, got {d.l}")
        m1 = _raw_moment_kummer(d, 1)
        m2 = _raw_moment_kummer(d, 2)
        m3 = _raw_moment_kummer(d, 3) if d.l > 6.0 else None
        return MomentSet(m1, m2 - m1**2, m3)
    raise TypeError(f"unknown distribution {d!r}")


def pdf(d: Distribution, x):
    """Probability density at x > 0 (vectorized).

    Raises:
        UnsupportedDistributionError: for the Kummer family.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(d, Exponential):
        out = np.where(x >= 0.0, d.rate * np.exp(-d.rate * x), 0.0)
    elif isinstance(d, Erlang):
        r, k = d.rate, d.shape
        with np.errstate(divide="ignore", invalid="ignore"):
            logf = k * math.log(r) + (k - 1) * np.log(x) - r * x - sp.gammaln(k)
        out = np.where(x > 0.0, np.exp(logf), 0.0 if k > 1 else d.rate)
        if k == 1:
            out = np.where(x >= 0.0, d.rate * np.exp(-d.rate * x), 0.0)
    elif isinstance(d, MixtureExp2):
        out = np.where(
            x >= 0.0,
            d.weight * d.rate1 * np.exp(-d.rate1 * x)
            + (1.0 - d.weight) * d.rate2 * np.exp(-d.rate2 * x),
            0.0,
        )
    elif isinstance(d, Pareto):
        a, b = d.shape, d.scale
        out = np.where(x >= 0.0, a * b / (x * b + 1.0) ** (a + 1.0), 0.0)
    elif isinstance(d, Kummer):
        raise UnsupportedDistributionError(
            "kummer density requires the confluent hypergeometric U; "
            "only moments are supported"
        )
    else:
        raise TypeError(f"unknown distribution {d!r}")
    if out.ndim == 0:
        return float(out)
    return out


def cdf(d: Distribution, x):
    """Distribution function at x (vectorized).

    Raises:
        UnsupportedDistributionError: for the Kummer family.
    """
    x = np.asarray(x, dtype=float)
    xp = np.maximum(x, 0.0)
    if isinstance(d, Exponential):
        out = -np.expm1(-d.rate * xp)
    elif isinstance(d, Erlang):
        out = sp.gammainc(d.shape, d.rate * xp)
    elif isinstance(d, MixtureExp2):
        out = -(
            d.weight * np.expm1(-d.rate1 * xp)
            + (1.0 - d.weight) * np.expm1(-d.rate2 * xp)
        )
    elif isinstance(d, Pareto):
        out = 1.0 - (xp * d.scale + 1.0) ** (-d.shape)
    elif isinstance(d, Kummer):
        raise UnsupportedDistributionError("kummer cdf is not supported")
    else:
        raise TypeError(f"unknown distribution {d!r}")
    out = np.where(x < 0.0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def sample(d: Distribution, rng: np.random.Generator, size=None):
    """Draw i.i.d. variates using inversion (exact, no rejection constants).

    Erlang draws are sums of ``shape`` exponential inversions; the mixture
    picks its component by a Bernoulli(weight) branch.

    Raises:
        UnsupportedDistributionError: for the Kummer family.
    """
    n = 1 if size is None else int(size)
    if isinstance(d, Exponential):
        out = -np.log1p(-rng.random(n)) / d.rate
    elif isinstance(d, Erlang):
        u = rng.random((d.shape, n))
        out = -np.log1p(-u).sum(axis=0) / d.rate
    elif isinstance(d, MixtureExp2):
        branch = rng.random(n) < d.weight
        u = rng.random(n)
        rates = np.where(branch, d.rate1, d.rate2)
        out = -np.log1p(-u) / rates
    elif isinstance(d, Pareto):
        u = rng.random(n)
        out = ((1.0 - u) ** (-1.0 / d.shape) - 1.0) / d.scale
    elif isinstance(d, Kummer):
        raise UnsupportedDistributionError("kummer sampling is not supported")
    else:
        raise TypeError(f"unknown distribution {d!r}")
    if size is None:
        return float(out[0])
    return out


def mgf_abscissa(d: Distribution) -> float:
    """Supremum of r with E exp(rX) finite (0 for heavy-tailed families)."""
    if isinstance(d, Exponential):
        return d.rate
    if isinstance(d, Erlang):
        return d.rate
    if isinstance(d, MixtureExp2):
        return min(d.rate1, d.rate2)
    if isinstance(d, (Pareto, Kummer)):
        return 0.0
    raise TypeError(f"unknown distribution {d!r}")


def is_heavy_tailed(d: Distribution) -> bool:
    """True when the MGF diverges for every r > 0."""
    return mgf_abscissa(d) == 0.0


def mgf(d: Distribution, r: float) -> float:
    """Moment generating function E exp(rX).

    Returns ``math.inf`` at and above the abscissa of convergence.  For the
    Pareto family with r <= 0 the value is obtained by quadrature.  The
    Kummer family supports only r >= 0 (densityless; r > 0 diverges).
    DomainError unless r is a finite number.
    """
    try:
        r = float(r)
    except (TypeError, ValueError):
        raise DomainError(f"mgf requires a numeric r, got {r!r}") from None
    if not math.isfinite(r):
        raise DomainError(f"mgf requires a finite r, got {r}")
    if r == 0.0:
        return 1.0
    if isinstance(d, Exponential):
        return d.rate / (d.rate - r) if r < d.rate else math.inf
    if isinstance(d, Erlang):
        return (d.rate / (d.rate - r)) ** d.shape if r < d.rate else math.inf
    if isinstance(d, MixtureExp2):
        if r >= min(d.rate1, d.rate2):
            return math.inf
        return d.weight * d.rate1 / (d.rate1 - r) + (1.0 - d.weight) * d.rate2 / (
            d.rate2 - r
        )
    if isinstance(d, Pareto):
        if r > 0.0:
            return math.inf
        val, _ = integrate.quad(
            lambda x: math.exp(r * x) * pdf(d, x), 0.0, math.inf, limit=200
        )
        return val
    if isinstance(d, Kummer):
        if r > 0.0:
            return math.inf
        raise UnsupportedDistributionError(
            "kummer mgf at r < 0 needs the density, which is out of scope"
        )
    raise TypeError(f"unknown distribution {d!r}")


def has_bounded_density(d: Distribution) -> bool:
    """Symbolic boundedness check per family.

    Exponential, Erlang (integer shape >= 1), the mixture and the Lomax-form
    Pareto all have densities bounded by their value at 0.  The Kummer
    density behaves like ``x^{k/2-1}`` near 0, so it is bounded iff k >= 2.
    """
    if isinstance(d, (Exponential, Erlang, MixtureExp2, Pareto)):
        return True
    if isinstance(d, Kummer):
        return d.k >= 2.0
    raise TypeError(f"unknown distribution {d!r}")


_FAMILIES = {
    "exponential": (Exponential, ("rate",)),
    "erlang": (Erlang, ("rate", "shape")),
    "mixture2": (MixtureExp2, ("rate1", "rate2", "weight")),
    "pareto": (Pareto, ("shape", "scale")),
    "kummer": (Kummer, ("k", "l")),
}


def distribution_from_config(cfg: dict) -> Distribution:
    """Build a distribution from a ``{"family": name, **params}`` mapping.

    Parameters are converted to floats (an Erlang shape to an int when it
    is integral); DomainError for a value that is not a number.
    """
    try:
        family = cfg["family"]
    except (KeyError, TypeError):
        raise DomainError("distribution config needs a 'family' key") from None
    try:
        cls, keys = _FAMILIES[family]
    except KeyError:
        raise DomainError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        ) from None
    params = {k: v for k, v in cfg.items() if k != "family"}
    missing = [k for k in keys if k not in params]
    extra = [k for k in params if k not in keys]
    if missing or extra:
        raise DomainError(
            f"family {family!r} takes parameters {list(keys)}; "
            f"missing {missing}, unexpected {extra}"
        )
    try:
        params = {k: float(v) for k, v in params.items()}
    except (TypeError, ValueError):
        raise DomainError(f"family {family!r} parameters must be numbers, got {params}") from None
    if cls is Erlang and params["shape"].is_integer():
        params["shape"] = int(params["shape"])
    return cls(**params)
