"""Parametric families for inter-claim times T and claim sizes Y.

Five families are supported: exponential, Erlang, two-component exponential
mixture, Pareto (in the Lomax form ``f(x) = a b / (x b + 1)^(a+1)``) and
Kummer.  Each is one frozen dataclass that subclasses :class:`Distribution`
and owns the formulas the library computes with: moments, the moment
generating function and a sampler, but no density or distribution function.
The Kummer family is moments-only: its density involves the confluent
hypergeometric function U and is not evaluated, so ``sample`` and its MGF
below 0 raise :class:`UnsupportedDistributionError`.

Moment generating functions return ``math.inf`` when the defining integral
diverges, at and above a law's ``mgf_abscissa``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import DomainError, MomentRangeError, MomentUndefinedError, check_real
from .errors import UnsupportedDistributionError
from .special import _scipy_special

__all__ = [
    "Exponential",
    "Erlang",
    "MixtureExp2",
    "Pareto",
    "Kummer",
    "Distribution",
    "MomentSet",
    "sample",
    "mgf",
    "distribution_from_config",
]


@dataclass(frozen=True)
class MomentSet:
    """Mean, variance and raw third moment (None when the integral diverges)."""

    mean: float
    variance: float
    third_moment: Optional[float]


def _from_raw(raw, third_exists: bool) -> MomentSet:
    m1 = raw(1)
    m2 = raw(2)
    m3 = raw(3) if third_exists else None
    return MomentSet(m1, m2 - m1**2, m3)


class Distribution:
    """A law of a strictly positive random variable.

    ``mgf_abscissa`` is the supremum of r with E exp(rX) finite (0 for a
    heavy-tailed family); ``bounded_density`` says whether the density is
    bounded.  ``draw`` takes a generator and a count and ``mgf`` a nonzero r
    below the abscissa; call them through ``sample`` and ``mgf``.  A family
    without a formula inherits the method here, which raises
    UnsupportedDistributionError.  Every parameter of every family is a
    finite positive real number, checked and stored as a float by
    ``__post_init__`` here; a family with further constraints extends it.
    """

    family = ""
    mgf_abscissa = 0.0
    bounded_density = True

    def __post_init__(self):
        for f in fields(self):
            v = check_real(f"{self.family} {f.name}", getattr(self, f.name), above=0.0)
            object.__setattr__(self, f.name, v)

    def moments(self) -> MomentSet:
        """The family's closed-form mean, variance and raw third moment (``_moments``).

        MomentUndefinedError, naming the violated parameter constraint, when
        the mean or variance does not exist (Pareto shape <= 2, Kummer
        l <= 4).  A nonexistent *third* moment is ``third_moment=None``
        instead, because downstream theorem checks consume that flag.
        MomentRangeError, naming the law, when a moment that exists lies
        outside the float range (a rate or scale beyond about 1e±100).
        """
        return self._checked_moments(third=True)

    def _mean_variance(self) -> tuple[float, float]:
        """The mean and variance alone, checked as ``moments()`` checks them; the
        third moment is neither computed nor checked (the derived constants)."""
        out = self._checked_moments(third=False)
        return out.mean, out.variance

    def _checked_moments(self, third: bool) -> MomentSet:
        """``_moments(third)``, MomentRangeError unless every moment it computes is
        finite.  Without ``third`` its None means "not computed", so only
        ``_mean_variance`` asks for that and passes on the mean and variance."""
        try:
            out = self._moments(third)
            m3 = out.third_moment or 0.0
            if math.isfinite(out.mean) and math.isfinite(out.variance) and math.isfinite(m3):
                return out
        except (OverflowError, ZeroDivisionError):  # a power past the float range
            pass
        raise MomentRangeError(f"{self!r} has a moment outside the float range")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise UnsupportedDistributionError(f"{self.family} sampling is not supported")

    def mgf(self, r: float) -> float:
        raise UnsupportedDistributionError(f"{self.family} mgf at r = {r} needs the density")


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential law with the given rate."""

    family = "exponential"
    rate: float

    mgf_abscissa = property(lambda self: self.rate)

    def _moments(self, third: bool) -> MomentSet:
        r = self.rate
        return MomentSet(1.0 / r, 1.0 / r**2, 6.0 / r**3 if third else None)

    def draw(self, rng, n):
        # in place: log1p(-u) / (-rate) is -log1p(-u) / rate exactly
        u = rng.random(n)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= -self.rate
        return u

    def mgf(self, r):
        return self.rate / (self.rate - r)


@dataclass(frozen=True)
class Erlang(Distribution):
    """Erlang law: sum of ``shape`` i.i.d. exponentials with the given rate.

    An integral float shape is stored as an int.
    """

    family = "erlang"
    rate: float
    shape: int

    def __post_init__(self):
        super().__post_init__()
        if not (1 <= self.shape and int(self.shape) == self.shape):
            raise DomainError("erlang shape must be a positive integer")
        object.__setattr__(self, "shape", int(self.shape))

    mgf_abscissa = property(lambda self: self.rate)

    def _moments(self, third: bool) -> MomentSet:
        r, k = self.rate, self.shape
        return MomentSet(k / r, k / r**2, k * (k + 1) * (k + 2) / r**3 if third else None)

    def draw(self, rng, n):
        # one row of uniforms at a time, so memory stays O(n) for any shape
        total = np.zeros(n)
        u = np.empty(n)
        for _ in range(self.shape):
            rng.random(out=u)
            np.negative(u, out=u)
            np.log1p(u, out=u)
            total += u
        total /= -self.rate
        return total

    def mgf(self, r):
        try:
            return (self.rate / (self.rate - r)) ** self.shape
        except OverflowError:  # a float power past the float range, near the abscissa
            return math.inf


@dataclass(frozen=True)
class MixtureExp2(Distribution):
    """Two-component exponential mixture: rate1 w.p. weight, else rate2."""

    family = "mixture2"
    rate1: float
    rate2: float
    weight: float

    def __post_init__(self):
        super().__post_init__()
        check_real("mixture2 weight", self.weight, below=1.0)

    mgf_abscissa = property(lambda self: min(self.rate1, self.rate2))

    def _moments(self, third: bool) -> MomentSet:
        p, r1, r2 = self.weight, self.rate1, self.rate2
        m1 = p / r1 + (1.0 - p) / r2
        m2 = 2.0 * p / r1**2 + 2.0 * (1.0 - p) / r2**2
        m3 = 6.0 * p / r1**3 + 6.0 * (1.0 - p) / r2**3 if third else None
        return MomentSet(m1, m2 - m1**2, m3)

    def draw(self, rng, n):
        branch = rng.random(n) < self.weight
        u = rng.random(n)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= np.where(branch, -self.rate1, -self.rate2)
        return u

    def mgf(self, r):
        p, r1, r2 = self.weight, self.rate1, self.rate2
        return p * r1 / (r1 - r) + (1.0 - p) * r2 / (r2 - r)


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto law in Lomax form, density ``a b / (x b + 1)^(a+1)``.

    ``scale`` is the parameter b; the j-th moment exists iff ``shape > j``.
    """

    family = "pareto"
    shape: float
    scale: float

    def _raw(self, j: int) -> float:
        # E Y^j = j! / (b^j * (a-1)(a-2)...(a-j)), requires a > j
        out = math.factorial(j) / self.scale**j
        for i in range(1, j + 1):
            out /= self.shape - i
        return out

    def _moments(self, third: bool) -> MomentSet:
        if self.shape <= 1.0:
            raise MomentUndefinedError(f"pareto mean requires shape > 1, got {self.shape}")
        if self.shape <= 2.0:
            raise MomentUndefinedError(f"pareto variance requires shape > 2, got {self.shape}")
        return _from_raw(self._raw, third and self.shape > 3.0)

    def draw(self, rng, n):
        u = rng.random(n)
        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.shape
        u -= 1.0
        u /= self.scale
        return u

    def mgf(self, r):
        # r < 0: no closed form, so integrate e^{rx} against the density; only
        # the Lundberg solve for Pareto arrivals gets here, so scipy.integrate
        # is imported on first use, not with the package
        from scipy import integrate

        a, b = self.shape, self.scale
        f = lambda x: math.exp(r * x) * (a * b / (x * b + 1.0) ** (a + 1.0))
        return integrate.quad(f, 0.0, math.inf, limit=200)[0]


@dataclass(frozen=True)
class Kummer(Distribution):
    """Kummer law with parameters (k, l); j-th moment exists iff 2j < l.

    Moments only: no sampler, and no MGF below 0, whose integral would need
    the density.  That density behaves like ``x^{k/2-1}`` near 0, so it is
    bounded iff k >= 2.
    """

    family = "kummer"
    k: float
    l: float

    bounded_density = property(lambda self: self.k >= 2.0)

    def _raw(self, j: int) -> float:
        # Gamma-ratio moment formula; requires 2j < l
        sp = _scipy_special()
        lg = (
            sp.gammaln(self.k / 2.0 + j)
            + sp.gammaln(self.l / 2.0 - j)
            - sp.gammaln(self.k / 2.0)
            - sp.gammaln(self.l / 2.0)
        )
        return math.exp(lg) * (self.l / self.k) ** j

    def _moments(self, third: bool) -> MomentSet:
        if self.l <= 2.0:
            raise MomentUndefinedError(f"kummer mean requires l > 2, got {self.l}")
        if self.l <= 4.0:
            raise MomentUndefinedError(f"kummer variance requires l > 4, got {self.l}")
        return _from_raw(self._raw, third and self.l > 6.0)


def sample(d: Distribution, rng: np.random.Generator, size=None):
    """Draw i.i.d. variates using inversion (exact, no rejection constants).

    Erlang draws are sums of ``shape`` exponential inversions; the mixture
    picks its component by a Bernoulli(weight) branch, drawn before the
    variates.  UnsupportedDistributionError for the Kummer family;
    DomainError unless ``size`` is None or a nonnegative integer (an
    integral float such as 4000.0 counts).
    """
    n = 1.0 if size is None else check_real("sample size", size, at_least=0.0)
    if n != int(n):
        raise DomainError(f"sample size must be a nonnegative integer, got {size!r}")
    out = d.draw(rng, int(n))
    return float(out[0]) if size is None else out


def mgf(d: Distribution, r: float) -> float:
    """Moment generating function E exp(rX).

    Returns ``math.inf`` at and above the abscissa of convergence.  For the
    Pareto family with r < 0 the value is obtained by quadrature.  The
    Kummer family supports only r >= 0 (densityless; r > 0 diverges).
    DomainError unless r is a finite number.
    """
    r = check_real("r", r)
    if r == 0.0:
        return 1.0
    if r >= d.mgf_abscissa:
        return math.inf
    return d.mgf(r)


_FAMILIES = {cls.family: cls for cls in (Exponential, Erlang, MixtureExp2, Pareto, Kummer)}


def distribution_from_config(cfg: dict) -> Distribution:
    """Build a distribution from a ``{"family": name, **params}`` mapping.

    The family checks its parameters, so a value that is not a number, a
    numeric string included, is DomainError.
    """
    try:
        family = cfg["family"]
    except (KeyError, TypeError):
        raise DomainError("distribution config needs a 'family' key") from None
    try:
        cls = _FAMILIES[family]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        ) from None
    keys = [f.name for f in fields(cls)]
    params = {k: v for k, v in cfg.items() if k != "family"}
    missing = [k for k in keys if k not in params]
    extra = [k for k in params if k not in keys]
    if missing or extra:
        raise DomainError(
            f"family {family!r} takes parameters {keys}; "
            f"missing {missing}, unexpected {extra}"
        )
    return cls(**params)
