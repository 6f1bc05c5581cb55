"""Adjustment coefficient and exponential-type capital bounds.

The adjustment coefficient kappa is the positive root of Lundberg's
equation ``E exp{r (Y - cT)} = 1``.  It exists only for light-tailed claim
sizes and premium rates above the equilibrium rate c*, and yields the
Markov-type bound ``P{ruin ever} <= exp(-kappa u)`` together with two-sided
refinements with constant prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from . import dist
from .dist import Distribution, Exponential
from .errors import (
    BracketError,
    DomainError,
    InfiniteCapitalError,
    NoAdjustmentCoefficientError,
    check_real,
)
from .exact import ExpPair
from .model import RiskModel, check_alpha, derived_constants

__all__ = [
    "AdjustmentCoefficient",
    "RatioBounds",
    "adjustment_coefficient",
    "capital_upper_bound_lundberg",
    "lundberg_ratio_bounds",
    "ultimate_capital_exp",
    "ultimate_capital_interval",
]

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class AdjustmentCoefficient:
    """Positive Lundberg root with the method and bracket that produced it."""

    kappa: float
    method: str
    bracket: tuple[float, float]


def _mgf_product(m: RiskModel, c: float, r: float) -> float:
    """E exp{r Y} * E exp{-r c T}, the moment generating function of Y - cT."""
    a = dist.mgf(m.y_law, r)
    if math.isinf(a):
        return math.inf
    return a * dist.mgf(m.t_law, -r * c)


def adjustment_coefficient(m: RiskModel, c: float) -> AdjustmentCoefficient:
    """Solve Lundberg's equation for the premium rate c.

    The exponential/exponential pair has the closed form kappa = rho -
    delta/c.  Every other light-tailed pair is solved by bracketed
    root-finding on (0, abscissa of Y's MGF); the log of the MGF product is
    convex with negative slope at 0 exactly when c > c*, so the positive
    root is unique.

    Raises:
        NoAdjustmentCoefficientError: heavy-tailed Y, or c <= c*.
    """
    c = check_real("c", c, above=0.0)
    if m.y_law.mgf_abscissa == 0.0:
        raise NoAdjustmentCoefficientError(
            "adjustment coefficient does not exist for heavy-tailed claim sizes"
        )
    c_star = derived_constants(m).c_star
    if c <= c_star:
        raise NoAdjustmentCoefficientError(
            f"no positive Lundberg root for c = {c} <= c* = {c_star:.6g}"
        )
    if m.is_exponential_pair():
        delta = m.t_law.rate
        rho = m.y_law.rate
        kappa = rho - delta / c
        return AdjustmentCoefficient(kappa, "closed_form", (0.0, rho))

    abscissa = m.y_law.mgf_abscissa
    lo = 1e-12
    hi = 0.999999 * abscissa

    def g(r):
        return _mgf_product(m, c, r) - 1.0

    g_hi = g(hi)
    # near the abscissa the product blows up; walk hi down until finite
    iters = 0
    while not math.isfinite(g_hi) and iters < 200:
        hi *= 0.5
        g_hi = g(hi)
        iters += 1
    if g(lo) >= 0.0 or g_hi <= 0.0:
        raise BracketError(
            "Lundberg root bracket failed: no sign change on "
            f"({lo:.3g}, {hi:.6g})"
        )
    kappa = float(optimize.brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16))
    residual = abs(_mgf_product(m, c, kappa) - 1.0)
    if residual > _RESIDUAL_TOL:
        raise BracketError(
            f"Lundberg root residual {residual:.2e} exceeds {_RESIDUAL_TOL}"
        )
    return AdjustmentCoefficient(kappa, "root_find", (lo, hi))


def capital_upper_bound_lundberg(m: RiskModel, alpha: float, c: float) -> float:
    """Markov-bound capital -ln(alpha)/kappa (no prefactor refinement)."""
    alpha = check_alpha(alpha)
    kappa = adjustment_coefficient(m, c).kappa
    return -math.log(alpha) / kappa


@dataclass(frozen=True)
class RatioBounds:
    """Prefactor pair for the two-sided exponential ruin bounds.

    ``b_minus e^{-kappa u} <= P{ruin ever} <= b_plus e^{-kappa u}``.
    """

    b_minus: float
    b_plus: float

    def __post_init__(self):
        if not 0.0 <= self.b_minus <= self.b_plus:
            raise DomainError(
                f"ratio bounds out of order: {self.b_minus} > {self.b_plus}"
            )


def _exp_moment_tail(d: Distribution, kappa: float, z: float) -> float:
    """int_z^inf e^{kappa y} dF(y) for a light-tailed claim-size law."""
    if isinstance(d, Exponential):
        r = d.rate
        return r / (r - kappa) * math.exp(-(r - kappa) * max(z, 0.0))
    lo = max(z, 0.0)
    # the tilted integrand decays like exp(-(abscissa - kappa) y); truncate
    # where it is below 1e-35 of its scale and compose exp(.) in log space
    # so intermediate exp(kappa y) never overflows
    gap = d.mgf_abscissa - kappa
    if not gap > 0.0:
        raise DomainError("exponential moment diverges at this kappa")
    hi = lo + 85.0 / gap

    def igrand(y):
        p = dist.pdf(d, y)
        if p <= 0.0:
            return 0.0
        return math.exp(kappa * y + math.log(p))

    val, _ = integrate.quad(igrand, lo, hi, limit=200)
    return val


def _tail_quantile(d: Distribution, eps: float) -> float:
    """The point x with 1 - F(x) = eps, found by bracketed root-finding."""
    hi = 1.0
    while 1.0 - float(dist.cdf(d, hi)) > eps:
        hi *= 2.0
        if hi > 1e12:
            raise BracketError("tail quantile bracket expansion failed")
    return float(optimize.brentq(lambda x: float(dist.cdf(d, x)) - (1.0 - eps), 0.0, hi))


def _tilted_tail_ratio(m: RiskModel, kappa: float, x: float) -> float:
    """e^{kappa x} P{Y > x} / E[e^{kappa Y}; Y > x] for the claim size Y."""
    tail = 1.0 - float(dist.cdf(m.y_law, x))
    if tail <= 0.0:
        return 1.0
    return math.exp(kappa * x) * tail / _exp_moment_tail(m.y_law, kappa, x)


def lundberg_ratio_bounds(m: RiskModel, c: float) -> RatioBounds:
    """Inf/sup over x >= 0 of the claim-size law's exponentially tilted tail ratio.

    The ratio is e^{kappa x} P{Y > x} / E[e^{kappa Y}; Y > x], the constant
    1 - kappa/rho for exponential claims; b_plus is capped at 1.
    """
    kappa = adjustment_coefficient(m, c).kappa
    ratio = lambda x: _tilted_tail_ratio(m, kappa, x)

    # coarse log-spaced scan up to the 1 - 1e-10 quantile (beyond it the
    # tail 1 - F loses all precision), then golden-section refinement
    # around the grid extremizers
    x_max = _tail_quantile(m.y_law, 1e-10)
    xs = np.concatenate([[0.0], np.logspace(-3.0, math.log10(x_max), 41)])
    vals = np.array([ratio(float(x)) for x in xs])
    lo_i = int(np.argmin(vals))
    hi_i = int(np.argmax(vals))

    def refine(i, sign):
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, len(xs) - 1)]
        if b <= a:
            return vals[i]
        res = optimize.minimize_scalar(
            lambda x: sign * ratio(float(x)), bounds=(a, b), method="bounded"
        )
        return sign * res.fun

    b_minus = min(float(vals[lo_i]), float(refine(lo_i, 1.0)))
    b_plus = min(max(float(vals[hi_i]), float(refine(hi_i, -1.0))), 1.0)
    b_minus = min(b_minus, b_plus)
    return RatioBounds(b_minus=max(b_minus, 0.0), b_plus=b_plus)


def ultimate_capital_exp(p: ExpPair, alpha: float, c: float) -> float:
    """Smallest capital with ultimate ruin probability at most alpha.

    Exact in the exponential pair: inverts q exp(-u(c rho - delta)/c) =
    alpha.  Clamped at 0 when even u = 0 already satisfies the target.

    Raises:
        InfiniteCapitalError: for c <= c*, where ultimate ruin is certain
            at every capital level.
    """
    alpha = check_alpha(alpha)
    c = check_real("c", c)
    if c <= p.delta / p.rho:
        raise InfiniteCapitalError(
            "ultimate capital is infinite for c <= c* = delta/rho"
        )
    arg = alpha * c * p.rho / p.delta
    if arg >= 1.0:
        return 0.0
    return -math.log(arg) * c / (c * p.rho - p.delta)


def ultimate_capital_interval(m: RiskModel, alpha: float, c: float) -> tuple[float, float]:
    """Two-sided enclosure of the ultimate capital for light-tailed models.

    From ``b_minus e^{-kappa u} <= P <= b_plus e^{-kappa u}`` the capital
    solving P = alpha lies in ``[ln(b_minus/alpha)/kappa,
    ln(b_plus/alpha)/kappa]``, each endpoint clamped at 0.
    """
    alpha = check_alpha(alpha)
    ac = adjustment_coefficient(m, c)
    rb = lundberg_ratio_bounds(m, c)
    lo = max(0.0, math.log(rb.b_minus / alpha) / ac.kappa) if rb.b_minus > 0 else 0.0
    hi = max(0.0, math.log(rb.b_plus / alpha) / ac.kappa)
    return lo, hi
