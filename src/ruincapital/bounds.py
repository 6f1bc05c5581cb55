"""Adjustment coefficient and exponential-type capital bounds.

The adjustment coefficient kappa is the positive root of Lundberg's
equation ``E exp{r (Y - cT)} = 1``.  It exists only for light-tailed claim
sizes and premium rates above the equilibrium rate c*, and yields the
Markov-type bound ``P{ruin ever} <= exp(-kappa u)`` together with two-sided
refinements ``b_minus e^{-kappa u} <= P{ruin ever} <= b_plus e^{-kappa u}``
(Asmussen & Albrecher, *Ruin Probabilities*, 2010).  The prefactors are the
inf and sup over x of the claim law's tilted tail ratio, which is monotone
for every light-tailed family here, so they are its two closed-form ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dist
from .dist import Distribution
from .errors import BracketError, NoAdjustmentCoefficientError, check_real
from .model import RiskModel, check_alpha, derived_constants
from .special import brentq

__all__ = [
    "AdjustmentCoefficient",
    "RatioBounds",
    "adjustment_coefficient",
    "capital_upper_bound_lundberg",
    "lundberg_ratio_bounds",
    "ultimate_capital_interval",
]

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class AdjustmentCoefficient:
    """Positive Lundberg root with the method that produced it."""

    kappa: float
    method: str


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
        if not kappa > 0.0:  # c within rounding of c*
            raise NoAdjustmentCoefficientError(f"kappa = rho - delta/c is {kappa!r} at c = {c!r}")
        return AdjustmentCoefficient(kappa, "closed_form")

    abscissa = m.y_law.mgf_abscissa
    lo = 1e-12
    hi = 0.999999 * abscissa

    # every value of g is kept by r: brentq starts from the bracket ends the
    # walks below already evaluated, and its last iterate is kappa, so the
    # residual is looked up too
    known: dict[float, float] = {}

    def g(r):
        if r not in known:
            known[r] = _mgf_product(m, c, r) - 1.0
        return known[r]

    g_hi = g(hi)
    # near the abscissa the product blows up; walk hi down until finite
    iters = 0
    while not math.isfinite(g_hi) and iters < 200:
        hi *= 0.5
        g_hi = g(hi)
        iters += 1
    g_lo = g(lo)
    # g is convex with g(0) = 0 and g'(0) < 0, so g < 0 on (0, kappa); where
    # g(1e-12) is below the error of a quadrature MGF (Pareto arrivals), walk
    # lo down from hi into that interval
    if not g_lo < 0.0:
        lo, iters = hi, 0
        while not g_lo < 0.0 and iters < 200:
            lo *= 0.5
            g_lo = g(lo)
            iters += 1
    if not g_lo < 0.0 or g_hi <= 0.0:
        raise BracketError(
            "Lundberg root bracket failed: no sign change on "
            f"({lo:.3g}, {hi:.6g})"
        )
    kappa = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
    residual = abs(g(kappa))
    if residual > _RESIDUAL_TOL:
        raise BracketError(
            f"Lundberg root residual {residual:.2e} exceeds {_RESIDUAL_TOL}"
        )
    return AdjustmentCoefficient(kappa, "root_find")


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


def _ratio_ends(y: Distribution, kappa: float) -> RatioBounds:
    """Sorted ends of Y's tilted tail ratio at kappa (see lundberg_ratio_bounds)."""
    return RatioBounds(*sorted((1.0 / dist.mgf(y, kappa), 1.0 - kappa / y.mgf_abscissa)))


def lundberg_ratio_bounds(m: RiskModel, c: float) -> RatioBounds:
    """Inf/sup over x >= 0 of the claim-size law's exponentially tilted tail ratio.

    The ratio e^{kappa x} P{Y > x} / E[e^{kappa Y}; Y > x] is monotone, so
    b_minus and b_plus are its ends, sorted: 1/E e^{kappa Y} at x = 0 and
    1 - kappa/a as x grows, a the abscissa of Y's MGF.  It is constant for
    Exponential(rho); it decreases for MixtureExp2, whose tilted weight
    moves to the smaller rate; it increases for Erlang(k, r), whose
    log-derivative [g(rx) - g((r - kappa)x)]/x has g(y) = E[N | N <= k - 1],
    N ~ Poisson(y), increasing.  Heavy-tailed claims have no kappa and raise.
    """
    return _ratio_ends(m.y_law, adjustment_coefficient(m, c).kappa)


def ultimate_capital_interval(m: RiskModel, alpha: float, c: float) -> tuple[float, float]:
    """Two-sided enclosure of the ultimate capital for light-tailed models.

    From ``b_minus e^{-kappa u} <= P <= b_plus e^{-kappa u}`` the capital
    solving P = alpha lies in ``[ln(b_minus/alpha)/kappa,
    ln(b_plus/alpha)/kappa]``, each endpoint 0 where its prefactor is at most
    alpha; for exponential claims it is one point, the exact capital.
    """
    alpha = check_alpha(alpha)
    kappa = adjustment_coefficient(m, c).kappa
    rb = _ratio_ends(m.y_law, kappa)
    lo, hi = (0.0 if b <= alpha else math.log(b / alpha) / kappa for b in (rb.b_minus, rb.b_plus))
    return lo, hi
