"""The compound renewal risk model and its derived scalar constants.

Claims arrive at renewal epochs with i.i.d. inter-claim times T; each claim
has an i.i.d. size Y, independent of the arrival sequence.  The risk
reserve at time s is ``u + c s - V_s`` where V is the cumulative payout.

Two normalizations of the same model coexist and must not be conflated:

* the level-crossing constants ``M = ET/EY`` and
  ``D^2 = ((ET)^2 DY + (EY)^2 DT) / (EY)^3`` drive the inverse Gaussian
  ruin approximation (capital per unit of money);
* the aggregate-claims constants ``M_V = EY/ET`` and
  ``D_V^2 = ((ET)^2 DY + (EY)^2 DT) / (ET)^3`` drive the CLT for V_t
  (money per unit of operational time).

``c* = EY/ET`` is the equilibrium premium rate and equals ``1/M``.  The
two sets share their constants: ``c* = M_V`` and ``D/M^{3/2} = D_V``
(``capital_scale``), so the asymptotic non-ruin band and the CLT
Value-at-Risk capital are one formula (``approx._clt_capital``); M and
D^2 remain the parameters of the inverse Gaussian route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Distribution, Exponential
from .errors import ConstantsUnavailableError, DomainError, MomentRangeError, MomentUndefinedError
from .errors import check_real, check_real_array

__all__ = [
    "RiskModel",
    "DerivedConstants",
    "PreconditionReport",
    "derived_constants",
    "theorem_preconditions",
]

# c_grid_range's largest rate count; a preset's grid has at most 51 rates
_MAX_GRID_RATES = 10**6


@dataclass(frozen=True)
class RiskModel:
    """A pair (T-law, Y-law) of independent strictly positive laws."""

    t_law: Distribution
    y_law: Distribution

    def __post_init__(self):
        if not all(isinstance(law, Distribution) for law in (self.t_law, self.y_law)):
            raise DomainError(f"a risk model's laws must be Distribution instances, got {self}")

    def is_exponential_pair(self) -> bool:
        return isinstance(self.t_law, Exponential) and isinstance(
            self.y_law, Exponential
        )


@dataclass(frozen=True)
class DerivedConstants:
    """All scalar constants derived from the first two moments of (T, Y)."""

    c_star: float
    m_big: float
    d2_big: float
    m_v: float
    d2_v: float
    m_n: float
    d2_n: float

    @property
    def d_big(self) -> float:
        return self.d2_big**0.5

    @property
    def capital_scale(self) -> float:
        """D / M^{3/2} = D_V, the sqrt(t) coefficient in the capital asymptotics."""
        return self.d_big / self.m_big**1.5


@dataclass(frozen=True)
class PreconditionReport:
    """Which published hypotheses the model satisfies (diagnostic only)."""

    bounded_density_t: bool
    bounded_density_y: bool
    third_moment_t_finite: bool
    third_moment_y_finite: bool
    d2_positive: bool

    @property
    def capital_asymptotics_ok(self) -> bool:
        """Every hypothesis of the inverse Gaussian approximation and the capital asymptotics."""
        return all(vars(self).values())


def derived_constants(m: RiskModel) -> DerivedConstants:
    """Compute c*, (M, D^2), (M_V, D_V^2) and (M_N, D_N^2).

    D_V^2 = E(T EY - Y ET)^2 / (ET)^3 expands by independence to
    ((ET)^2 DY + (EY)^2 DT) / (ET)^3; D^2 is the same numerator over (EY)^3.
    Only the means and variances are read, so a third moment outside the
    float range leaves the constants available.

    Raises:
        ConstantsUnavailableError: when a mean or variance does not exist or
            lies outside the float range, naming the offending law, or when
            a constant does.
    """
    try:
        et, dt = m.t_law._mean_variance()
    except (MomentUndefinedError, MomentRangeError) as exc:
        raise ConstantsUnavailableError(f"T law: {exc}") from exc
    try:
        ey, dy = m.y_law._mean_variance()
    except (MomentUndefinedError, MomentRangeError) as exc:
        raise ConstantsUnavailableError(f"Y law: {exc}") from exc
    # the plain formulas, else the moments scaled to centre the means' exponents on 0
    out = _constants(et, dt, ey, dy, 0)
    if out is None:
        out = _constants(et, dt, ey, dy, (math.frexp(et)[1] + math.frexp(ey)[1]) // 2)
    if out is None:
        raise ConstantsUnavailableError(f"{m}: a derived constant lies outside the float range")
    return out


def _constants(et: float, dt: float, ey: float, dy: float, k: int) -> DerivedConstants | None:
    """The constants, the spreads from the moments scaled by s = 2**-k and scaled back, or
    None where one leaves the float range.  The scaling is exact while nothing turns
    subnormal; D^2 and D_V^2 are of degree 1 in s and D_N^2 of degree -1."""
    try:
        c_star, m_big, m_n, s = ey / et, et / ey, 1.0 / et, math.ldexp(1.0, -k)
        et, ey, dt, dy = et * s, ey * s, dt * s * s, dy * s * s
        num = et**2 * dy + ey**2 * dt
        d2_big, d2_v, d2_n = num / ey**3 / s, num / et**3 / s, dt / et**3 * s
    except (OverflowError, ZeroDivisionError):
        return None
    if not all(map(math.isfinite, (c_star, m_big, m_n, d2_big, d2_v, d2_n))):
        return None
    return DerivedConstants(c_star, m_big, d2_big, c_star, d2_v, m_n, d2_n)


def _third_finite(d: Distribution) -> bool:
    try:
        return d.moments().third_moment is not None
    except MomentUndefinedError:
        return False


def theorem_preconditions(m: RiskModel) -> PreconditionReport:
    """Report whether the model satisfies the stated approximation hypotheses;
    MomentRangeError where a law has a moment outside the float range."""
    try:
        d2 = derived_constants(m).d2_big
        d2_positive = d2 > 0.0
    except ConstantsUnavailableError:
        d2_positive = False
    return PreconditionReport(
        bounded_density_t=m.t_law.bounded_density,
        bounded_density_y=m.y_law.bounded_density,
        third_moment_t_finite=_third_finite(m.t_law),
        third_moment_y_finite=_third_finite(m.y_law),
        d2_positive=d2_positive,
    )


def check_alpha(alpha: float) -> float:
    """The capital target level as a float; DomainError unless 0 < alpha < 1/2.

    Shared by every entry point that solves for a capital: the capital
    solvers, the bounds, the approximations and the Monte Carlo quantile
    estimators.
    """
    return check_real("alpha", alpha, above=0.0, below=0.5)


def check_c_grid(c_grid) -> list[float]:
    """A premium-rate grid as a list of floats.

    DomainError unless the grid is 1-D, strictly increasing, finite and
    nonnegative; shared by ``capital_curve``, ``ruin_curve`` and
    ``simulate_curve``.
    """
    cs = check_real_array("c_grid", c_grid, at_least=0.0)
    if cs.ndim != 1 or (np.diff(cs) <= 0.0).any():
        raise DomainError(f"c_grid must be a strictly increasing 1-D grid, got {c_grid!r}")
    return cs.tolist()


def c_grid_range(start: float, stop: float, step: float) -> list[float]:
    """The premium grid start, start + step, ..., stop of the CLI and the presets.

    Rates are rounded to 12 decimals, so each equals the decimal it names
    (0.15, not 0.15000000000000002).  DomainError unless all three are
    finite, step > 0, stop >= start and the grid has at most 10**6 rates.
    """
    start = check_real("start", start)
    stop = check_real("stop", stop, at_least=start)
    step = check_real("step", step, above=0.0)
    steps = (stop - start) / step
    if not steps <= _MAX_GRID_RATES - 1:  # false for an infinite count too
        raise DomainError(
            f"the grid {start!r} to {stop!r} by {step!r} has more than {_MAX_GRID_RATES} rates"
        )
    return [round(start + i * step, 12) for i in range(int(round(steps)) + 1)]
