"""Approximation formulas for ruin probabilities and capitals.

Four families live here:

* the CLT-based Value-at-Risk capital (normal approximation of V_t);
* the uniform inverse Gaussian approximation of the finite-horizon ruin
  probability, in both its integral and closed forms;
* the exponential-case normal (Cramer-type) ruin approximation with its
  explicit constants;
* the asymptotic endpoint values and bilateral bounds for the non-ruin
  capital as a function of the premium rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .errors import DomainError, ExcludedCaseError, IntegrationError, check_real, check_real_array
from .exact import ExpPair
from .model import RiskModel, check_alpha, derived_constants, theorem_preconditions
from .special import inverse_gaussian_cdf, normal_pdf, std_normal_cdf, std_normal_quantile

__all__ = [
    "CramerConstants",
    "AsymptoticEndpoints",
    "var_clt",
    "ig_ruin_probability",
    "cramer_constants_exp",
    "cramer_ruin_exp",
    "capital_asymptotic_endpoints",
    "capital_asymptotic_bounds",
]

# Width of the window around cM = 1 in which the closed form switches to
# the zero-drift limit of the inverse Gaussian distribution function.  The
# closed form is stable for arbitrarily large mu, so the window only needs
# to absorb floating-point ties at cM == 1.
_BOUNDARY_EPS = 1e-12


def var_clt(m: RiskModel, alpha: float, t: float, c: float) -> float:
    """CLT approximation of the Value-at-Risk capital.

    ``max{0, (M_V - c) t + z_alpha D_V sqrt(t)}`` where z_alpha is the
    upper alpha-quantile of the standard normal law.
    """
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    c = check_real("c", c, at_least=0.0)
    k = derived_constants(m)
    z = std_normal_quantile(1.0 - alpha)
    return max(0.0, (k.m_v - c) * t + z * k.d_v * math.sqrt(t))


def _ig_integral(u: float, c: float, t: float, m_big: float, d2_big: float) -> float:
    """The defining integral of ig_ruin_probability by quadrature; its closed form's reference."""
    # integrand: (x+1)^{-1} times a Gaussian density in x with mean
    # cM(x+1) and variance (c^2 D^2 / u)(x+1)
    cm = c * m_big
    v0 = c * c * d2_big / u

    def integrand(x):
        y = x + 1.0
        return normal_pdf(x, cm * y, v0 * y) / y

    hi = c * t / u
    if hi <= 0.0:
        return 0.0
    pts = None
    if cm < 1.0:
        # the Gaussian peak sits at the fixed point x = cM(x+1)
        xstar = cm / (1.0 - cm)
        if 0.0 < xstar < hi:
            pts = [xstar]
    val, err = integrate.quad(
        integrand, 0.0, hi, points=pts, limit=200, epsabs=1e-10, epsrel=1e-10
    )
    if err > 1e-7:
        raise IntegrationError(
            f"inverse Gaussian integral error estimate {err:.2e}", err
        )
    return float(min(1.0, max(0.0, val)))


def _ig_closed(u, c: float, t: float, m_big: float, d2_big: float):
    # difference of IG(mu, lam) distribution functions with mu = 1/|1 - cM|;
    # supercritical rates reflect the drift and scale the mass to exp(-2 lam/mu)
    cm = c * m_big
    lam = u / (c * c * d2_big)
    mu = math.inf if 1.0 - _BOUNDARY_EPS <= cm <= 1.0 + _BOUNDARY_EPS else 1.0 / abs(1.0 - cm)
    scale = np.exp(-2.0 * lam / mu) if cm > 1.0 else 1.0
    cdf = lambda x: inverse_gaussian_cdf(x, mu, lam)
    return np.clip(scale * (cdf(c * t / u + 1.0) - cdf(1.0)), 0.0, 1.0)


def ig_ruin_probability(m: RiskModel, u, c: float, t: float):
    """Inverse Gaussian approximation of P{ruin within [0, t]}.

    The defining integral over [0, ct/u] (:func:`_ig_integral`, kept as the
    reference) has the closed form
    ``scale * [F(ct/u + 1) - F(1)]``, F the IG(mu, u/(c^2 D^2)) distribution
    function with mu = 1/|1 - cM|, scale 1 for cM <= 1 and exp(-2 lam/mu)
    above.  The two agree to ~1e-9 away from the regime boundary cM = 1,
    where the closed form uses the zero-drift limit mu = inf.  u is a float
    or a 1-D array and the result is the same; every entry is checked, and
    the array values equal the scalar calls.  c = 0 is outside the domain:
    there the aggregate-claims distribution function answers.  Raises
    IntegrationError when u/(c^2 D^2) is not finite (huge u or tiny c).
    """
    scalar = np.isscalar(u)
    u = check_real("u", u, above=0.0) if scalar else check_real_array("u", u, above=0.0)
    c = check_real("c", c, above=0.0)
    t = check_real("t", t, at_least=0.0)
    if t == 0.0:
        return 0.0 if scalar else np.zeros_like(u)
    k = derived_constants(m)
    # the IG shape lam = u/(c^2 D^2) overflows, or divides by zero, at extreme u or c
    d = c * c * k.d2_big
    if d == 0.0 or math.isinf((u if scalar else float(u.max(initial=0.0))) / d):
        raise IntegrationError(f"inverse Gaussian shape u/(c^2 D^2) is not finite at c = {c!r}")
    val = _ig_closed(u, c, t, k.m_big, k.d2_big)
    return float(val) if scalar else val


@dataclass(frozen=True)
class CramerConstants:
    """Constants of the exponential-case normal ruin approximation.

    The sub- and supercritical branches use different (mean, variance)
    pairs; fields from the regime that does not apply at the given premium
    rate are None.
    """

    big_c: float
    kappa: float
    m_sub: Optional[float]
    d2_sub: Optional[float]
    m_super: Optional[float]
    d2_super: Optional[float]


def cramer_constants_exp(p: ExpPair, c: float) -> CramerConstants:
    """Evaluate the printed constant formulas at premium rate c.

    Raises:
        ExcludedCaseError: at c = c* = delta/rho, where every displayed
            denominator vanishes.
    """
    c = check_real("c", c, above=0.0)
    delta, rho = p.delta, p.rho
    q = delta / (c * rho)
    # the displayed denominators vanish at c = c*; treat a relative
    # neighborhood as excluded so grid arithmetic cannot land on wild values
    if abs(q - 1.0) < 1e-9:
        raise ExcludedCaseError("normal ruin approximation undefined at c = c*")
    big_c = q
    kappa = rho * (1.0 - q)
    one = 1.0 - q
    if q > 1.0:  # subcritical: c < c*
        m_sub = -1.0 / (c * one)
        d2_sub = -2.0 * q / (c * c * rho * one**3)
        if not (m_sub > 0.0 and d2_sub > 0.0):
            raise DomainError("subcritical constants came out nonpositive")
        return CramerConstants(big_c, kappa, m_sub, d2_sub, None, None)
    m_super = q / (c * one)
    d2_super = 2.0 * q / (c * c * rho * one**3)
    if not (m_super > 0.0 and d2_super > 0.0):
        raise DomainError("supercritical constants came out nonpositive")
    return CramerConstants(big_c, kappa, None, None, m_super, d2_super)


def cramer_ruin_exp(p: ExpPair, u: float, c: float, t: float) -> float:
    """Normal approximation of P{ruin within [0, t]}, exponential case.

    Subcritical (c < c*): Phi((t - m u)/(D sqrt(u))).  Supercritical
    (c > c*): C exp(-kappa u) Phi((t - m u)/(D sqrt(u))).  Undefined at
    c = c*.
    """
    u = check_real("u", u, above=0.0)
    t = check_real("t", t, above=0.0)
    k = cramer_constants_exp(p, c)
    if k.m_sub is not None:
        z = (t - k.m_sub * u) / math.sqrt(k.d2_sub * u)
        val = float(std_normal_cdf(z))
    else:
        z = (t - k.m_super * u) / math.sqrt(k.d2_super * u)
        val = k.big_c * math.exp(-k.kappa * u) * float(std_normal_cdf(z))
    return min(1.0, max(0.0, val))


@dataclass(frozen=True)
class AsymptoticEndpoints:
    """Leading-order non-ruin capital at the two distinguished premium rates."""

    u_at_zero: float
    u_at_cstar: float


def _warn_if_preconditions_fail(m: RiskModel, what: str) -> None:
    report = theorem_preconditions(m)
    if not report.capital_asymptotics_ok:
        warnings.warn(
            f"{what}: stated moment conditions not all satisfied for this "
            "model; the formula is applied anyway",
            RuntimeWarning,
            stacklevel=3,
        )


def capital_asymptotic_endpoints(
    m: RiskModel, alpha: float, t: float
) -> AsymptoticEndpoints:
    """Asymptotic non-ruin capital at c = 0 and c = c*.

    ``u(0) = t/M + (D/M^{3/2}) z_alpha sqrt(t)`` and
    ``u(c*) = (D/M^{3/2}) z_{alpha/2} sqrt(t)``.  Models violating the
    third-moment hypotheses produce a warning, not an error.
    """
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    _warn_if_preconditions_fail(m, "capital_asymptotic_endpoints")
    k = derived_constants(m)
    scale = k.capital_scale
    z_a = std_normal_quantile(1.0 - alpha)
    z_h = std_normal_quantile(1.0 - alpha / 2.0)
    rt = math.sqrt(t)
    return AsymptoticEndpoints(
        u_at_zero=t / k.m_big + scale * z_a * rt,
        u_at_cstar=scale * z_h * rt,
    )


def capital_asymptotic_bounds(
    m: RiskModel, alpha: float, t: float, c: float
) -> tuple[float, float]:
    """Bilateral asymptotic bounds on the non-ruin capital for 0 <= c <= c*.

    lower = (c* - c) t + (D/M^{3/2}) z_alpha sqrt(t);
    upper = (c* - c) t + (D/M^{3/2}) z_{alpha/2} sqrt(t).
    """
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    c = check_real("c", c, at_least=0.0)
    k = derived_constants(m)
    if c > k.c_star:
        raise DomainError(
            "asymptotic capital bounds apply only for c <= c*; for larger "
            "premium rates use the adjustment-coefficient bounds"
        )
    _warn_if_preconditions_fail(m, "capital_asymptotic_bounds")
    drift = (k.c_star - c) * t
    spread = k.capital_scale * math.sqrt(t)
    lower = drift + spread * std_normal_quantile(1.0 - alpha)
    upper = drift + spread * std_normal_quantile(1.0 - alpha / 2.0)
    return lower, upper
