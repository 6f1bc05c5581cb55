"""Approximation formulas for ruin probabilities and capitals.

Four families live here:

* the CLT-based Value-at-Risk capital (normal approximation of V_t);
* the uniform inverse Gaussian approximation of the finite-horizon ruin
  probability, in closed form;
* the exponential-case normal (Cramer-type) ruin approximation with its
  explicit constants;
* the asymptotic endpoint values and bilateral bounds for the non-ruin
  capital as a function of the premium rate: the CLT Value-at-Risk
  formula at alpha and alpha/2, one expression shared with ``var_clt``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError, ExcludedCaseError, IntegrationError, check_real, check_real_array
from .exact import ExpPair, ruin_ultimate_exp
from .model import DerivedConstants, RiskModel, check_alpha, derived_constants
from .model import theorem_preconditions
from .special import _ig_cdf, std_normal_quantile

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


def _clt_capital(k: DerivedConstants, alpha: float, t: float, c: float) -> float:
    """``(c* - c) t + D_V sqrt(t) z_alpha``, z_alpha the upper alpha-quantile of N(0, 1).

    The CLT Value-at-Risk formula; at alpha/2 it is the leading-order
    non-ruin capital (the reflection principle at c*).
    """
    return (k.c_star - c) * t + k.capital_scale * math.sqrt(t) * std_normal_quantile(1.0 - alpha)


def var_clt(m: RiskModel, alpha: float, t: float, c: float) -> float:
    """CLT approximation of the Value-at-Risk capital: ``max{0, _clt_capital(alpha)}``."""
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    c = check_real("c", c, at_least=0.0)
    return max(0.0, _clt_capital(derived_constants(m), alpha, t, c))


def _ig_prob(k: DerivedConstants, c: float, t: float, u_lo: float, u_hi: float):
    """The IG ruin probability at fixed (model, c, t), as a function of u in
    [u_lo, u_hi].

    A difference of IG(mu, lam) distribution functions with mu = 1/|1 - cM|
    and lam = u/(c^2 D^2); supercritical rates reflect the drift and scale
    the mass to exp(-2 lam/mu).  The constants are computed here, once, and
    so is the check that the shape u/(c^2 D^2) is finite and positive and
    the limit ct/u finite over the whole range: both are monotone in u, so
    the ends decide (IntegrationError at extreme inputs, huge u or t, tiny
    u or c).  The returned ``prob(u)`` runs the same ufuncs for a float u,
    returning a float, and for an array; it raises IntegrationError where
    x/mu or 2 lam/mu still overflows.  The caller checks c > 0, t and every
    u, and evaluates ``prob`` only inside [u_lo, u_hi].
    """
    cm = c * k.m_big
    d = c * c * k.d2_big
    ct = c * t
    if d == 0.0 or math.isinf(u_hi / d) or u_lo / d == 0.0:
        raise IntegrationError(f"inverse Gaussian shape u/(c^2 D^2) is not finite at c = {c!r}")
    if math.isinf(ct / u_lo):
        raise IntegrationError(f"inverse Gaussian limit ct/u is not finite at c = {c!r}")
    mu = math.inf if cm == 1.0 else 1.0 / abs(1.0 - cm)
    supercritical = cm > 1.0

    def prob(u):
        lam = u / d
        scale = np.exp(-2.0 * lam / mu) if supercritical else 1.0
        with np.errstate(invalid="ignore", over="ignore"):
            out = scale * (_ig_cdf(ct / u + 1.0, mu, lam) - _ig_cdf(1.0, mu, lam))
        out = np.minimum(np.maximum(out, 0.0), 1.0)
        scalar = out.ndim == 0
        if math.isnan(out) if scalar else np.isnan(out).any():
            raise IntegrationError("inverse_gaussian_cdf is not finite: x/mu or 2 lam/mu overflows")
        return float(out) if scalar else out

    return prob


def ig_ruin_probability(m: RiskModel, u, c: float, t: float):
    """Inverse Gaussian approximation of P{ruin within [0, t]}.

    The defining integral over [0, ct/u] has the closed form
    ``scale * [F(ct/u + 1) - F(1)]``, F the IG(mu, u/(c^2 D^2)) distribution
    function with mu = 1/|1 - cM| (mu = inf, the zero-drift limit, at
    cM = 1), scale 1 for cM <= 1 and exp(-2 lam/mu) above; the two agree to
    ~1e-9.  u is a float or a 1-D array and the result is the same; every
    entry is checked, and the array values equal the scalar calls.  c = 0 is
    outside the domain: there the aggregate-claims distribution function
    answers.  Raises IntegrationError when the shape u/(c^2 D^2) is not
    finite and positive or the upper limit ct/u is not finite (huge u or t,
    tiny u or c).
    """
    scalar = np.isscalar(u)
    u = check_real("u", u, above=0.0) if scalar else check_real_array("u", u, above=0.0)
    c = check_real("c", c, above=0.0)
    t = check_real("t", t, at_least=0.0)
    if t == 0.0:
        return 0.0 if scalar else np.zeros_like(u)
    k = derived_constants(m)
    u_lo, u_hi = (u, u) if scalar else (float(u.min(initial=math.inf)), float(u.max(initial=0.0)))
    return _ig_prob(k, c, t, u_lo, u_hi)(u)


@dataclass(frozen=True)
class CramerConstants:
    """Constants of the exponential-case normal ruin approximation.

    With q = c*/c: C = q, kappa = rho (1 - q), and the passage-time mean
    ``m = min(q, 1)/(c |1 - q|)`` and variance ``d2 = 2q/(c^2 rho |1 - q|^3)``,
    one expression for both printed branches.
    """

    big_c: float
    kappa: float
    m: float
    d2: float


def cramer_constants_exp(p: ExpPair, c: float) -> CramerConstants:
    """Evaluate the printed constant formulas at premium rate c.

    Raises:
        ExcludedCaseError: at c = c* = delta/rho, where every displayed
            denominator vanishes.
        DomainError: where the constants are not positive floats (extreme c).
    """
    c = check_real("c", c, above=0.0)
    delta, rho = p.delta, p.rho
    try:
        q = delta / (c * rho)
        gap = abs(1.0 - q)
        # the displayed denominators vanish at c = c*; treat a relative
        # neighborhood as excluded so grid arithmetic cannot land on wild values
        if gap < 1e-9:
            raise ExcludedCaseError("normal ruin approximation undefined at c = c*")
        m = min(q, 1.0) / (c * gap)
        d2 = 2.0 * q / (c * c * rho * (gap * gap * gap))
    except ZeroDivisionError:  # c rho or a denominator underflows to 0 at extreme c
        q = m = d2 = math.nan
    if not (m > 0.0 and d2 > 0.0):
        raise DomainError(f"normal ruin approximation constants are not positive at c = {c!r}")
    return CramerConstants(q, rho * (1.0 - q), m, d2)


def cramer_ruin_exp(p: ExpPair, u: float, c: float, t: float) -> float:
    """Normal approximation of P{ruin within [0, t]}, exponential case.

    ``psi(u) Phi((t - m u)/sqrt(d2 u))`` with psi the ultimate ruin
    probability: 1 below c* and C exp(-kappa u) above.  Undefined at c = c*.
    """
    u = check_real("u", u, above=0.0)
    t = check_real("t", t, above=0.0)
    k = cramer_constants_exp(p, c)
    var = k.d2 * u
    if not var > 0.0:
        raise DomainError(f"normal ruin approximation variance d2 u underflows at u = {u!r}")
    return ruin_ultimate_exp(p, u, c) * float(sp.ndtr((t - k.m * u) / math.sqrt(var)))


@dataclass(frozen=True)
class AsymptoticEndpoints:
    """Leading-order non-ruin capital at the two distinguished premium rates."""

    u_at_zero: float
    u_at_cstar: float


def _warn_if_preconditions_fail(m: RiskModel, what: str) -> None:
    if not theorem_preconditions(m).capital_asymptotics_ok:
        warnings.warn(
            f"{what}: stated moment conditions not all satisfied for this "
            "model; the formula is applied anyway",
            RuntimeWarning,
            stacklevel=3,
        )


def capital_asymptotic_endpoints(
    m: RiskModel, alpha: float, t: float
) -> AsymptoticEndpoints:
    """Asymptotic non-ruin capital at c = 0 and c = c*, the two ends of the band.

    ``u(0) = c* t + D_V z_alpha sqrt(t)`` (the band's lower end) and
    ``u(c*) = D_V z_{alpha/2} sqrt(t)`` (its upper end).  Models violating
    the third-moment hypotheses produce a warning, not an error.
    """
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    _warn_if_preconditions_fail(m, "capital_asymptotic_endpoints")
    k = derived_constants(m)
    return AsymptoticEndpoints(
        u_at_zero=_clt_capital(k, alpha, t, 0.0),
        u_at_cstar=_clt_capital(k, alpha / 2.0, t, k.c_star),
    )


def capital_asymptotic_bounds(
    m: RiskModel, alpha: float, t: float, c: float
) -> tuple[float, float]:
    """Bilateral asymptotic bounds on the non-ruin capital for 0 <= c <= c*.

    The CLT Value-at-Risk formula at alpha and at alpha/2:
    ``(c* - c) t + D_V z sqrt(t)`` with z = z_alpha (lower) and
    z = z_{alpha/2} (upper), so the band is (var_clt(alpha), var_clt(alpha/2)).
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
    return _clt_capital(k, alpha, t, c), _clt_capital(k, alpha / 2.0, t, c)
