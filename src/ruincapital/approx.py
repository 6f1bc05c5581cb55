"""Approximation formulas for ruin probabilities and capitals.

Four families live here:

* the CLT-based Value-at-Risk capital (normal approximation of V_t);
* the uniform inverse Gaussian approximation of the finite-horizon ruin
  probability, in closed form;
* the exponential-case normal (Cramer-type) ruin approximation with its
  explicit constants;
* the bilateral asymptotic bounds for the non-ruin capital as a function
  of the premium rate on [0, c*]: the CLT Value-at-Risk formula at alpha
  and alpha/2, one expression shared with ``var_clt``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExcludedCaseError, IntegrationError, check_real, check_real_array
from .exact import ExpPair, ruin_ultimate_exp
from .model import DerivedConstants, RiskModel, check_alpha, derived_constants
from .model import theorem_preconditions
from .special import IG_NOT_FINITE, _ig_cdf, _scipy_special, std_normal_quantile

__all__ = [
    "CramerConstants",
    "var_clt",
    "ig_ruin_probability",
    "cramer_constants_exp",
    "cramer_ruin_exp",
    "capital_asymptotic_bounds",
]


def _clt_capital(k: DerivedConstants, alpha: float, t: float, c: float) -> float:
    """``(c* - c) t + D_V sqrt(t) z_alpha``, z_alpha the upper alpha-quantile of N(0, 1).

    The CLT Value-at-Risk formula; at alpha/2 it is the leading-order
    non-ruin capital (the reflection principle at c*).
    """
    return (k.c_star - c) * t + k.capital_scale * math.sqrt(t) * std_normal_quantile(1.0 - alpha)


def _clt_checked(k: DerivedConstants, alpha: float, t: float, c):
    """``_clt_capital``, or DomainError where it overflows to +inf or to inf - inf
    (for a whole array at once); an overflow to -inf is kept."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in float arithmetic
        v = _clt_capital(k, alpha, t, c)
    if not np.all(np.isfinite(v) | (v < 0.0)):
        raise DomainError(f"CLT capital (c* - c) t + D_V z_alpha sqrt(t) overflows at t = {t!r}")
    return v


def var_clt(m: RiskModel, alpha: float, t: float, c):
    """CLT Value-at-Risk capital ``max{0, _clt_capital(alpha)}``; c may be a NumPy array.

    An overflow to -inf is a capital of 0, one to +inf a DomainError.
    """
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    array = isinstance(c, np.ndarray)
    c = check_real_array("c", c, at_least=0.0) if array else check_real("c", c, at_least=0.0)
    v = _clt_checked(derived_constants(m), alpha, t, c)
    return np.where(v > 0.0, v, 0.0) if array else max(0.0, v)


def _ig_prob(k: DerivedConstants, c, t: float, u_lo, u_hi):
    """The IG ruin probability at fixed (model, t) for a column of cells,
    cell i a rate c[i] > 0, as a function of u in [u_lo[i], u_hi[i]].

    A difference of IG(mu, lam) distribution functions with mu = 1/|1 - cM|
    and lam = u/(c^2 D^2); supercritical rates reflect the drift and scale
    the mass to exp(-2 lam/mu).  Each cell's constants are computed here,
    once, and so is its check that the shape u/(c^2 D^2) is finite and
    positive and the limit ct/u finite over its whole range: both are
    monotone in u, so the ends decide (an IntegrationError at extreme
    inputs, huge u or t, tiny u or c).  ``c``, ``u_lo`` and ``u_hi`` are
    1-D arrays of one length, or NumPy floats for a single cell.

    Returns ``(prob, errors)``: ``errors[i]`` is cell i's IntegrationError
    or None.  ``prob(u, rows)`` evaluates the cells ``rows`` (an index
    array of cells whose check passed) at ``u``, whose leading axis runs
    over ``rows``: one u per cell or a row of them; a single cell's
    ``prob(u)`` takes a float or an array of u.  The result has u's shape
    and is NaN where x/mu or 2 lam/mu still overflows, which the caller
    reports as ``IntegrationError(IG_NOT_FINITE)``.  The caller checks t
    and every u, and evaluates a cell only inside its range.
    """
    with np.errstate(divide="ignore", over="ignore"):  # a zero divisor or overflow gives inf
        cm = c * k.m_big
        d = c * c * k.d2_big
        ct = c * t
        bad_shape = (d == 0.0) | np.isinf(u_hi / d) | (u_lo / d == 0.0)
        bad_limit = np.isinf(ct / u_lo)
        mu = 1.0 / abs(1.0 - cm)  # inf, the zero-drift limit, at cM = 1
    errors = [None] * c.size
    if np.count_nonzero(bad_shape | bad_limit):  # a cell at extreme inputs
        cells = zip(*(np.atleast_1d(v).tolist() for v in (c, bad_shape, bad_limit)))
        for i, (ci, shape, limit) in enumerate(cells):
            if shape or limit:
                what = "shape u/(c^2 D^2)" if shape else "limit ct/u"
                errors[i] = IntegrationError(f"inverse Gaussian {what} is not finite at c = {ci!r}")
    supercritical = cm > 1.0
    sp = _scipy_special()

    def prob(u, rows=None):
        consts = mu, ct, d, supercritical
        if rows is not None:
            cell = (slice(None),) + (None,) * (np.ndim(u) - 1)
            consts = (v[rows][cell] for v in consts)
        mu_r, ct_r, d_r, super_r = consts
        lam = u / d_r
        with np.errstate(invalid="ignore", over="ignore"):
            out = _ig_cdf(sp, ct_r / u + 1.0, mu_r, lam) - _ig_cdf(sp, 1.0, mu_r, lam)
            n_super = np.count_nonzero(super_r)
            if n_super == super_r.size:  # no select when every cell is supercritical
                out = np.exp(-2.0 * lam / mu_r) * out
            elif n_super:
                out = np.where(super_r, np.exp(-2.0 * lam / mu_r), 1.0) * out
        return np.minimum(np.maximum(out, 0.0), 1.0)

    return prob, errors


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
    u_lo, u_hi = (u, u) if scalar else (u.min(initial=math.inf), u.max(initial=0.0))
    prob, (error,) = _ig_prob(k, np.float64(c), t, np.float64(u_lo), np.float64(u_hi))
    if error is not None:
        raise error
    out = prob(u)
    if math.isnan(out) if scalar else np.isnan(out).any():
        raise IntegrationError(IG_NOT_FINITE)
    return float(out) if scalar else out


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
    mean, var = k.m * u, k.d2 * u
    # at huge u both overflow, and (t - inf)/sqrt(inf) would be NaN
    if not (var > 0.0 and math.isfinite(mean) and math.isfinite(var)):
        raise DomainError(
            f"normal ruin approximation terms m u, d2 u not finite and positive at u = {u!r}"
        )
    return ruin_ultimate_exp(p, u, c) * float(_scipy_special().ndtr((t - mean) / math.sqrt(var)))


def capital_asymptotic_bounds(
    m: RiskModel, alpha: float, t: float, c: float
) -> tuple[float, float]:
    """Bilateral asymptotic bounds on the non-ruin capital for 0 <= c <= c*.

    The CLT Value-at-Risk formula at alpha and at alpha/2:
    ``(c* - c) t + D_V z sqrt(t)`` with z = z_alpha (lower) and
    z = z_{alpha/2} (upper), so the band is (var_clt(alpha), var_clt(alpha/2)).
    Its lower end at c = 0, c* t + D_V z_alpha sqrt(t), and its upper end at
    c*, D_V z_{alpha/2} sqrt(t), are the leading-order non-ruin capitals
    there.  Models violating the third-moment hypotheses produce a warning,
    not an error.
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
    if not theorem_preconditions(m).capital_asymptotics_ok:
        warnings.warn(
            "capital_asymptotic_bounds: stated moment conditions not all satisfied "
            "for this model; the formula is applied anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    return _clt_checked(k, alpha, t, c), _clt_checked(k, alpha / 2.0, t, c)
