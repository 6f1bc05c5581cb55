"""Closed-form exponential-case quantities.

When both T and Y are exponential (rates delta and rho) the aggregate
claim amount's distribution function is a Skellam probability, i.e. a
noncentral chi-square CDF; Takacs' zero-capital survival phi(0, t) is one
such CDF plus two Skellam masses in scaled Bessel functions (i0e, i1e);
the finite-horizon ruin probability at u > 0 has a single-integral closed
form.  These are the library's exact oracles for every approximation.

The oscillatory single integral cancels an envelope of size
``exp(u rho (sqrt(q) - 1) - t (sqrt(c rho) - sqrt(delta))^2)``, q =
delta/(c rho), down to a probability.  Deep in the subcritical regime
(small c, large u) that envelope exceeds what double precision can
cancel, and near c* (q close to 1) the integrand has structure narrower
than its panels, so :func:`ruin_finite_exp` switches to Seal's survival
formula there, which composes only probabilities and densities.  Both
routes are fixed-node composite Gauss-Legendre sums; Seal's takes phi(0, .)
at its nodes from Takacs' formula, one chi-square CDF per node
(:func:`_survival_zero`), in a graded rule kept per rate and horizon
(:func:`_seal_rule`), and raises past chndtr's range (~4e10).  Over 10,000
drawn cases on two pairs (t <= 2000) the routes agree to 5.3e-11 up to an
envelope of exp(10), above which Seal answers: to exp(14) the oscillatory
sum's cancellation costs up to 3.1e-9.

The oscillatory route's arrays that do not depend on u form a per-rate rule
(:func:`_oscillatory_rule`), kept for the last two rates, since a capital solve
calls the route a few times at one rate.  It spans only [0, x_cut], past which
every term is below 2**-60 (L = 60 ln 2) of its bound at any u; on 4,000 cells
with t <= 1e5 the sum is within 4.8e-14 of that bound from 8,192 uniform panels
on [0, pi].  Its panel count grows with u, so below an envelope of exp(-746)
(every term 0.0) the ultimate ruin probability is returned without a rule.

The validation rule: every public function checks every argument, and the
private kernels take only values the library built from checked arguments,
so they check nothing again.  The aggregate density is one kernel
(:func:`_density`) with two callers: :func:`aggregate_pdf_exp`, after its
checks, and Seal's route (:func:`_ruin_finite_seal`), on the arrays of its
per-rate rule, where the density's u-free factors are stored once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError, check_real, check_real_array
from .special import _scipy_special

__all__ = [
    "ExpPair",
    "aggregate_cdf_exp",
    "aggregate_pdf_exp",
    "ruin_ultimate_exp",
    "ruin_finite_exp",
]

_CLAMP_WARN = 1e-7
_TINY = np.finfo(float).tiny  # the smallest normal double

# Above this envelope exponent the oscillatory integral loses too many
# digits to cancellation (up to 2e-9 by exp(14)) and the Seal route takes over.
_OSC_MAX_LOG_ENVELOPE = 10.0
# Below this envelope exponent exp() gives exactly 0.0 at every node, so the
# oscillatory sum is 0.0 and the ultimate ruin term is the result.
_OSC_MIN_LOG_ENVELOPE = -746.0
# Within this distance of q = 1 the routes agree to ~3e-12; closer in the
# oscillatory route errs by up to 2.5e-3 and Seal takes over.
_OSC_MIN_ABS_Q_GAP = 0.03
_OSC_CUT_LOG = 60.0 * math.log(2.0)  # L: past x_cut each term is below 2**-60 of its bound
# Takacs' phi(0, .) for 1 < q <= this takes its cheaper one-call form, which
# loses up to about 4 (q - 1) 2**-52 absolute (at most 3.95 (q - 1) 2**-52
# against 50-digit values); twice that stays below 1e-13 up to here (~57).
_TAKACS_MAX_Q = 1.0 + 1e-13 / (8.0 * 2.0**-52)
# Once both chndtr arguments pass this, an element takes milliseconds, and
# from ~4e10 on it is NaN: a Seal rule probes its largest tau first.
_NCX2_PROBE = 1e9

# 16-point Gauss-Legendre rule on [-1, 1], shared by both routes.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class ExpPair:
    """Exponential rates: delta for inter-claim times, rho for claim sizes."""

    delta: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "delta", check_real("delta", self.delta, above=0.0))
        object.__setattr__(self, "rho", check_real("rho", self.rho, above=0.0))


def _clamp_probability(value: float, context: str) -> float:
    if value < -_CLAMP_WARN or value > 1.0 + _CLAMP_WARN:
        warnings.warn(
            f"{context}: raw value {value!r} outside [0, 1] by more than "
            f"{_CLAMP_WARN}; clamping",
            RuntimeWarning,
            stacklevel=3,
        )
    return min(1.0, max(0.0, value))


def _ncx2_cdf(x, df: float, nc):
    """scipy's noncentral chi-square CDF, NaN once x and nc both pass ~4e10: an error here.

    A float ``nc`` (its callers pass a float ``x`` with it) takes a plain-float
    path with no 0-d array, which Seal's terminal term runs once per call; an
    array ``nc`` takes the array path.  A subnormal noncentrality is taken as 0,
    which moves the CDF by less than 1e-307: chndtr errs there by up to
    7e-2 (chndtr(6, 4, 3e-323) = 0.867, against 0.801 at nc = 0).
    """
    chndtr = _scipy_special().chndtr
    if isinstance(nc, float):
        out = float(chndtr(x, df, 0.0 if nc < _TINY else nc))
        bad = math.isnan(out)
    else:
        out = chndtr(x, df, np.where(nc < _TINY, 0.0, nc))
        bad = np.isnan(out).any()
    if bad:
        raise IntegrationError("noncentral chi-square CDF out of range (arguments ~4e10)")
    return out


def aggregate_cdf_exp(p: ExpPair, t: float, x: float) -> float:
    """P{V_t <= x} for the exponential pair.

    With N ~ Poisson(delta t) claims by t and K ~ Poisson(rho x)
    independent, Gamma(n, rho) <= x exactly when K >= n, so the value is
    the Skellam probability P{N <= K} = 1 - chndtr(2 delta t, 2, 2 rho x),
    the noncentral chi-square CDF with 2 degrees of freedom.  At x = 0 it
    is the atom exp(-delta t) (no claims by t).  Raises IntegrationError
    once delta t and rho x both reach about 2e10, where chndtr gives NaN.
    """
    t = check_real("t", t, above=0.0)
    x = check_real("x", x)
    if x < 0.0:
        return 0.0
    return 1.0 - _ncx2_cdf(2.0 * p.delta * t, 2.0, 2.0 * p.rho * x)


def _density(rho: float, drs, sd, x):
    """The aggregate density at x from its u-free factors drs = delta rho t and
    sd = sqrt(t delta): ``sqrt(drs / x) * i1e(2 sqrt(drs x)) * exp(-(sqrt(rho x) -
    sd)^2)``.  Checks nothing (the module's validation rule)."""
    return (
        np.sqrt(drs / x)
        * _scipy_special().i1e(2.0 * np.sqrt(drs * x))
        * np.exp(-((np.sqrt(rho * x) - sd) ** 2))
    )


def aggregate_pdf_exp(p: ExpPair, t, x):
    """Density of the absolutely continuous part of V_t at x > 0 (vectorized).

    ``sqrt(delta rho t / x) * i1e(w) * exp(-(sqrt(rho x) - sqrt(t delta))^2)``
    with ``w = 2 sqrt(delta rho t x)``; every factor is bounded, so the
    expression never overflows.  Checks t and x, then evaluates the kernel
    that Seal's route shares (:func:`_density`).
    """
    t = check_real_array("t", t, above=0.0)
    x = check_real_array("x", x, above=0.0)
    out = _density(p.rho, p.delta * p.rho * t, np.sqrt(t * p.delta), x)
    if out.ndim == 0:
        return float(out)
    return out


def ruin_ultimate_exp(p: ExpPair, u: float, c: float) -> float:
    """Ultimate ruin probability P{ruin ever} for initial capital u, price c."""
    u = check_real("u", u, at_least=0.0)
    c = check_real("c", c, at_least=0.0)
    if c == 0.0:
        return 1.0
    q = p.delta / (c * p.rho)
    if q >= 1.0:
        return 1.0
    return q * math.exp(-u * (c * p.rho - p.delta) / c)


def _composite_gl(edges):
    """Nodes and weights of the 16-point Gauss-Legendre rule on each panel
    between consecutive ``edges``, flattened."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=2)
def _oscillatory_rule(delta: float, rho: float, c: float, t: float, n: int):
    """The oscillatory sum's u-free arrays on panels at most pi/n wide over [0, x_cut].

    x_cut = 2 asin(sqrt(L / (2 a0))), a0 = 2 t c rho sqrt(q), is pi once L >= 2 a0: at
    any u the exponent is below E(0) - a0 (1 - cos x), q/denom (denom = 1 + q - 2 sqrt(q)
    cos x) below its value at 0 and the oscillating factor at most 2 in size, so past
    x_cut every term is below 2**-60 of 2q/(1 - sqrt(q))**2 e^E(0).
    """
    q = delta / (c * rho)
    sq = math.sqrt(q)
    x_cut = 2.0 * math.asin(math.sqrt(_OSC_CUT_LOG / max(_OSC_CUT_LOG, 4.0 * t * c * rho * sq)))
    x, w = _composite_gl(np.linspace(0.0, x_cut, max(1, math.ceil(n * (x_cut / math.pi))) + 1))
    sin_x, cos_x = np.sin(x), np.cos(x)
    denom = 1.0 + q - 2.0 * sq * cos_x
    coef = 2.0 * q * sin_x / (math.pi * denom) * w
    rule = (sin_x, x, sq * cos_x - 1.0, t * c * rho * denom, coef)
    for a in rule:
        a.flags.writeable = False  # shared by every call at this rate
    return rule


def _oscillatory_integral(p: ExpPair, u: float, c: float, t: float) -> float:
    """(1/pi) * integral over [0, pi] of the defect term, as 2 sin x sin(phi + x)."""
    delta, rho = p.delta, p.rho
    freq = u * rho * math.sqrt(delta / (c * rho))  # frequency of sin(u rho sqrt(q) sin x + x)
    sin_x, x, drift, decay, coef = _oscillatory_rule(delta, rho, c, t, max(64, int(1.0 + freq)))
    total = float((np.exp(u * rho * drift - decay) * np.sin(freq * sin_x + x)) @ coef)
    if not math.isfinite(total):  # a NaN or infinite term, coef being positive and finite
        raise IntegrationError("ruin_finite_exp integrand not finite")
    return total


def _survival_zero(p: ExpPair, c: float, tau):
    """phi(0, tau), survival to tau > 0 from zero capital (vectorized in tau).

    Takacs' ballot formula E[(1 - V_tau/(c tau))^+].  With N ~ Poisson(delta tau),
    K ~ Poisson(rho c tau), q = delta/(c rho), lam = 2 delta tau and
    mu = 2 rho c tau it is P{N <= K} - q P{K >= N + 2}, where
    P{N <= K} = 1 - chndtr(lam, 2, mu) and P{K >= N + 2} = chndtr(mu, 4, lam).
    Two identities give the Skellam masses B = P{K = N} + P{K = N + 1} with no
    chi-square call: the Marcum-Q symmetry Q1(a, b) + Q1(b, a) =
    1 + exp(-(a^2 + b^2)/2) I0(ab) (Nuttall 1975) the first, and the degree
    recurrence F4 = F2 - 2 f4 (Abramowitz & Stegun 26.4) the second.  With
    z = sqrt(lam mu), B = exp(-(sqrt(lam) - sqrt(mu))^2 / 2) (i0e(z) +
    sqrt(mu/lam) i1e(z)) and phi(0, tau) = B - (q - 1) P{K >= N + 2} =
    q B - (q - 1) P{N <= K}.  So each node takes one chi-square call, the one
    whose noncentrality is the smaller of lam and mu (the cheaper), up to
    _TAKACS_MAX_Q:

    * q <= 1: B - (q - 1) chndtr(mu, 4, lam), a sum of nonnegative terms;
    * 1 < q <= _TAKACS_MAX_Q: q B - (q - 1) (1 - chndtr(lam, 2, mu)), which
      cancels two terms of size about q and loses up to about 4 (q - 1) 2**-52
      absolute, 5e-14 at _TAKACS_MAX_Q;
    * above it the first form again, as accurate as the two-call sum.

    Raises IntegrationError where chndtr gives NaN (arguments ~4e10) or a
    rate times tau overflows.
    """
    lam, mu = 2.0 * p.delta * tau, 2.0 * p.rho * c * tau
    q = p.delta / (c * p.rho)
    special = _scipy_special()
    root_lam, root_mu = np.sqrt(lam), np.sqrt(mu)
    z = root_lam * root_mu
    # sqrt(mu/lam) i1e(z) is taken as mu i1e(z)/z: at z = 0 (lam or mu
    # underflowed) its 0/0 gives way to the limit mu/2, and inf * 0 once lam
    # or mu overflows is caught below
    with np.errstate(invalid="ignore"):
        b = np.exp(-0.5 * (root_lam - root_mu) ** 2) * (
            special.i0e(z) + mu * np.where(z > 0.0, special.i1e(z) / z, 0.5)
        )
        if 1.0 < q <= _TAKACS_MAX_Q:
            phi0 = q * b - (q - 1.0) * (1.0 - _ncx2_cdf(lam, 2.0, mu))
        else:
            phi0 = b - (q - 1.0) * _ncx2_cdf(mu, 4.0, lam)
    if not np.all(np.isfinite(phi0)):
        raise IntegrationError("zero-capital survival not finite (rate times tau overflows)")
    return phi0


class _SealRule(NamedTuple):
    """Seal's per-rate arrays: everything of its sum that does not depend on u."""

    s: np.ndarray  # the nodes, in (0, t]
    w: np.ndarray  # their weights
    phi0: np.ndarray  # phi(0, t - s)
    drs: np.ndarray  # delta rho s, the density's u-free factors ...
    sd: np.ndarray  # ... and sqrt(s delta)


@lru_cache(maxsize=64)
def _seal_rule(delta: float, rho: float, c: float, t: float) -> _SealRule:
    """Seal's quadrature nodes s in (0, t], their weights, phi(0, t - s) and the
    density's u-free factors delta rho s and sqrt(s delta) (:func:`_density`).

    The zero-capital survival phi(0, tau) comes from Takacs' ballot
    formula, one noncentral chi-square CDF and two scaled Bessel functions
    per node (:func:`_survival_zero`), so no integral is needed at the nodes.
    Every node is finite and positive once the rule is built: a node that
    is not makes phi(0, t - s) not finite, an IntegrationError.  The arrays
    are shared by every call at this rate, so none may be written.
    """
    # f_V(u + c s, s) near s = 0 and phi(0, tau) near tau = 0 move on the time
    # scale 1/max(delta, c rho), elsewhere on that of s and t - s: 8 panels on
    # each 64-unit end layer, and panels from a to t/2 growing by at most 2x,
    # mirrored.  On 1,800 drawn cells with t <= 1e5 it is within 1e-14 of 64-panel
    # end layers and ratio 1.15, where 32 uniform middle panels erred by 8.5e-5.
    scale = max(delta, c * rho)
    a = min(t / 3.0, 64.0 / scale)
    octaves = max(math.log2(1.5), math.log2(t) + math.log2(scale) - 7.0)  # log2(t/2a), no overflow
    mid = a * np.exp2(octaves * np.linspace(0.0, 1.0, math.ceil(octaves) + 1))
    s, w = _composite_gl(np.concatenate([
        np.linspace(0.0, a, 9), mid[1:], t - mid[-2::-1], np.linspace(t - a, t, 9)[1:]
    ]))
    if s[0] == 0.0:  # t so small that nodes round to 0, where f_V(., s) is 0
        s, w = s[s > 0.0], w[s > 0.0]
    p, tau = ExpPair(delta, rho), t - s
    if 2.0 * min(delta, c * rho) * tau[0] > _NCX2_PROBE:
        _survival_zero(p, c, tau[:1])  # the largest tau alone: raises where chndtr is NaN
    rule = _SealRule(s, w, _survival_zero(p, c, tau), delta * rho * s, np.sqrt(s * delta))
    for a in rule:
        a.flags.writeable = False
    return rule


def _ruin_finite_seal(p: ExpPair, u: float, c: float, t: float) -> float:
    """Finite-horizon ruin via Seal's survival formula (Poisson arrivals).

    phi(u, t) = F_V(u + c t, t) - c * int_0^t phi(0, t - s) f_V(u + c s, s) ds,
    as one fixed-node composite Gauss-Legendre sum over s.  F_V is the
    Skellam (noncentral chi-square) closed form and phi(0, .) is Takacs'
    ballot formula, so every term is a probability or a density; no
    exponential cancellation.  The dispatcher calls it only for u > 0: at
    u = 0 Takacs' formula answers directly.

    A private kernel on checked u, c and t: the density (:func:`_density`)
    runs on the rule's arrays at x = u + c s, and the terminal term takes
    one chi-square CDF.  The one check left is u + c t, which may overflow
    (DomainError); every u + c s is then finite and positive.
    """
    rule = _seal_rule(p.delta, p.rho, c, t)
    x_t = check_real("u + c t", u + c * t)
    corr = float(rule.w @ (_density(p.rho, rule.drs, rule.sd, u + c * rule.s) * rule.phi0))
    phi = 1.0 - _ncx2_cdf(2.0 * p.delta * t, 2.0, 2.0 * p.rho * x_t) - c * corr
    return _clamp_probability(1.0 - phi, "ruin_finite_exp")


def _log_envelope(p: ExpPair, u: float, c: float, t: float) -> float:
    # Peak exponent of the oscillatory integrand over [0, pi].
    q = p.delta / (c * p.rho)
    return u * p.rho * (math.sqrt(q) - 1.0) - t * (
        math.sqrt(c * p.rho) - math.sqrt(p.delta)
    ) ** 2


def ruin_finite_exp(p: ExpPair, u: float, c: float, t: float) -> float:
    """P{ruin within [0, t]} for the exponential pair.

    For c > 0 and u > 0 this is the ultimate ruin probability minus an
    oscillatory integral over [0, pi], summed by composite Gauss-Legendre
    quadrature over its non-negligible part [0, x_cut] on panels scaled to
    the oscillation frequency; when the integrand's envelope is too large
    for that cancellation to be done in doubles, or c lies within 3% of c*
    (|q - 1| < 0.03), Seal's formula is used instead; when the envelope
    is below exp(-746) the sum is 0.0 and the ultimate ruin probability
    is returned.  At u = 0 it is 1 - phi(0, t) from Takacs' ballot
    formula.  For c = 0 the claim surplus is nondecreasing, so ruin by t
    is exactly ``V_t > u`` and the aggregate CDF identity applies.  An
    envelope that is NaN (q or a rate product overflows) raises
    IntegrationError.
    """
    u = check_real("u", u, at_least=0.0)
    c = check_real("c", c, at_least=0.0)
    t = check_real("t", t, above=0.0)
    if c == 0.0:
        return _clamp_probability(1.0 - aggregate_cdf_exp(p, t, u), "ruin_finite_exp")
    if u == 0.0:
        return _clamp_probability(1.0 - float(_survival_zero(p, c, t)), "ruin_finite_exp")
    log_envelope = _log_envelope(p, u, c, t)
    if math.isnan(log_envelope):  # inf - inf or 0 * inf: q or a rate product overflows
        raise IntegrationError("ruin_finite_exp: the integrand's envelope is not finite")
    near_c_star = abs(p.delta / (c * p.rho) - 1.0) < _OSC_MIN_ABS_Q_GAP
    if near_c_star or log_envelope > _OSC_MAX_LOG_ENVELOPE:
        return _ruin_finite_seal(p, u, c, t)
    if log_envelope < _OSC_MIN_LOG_ENVELOPE:
        return _clamp_probability(ruin_ultimate_exp(p, u, c), "ruin_finite_exp")
    raw = ruin_ultimate_exp(p, u, c) - _oscillatory_integral(p, u, c, t)
    return _clamp_probability(raw, "ruin_finite_exp")
