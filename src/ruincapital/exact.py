"""Closed-form exponential-case quantities.

When both T and Y are exponential (rates delta and rho) the aggregate
claim amount has a Bessel-series distribution function and the
finite-horizon ruin probability has a single-integral closed form.  These
are the library's exact oracles for every approximation.

The oscillatory single integral cancels an envelope of size
``exp(u rho (sqrt(q) - 1) - t (sqrt(c rho) - sqrt(delta))^2)``, q =
delta/(c rho), down to a probability.  Deep in the subcritical regime
(small c, large u) that envelope exceeds what double precision can
cancel, so :func:`ruin_finite_exp` switches to Seal's survival formula,
which composes only probabilities and densities and is stable everywhere.
Both routes are fixed-node composite Gauss-Legendre sums; Seal's takes the
zero-capital survival at its nodes from the oscillatory form at u = 0,
where the envelope never exceeds 1, so no interpolant is built.  The
routes agree to ~1e-11 where their domains overlap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy import special as sp

from .errors import DomainError, IntegrationError

__all__ = [
    "ExpPair",
    "aggregate_cdf_exp",
    "aggregate_pdf_exp",
    "ruin_ultimate_exp",
    "ruin_finite_exp",
]

_CLAMP_WARN = 1e-7

# Above this envelope exponent the oscillatory integral loses too many
# digits to cancellation and the Seal route takes over.
_OSC_MAX_LOG_ENVELOPE = 14.0

# 16-point Gauss-Legendre rule on [-1, 1], shared by both routes.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class ExpPair:
    """Exponential rates: delta for inter-claim times, rho for claim sizes."""

    delta: float
    rho: float

    def __post_init__(self):
        if not (0.0 < self.delta < math.inf and 0.0 < self.rho < math.inf):
            raise DomainError("ExpPair rates must be finite and positive")


def _clamp_probability(value: float, context: str) -> float:
    if value < -_CLAMP_WARN or value > 1.0 + _CLAMP_WARN:
        warnings.warn(
            f"{context}: raw value {value!r} outside [0, 1] by more than "
            f"{_CLAMP_WARN}; clamping",
            RuntimeWarning,
            stacklevel=3,
        )
    return min(1.0, max(0.0, value))


def aggregate_cdf_exp(p: ExpPair, t: float, x: float) -> float:
    """P{V_t <= x} for the exponential pair.

    The Bessel-series form has an atom exp(-t delta) at zero plus an
    absolutely continuous part.  The integrand's z^{-1/2} singularity is
    removed by the substitution z = w^2, after which the scaled Bessel
    function turns the integrand into the overflow-free Gaussian bump
    ``2 sqrt(delta rho t) * i1e(2 w s) * exp(-rho (w - s/rho)^2)`` with
    ``s = sqrt(delta rho t)``.
    """
    if not (0.0 < t < math.inf and math.isfinite(x)):
        raise DomainError("aggregate_cdf_exp requires finite t > 0 and finite x")
    delta, rho = p.delta, p.rho
    atom = math.exp(-t * delta)
    if x < 0.0:
        return 0.0
    if x == 0.0:
        # right-continuity: the atom at zero (no claims by t) is included
        return atom
    s = math.sqrt(delta * rho * t)
    w0 = s / rho  # peak of the Gaussian factor
    wmax = math.sqrt(x)

    def integrand(w):
        return sp.i1e(2.0 * w * s) * np.exp(-rho * (w - w0) ** 2)

    pts = [w0] if 0.0 < w0 < wmax else None
    val, err = integrate.quad(
        integrand, 0.0, wmax, points=pts, limit=200, epsabs=1e-12, epsrel=1e-10
    )
    if err > 1e-6:
        raise IntegrationError(
            f"aggregate_cdf_exp quadrature error estimate {err:.2e}", err
        )
    return _clamp_probability(atom + 2.0 * s * val, "aggregate_cdf_exp")


def aggregate_pdf_exp(p: ExpPair, t, x):
    """Density of the absolutely continuous part of V_t at x > 0 (vectorized).

    ``sqrt(delta rho t / x) * i1e(w) * exp(-(sqrt(rho x) - sqrt(t delta))^2)``
    with ``w = 2 sqrt(delta rho t x)``; every factor is bounded, so the
    expression never overflows.
    """
    delta, rho = p.delta, p.rho
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(x > 0.0) and np.all((t > 0.0) & (t < math.inf))):
        raise DomainError("aggregate_pdf_exp requires finite t > 0 and x > 0")
    w = 2.0 * np.sqrt(delta * rho * t * x)
    out = (
        np.sqrt(delta * rho * t / x)
        * sp.i1e(w)
        * np.exp(-((np.sqrt(rho * x) - np.sqrt(t * delta)) ** 2))
    )
    if out.ndim == 0:
        return float(out)
    return out


def ruin_ultimate_exp(p: ExpPair, u: float, c: float) -> float:
    """Ultimate ruin probability P{ruin ever} for initial capital u, price c."""
    if not (0.0 <= u < math.inf and 0.0 <= c < math.inf):
        raise DomainError("ruin_ultimate_exp requires finite u >= 0 and c >= 0")
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


def _oscillatory_integral(p: ExpPair, u: float, c: float, t):
    """(1/pi) * integral over [0, pi] of the closed-form defect term.

    ``t`` may be an array; the result then has its shape.
    """
    delta, rho = p.delta, p.rho
    q = delta / (c * rho)
    sq = math.sqrt(q)
    freq = u * rho * sq  # oscillation frequency of cos(u rho sqrt(q) sin x)
    x, w = _composite_gl(np.linspace(0.0, math.pi, max(64, int(1.0 + freq)) + 1))
    denom = 1.0 + q - 2.0 * sq * np.cos(x)
    osc = np.cos(freq * np.sin(x)) - np.cos(freq * np.sin(x) + 2.0 * x)
    # in place: with an array t this is a (len(t), len(x)) block
    vals = np.asarray(t, dtype=float)[..., None] * c * rho * denom
    np.subtract(u * rho * (sq * np.cos(x) - 1.0), vals, out=vals)
    np.exp(vals, out=vals)
    vals *= q / denom * osc
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("ruin_finite_exp integrand not finite")
    out = (vals @ w) / math.pi
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=64)
def _seal_rule(delta: float, rho: float, c: float, t: float):
    """Seal's quadrature nodes s in [0, t], their weights, and phi(0, t - s).

    The zero-capital survival phi(0, tau) = 1 - psi(0, tau) comes from the
    oscillatory closed form at u = 0, whose envelope exponent
    ``-tau (sqrt(c rho) - sqrt(delta))^2`` is never positive, so the
    cancellation is safe at every node.
    """
    p = ExpPair(delta, rho)
    # f_V(u + c s, s) near s = 0 and phi(0, tau) near tau = 0 move on the
    # time scale 1/max(delta, c rho), and the integrand is slow in between:
    # 16 panels on each end layer of 64 such units, 32 on the middle.  A
    # uniform rule of the same size errs by up to 1e-4 at t = 2e4.
    a = min(t / 3.0, 64.0 / max(delta, c * rho))
    s, w = _composite_gl(np.concatenate([
        np.linspace(0.0, a, 17), np.linspace(a, t - a, 33)[1:], np.linspace(t - a, t, 17)[1:]
    ]))
    phi0 = 1.0 - ruin_ultimate_exp(p, 0.0, c) + _oscillatory_integral(p, 0.0, c, t - s)
    return s, w, phi0


def _ruin_finite_seal(p: ExpPair, u: float, c: float, t: float) -> float:
    """Finite-horizon ruin via Seal's survival formula (Poisson arrivals).

    phi(u, t) = F_V(u + c t, t) - c * int_0^t phi(0, t - s) f_V(u + c s, s) ds,
    as one fixed-node composite Gauss-Legendre sum over s.  Every term is a
    probability or a density; no exponential cancellation.  The dispatcher
    calls it only for u > 0: at u = 0 the oscillatory route always answers.
    """
    s, w, phi0 = _seal_rule(p.delta, p.rho, c, t)
    corr = float(w @ (aggregate_pdf_exp(p, s, u + c * s) * phi0))
    phi = aggregate_cdf_exp(p, t, u + c * t) - c * corr
    return _clamp_probability(1.0 - phi, "ruin_finite_exp")


def _log_envelope(p: ExpPair, u: float, c: float, t: float) -> float:
    # Peak exponent of the oscillatory integrand over [0, pi].
    q = p.delta / (c * p.rho)
    return u * p.rho * (math.sqrt(q) - 1.0) - t * (
        math.sqrt(c * p.rho) - math.sqrt(p.delta)
    ) ** 2


def ruin_finite_exp(p: ExpPair, u: float, c: float, t: float) -> float:
    """P{ruin within [0, t]} for the exponential pair.

    For c > 0 this is the ultimate ruin probability minus an oscillatory
    integral over [0, pi], evaluated by composite Gauss-Legendre quadrature
    with the panel count scaled to the oscillation frequency; when the
    integrand's envelope is too large for that cancellation to be done in
    doubles, Seal's formula is used instead.  For c = 0 the claim surplus
    is nondecreasing, so ruin by t is exactly ``V_t > u`` and the aggregate
    CDF identity applies.
    """
    if not (0.0 <= u < math.inf and 0.0 <= c < math.inf and 0.0 < t < math.inf):
        raise DomainError("ruin_finite_exp requires finite u >= 0, c >= 0 and t > 0")
    if c == 0.0:
        return _clamp_probability(1.0 - aggregate_cdf_exp(p, t, u), "ruin_finite_exp")
    if _log_envelope(p, u, c, t) > _OSC_MAX_LOG_ENVELOPE:
        return _ruin_finite_seal(p, u, c, t)
    raw = ruin_ultimate_exp(p, u, c) - _oscillatory_integral(p, u, c, t)
    return _clamp_probability(raw, "ruin_finite_exp")
