"""Risk capitals as implicit functions of the premium rate.

Three capitals are produced by inverting a probability backend in the
initial capital u:

* the Value-at-Risk capital: P{V_t > u + c t} = alpha;
* the non-ruin capital: P{ruin within [0, t]} = alpha;
* the ultimate capital: P{ruin ever} = alpha (finite only for c > c*).

Each backend probability is nonincreasing in u, so bracketed bisection on
[0, max_bracket] converges unconditionally; when even u = 0 satisfies the
target the capital is 0 by definition and the result carries a "clamped"
flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import optimize

from . import approx, bounds, exact, montecarlo
from .errors import (
    BackendIncompatibleError,
    BracketError,
    DomainError,
    InfiniteCapitalError,
    NoAdjustmentCoefficientError,
)
from .exact import ExpPair
from .model import RiskModel, derived_constants
from .montecarlo import SimConfig
from .table import CurveTable

__all__ = [
    "SolveSpec",
    "CapitalPoint",
    "var_capital",
    "nonruin_capital",
    "ultimate_capital",
    "capital_curve",
]

_BACKENDS = ("exact_exp", "inverse_gaussian", "monte_carlo", "clt")


@dataclass(frozen=True)
class SolveSpec:
    """How to invert the probability backend.

    ``max_bracket`` of None means "derive from the asymptotic upper bound
    plus ten capital-scale units"; ``sim`` is required only by the
    monte_carlo backend.
    """

    backend: str = "exact_exp"
    u_tolerance: float = 1e-6
    p_tolerance: float = 1e-6
    max_bracket: Optional[float] = None
    sim: Optional[SimConfig] = None

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise DomainError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if not self.u_tolerance > 0.0 or not self.p_tolerance > 0.0:
            raise DomainError("tolerances must be positive")
        if self.max_bracket is not None and not self.max_bracket > 0.0:
            raise DomainError("max_bracket must be positive")


@dataclass(frozen=True)
class CapitalPoint:
    """One solved capital: the value plus solve diagnostics.

    ``residual`` is |backend probability at the solution - alpha| when the
    solution came from a root solve (None for quantile and closed-form
    routes); ``interval`` carries an enclosing interval when only bounds
    are available; ``ci95`` is attached by the Monte Carlo backend.
    """

    kind: str
    c: float
    value: float
    clamped: bool = False
    residual: Optional[float] = None
    interval: Optional[tuple[float, float]] = None
    ci95: Optional[tuple[float, float]] = None


def _default_bracket(m: RiskModel, alpha: float, t: float, c: float) -> float:
    k = derived_constants(m)
    spread = k.capital_scale * math.sqrt(t)
    drift = max(0.0, (k.c_star - c) * t)
    upper = drift + spread * approx.std_normal_quantile(1.0 - alpha / 2.0)
    return upper + 10.0 * spread


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha}")
    return alpha


def _check_horizon(name: str, t: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"{name} requires finite t > 0")


def _check_horizon_premium(name: str, t: float, c: float) -> None:
    _check_horizon(name, t)
    if not 0.0 <= c < math.inf:
        raise DomainError(f"{name} requires finite c >= 0")


def _require_exp_pair(m: RiskModel, backend: str) -> ExpPair:
    if not m.is_exponential_pair():
        raise BackendIncompatibleError(
            f"backend {backend!r} requires exponential inter-claim times "
            "and claim sizes"
        )
    return ExpPair(m.t_law.rate, m.y_law.rate)


def _invert(
    prob: Callable[[float], float],
    alpha: float,
    spec: SolveSpec,
    max_bracket: float,
    kind: str,
    c: float,
    warm_hi: Optional[float] = None,
) -> CapitalPoint:
    """Solve prob(u) = alpha for u >= 0 by bracketed root-finding."""
    p0 = prob(0.0)
    if p0 < alpha:
        return CapitalPoint(kind=kind, c=c, value=0.0, clamped=True)
    hi = None
    if warm_hi is not None and 0.0 < warm_hi <= max_bracket:
        if prob(warm_hi) < alpha:
            hi = warm_hi
    if hi is None:
        if prob(max_bracket) >= alpha:
            raise BracketError(
                f"no solution below max_bracket = {max_bracket:.6g}"
            )
        hi = max_bracket
    u = float(
        optimize.brentq(lambda x: prob(x) - alpha, 0.0, hi, xtol=spec.u_tolerance)
    )
    return CapitalPoint(
        kind=kind, c=c, value=u, residual=abs(prob(u) - alpha)
    )


def _invert_unimodal(
    prob: Callable[[float], float],
    alpha: float,
    spec: SolveSpec,
    max_bracket: float,
    kind: str,
    c: float,
    warm_hi: Optional[float] = None,
) -> CapitalPoint:
    """Invert a backend that vanishes at u = 0 and decays for large u.

    The inverse Gaussian approximation rises from 0 over the first few
    money units (a small-u artifact of the large-u theory) and is
    decreasing beyond its peak; the root relevant to Definition-style
    capital sits on the decreasing side, so the bracket starts at the
    argmax of a geometric scan.
    """
    us = np.geomspace(1e-6 * max_bracket, max_bracket, 80)
    vals = [prob(float(u)) for u in us]
    i = int(np.argmax(vals))
    if vals[i] < alpha:
        return CapitalPoint(kind=kind, c=c, value=0.0, clamped=True)
    lo = float(us[i])
    hi = None
    if warm_hi is not None and lo < warm_hi <= max_bracket:
        if prob(warm_hi) < alpha:
            hi = warm_hi
    if hi is None:
        if prob(max_bracket) >= alpha:
            raise BracketError(f"no solution below max_bracket = {max_bracket:.6g}")
        hi = max_bracket
    u = float(
        optimize.brentq(lambda x: prob(x) - alpha, lo, hi, xtol=spec.u_tolerance)
    )
    return CapitalPoint(kind=kind, c=c, value=u, residual=abs(prob(u) - alpha))


def _terminal_prob(m: RiskModel, spec: SolveSpec, t: float, c: float):
    """u -> P{V_t > u + c t} for the configured backend."""
    if spec.backend == "exact_exp":
        p = _require_exp_pair(m, spec.backend)
        return lambda u: 1.0 - exact.aggregate_cdf_exp(p, t, u + c * t)
    raise BackendIncompatibleError(
        f"backend {spec.backend!r} has no terminal-probability inverter"
    )


def var_capital(
    m: RiskModel, alpha: float, t: float, c: float, spec: SolveSpec
) -> CapitalPoint:
    """Value-at-Risk capital: the u >= 0 with P{V_t > u + c t} = alpha.

    Backends: ``clt`` evaluates the closed normal-approximation formula;
    ``exact_exp`` inverts the aggregate-claims distribution function;
    ``monte_carlo`` takes the empirical quantile of terminal deficits.
    """
    alpha = _check_alpha(alpha)
    _check_horizon_premium("var_capital", t, c)
    if spec.backend == "clt":
        v = approx.var_clt(m, alpha, t, c)
        return CapitalPoint(kind="var", c=c, value=v, clamped=(v == 0.0))
    if spec.backend == "monte_carlo":
        cfg = _sim_config(spec, t)
        est = montecarlo.estimate_capitals(m, alpha, c, cfg)["var_cap"]
        return CapitalPoint(
            kind="var",
            c=c,
            value=est.point,
            clamped=(est.point == 0.0),
            ci95=est.ci95,
        )
    if spec.backend == "inverse_gaussian":
        raise BackendIncompatibleError(
            "the inverse Gaussian approximation targets the ruin "
            "probability, not the terminal shortfall; use backend 'clt'"
        )
    prob = _terminal_prob(m, spec, t, c)
    mb = spec.max_bracket or _default_bracket(m, alpha, t, c)
    return _invert(prob, alpha, spec, mb, "var", c)


def _sim_config(spec: SolveSpec, t: float) -> SimConfig:
    if spec.sim is None:
        raise DomainError("monte_carlo backend requires SolveSpec.sim")
    if spec.sim.t != t:
        return replace(spec.sim, t=t)
    return spec.sim


def _ruin_prob(m: RiskModel, spec: SolveSpec, t: float, c: float):
    """u -> P{ruin within [0, t]} for the configured backend."""
    if spec.backend == "exact_exp":
        p = _require_exp_pair(m, spec.backend)
        return lambda u: exact.ruin_finite_exp(p, u, c, t)
    if spec.backend == "inverse_gaussian":
        return lambda u: approx.ig_ruin_probability(m, u, c, t, "closed")
    raise BackendIncompatibleError(
        f"backend {spec.backend!r} has no ruin-probability inverter"
    )


def nonruin_capital(
    m: RiskModel, alpha: float, t: float, c: float, spec: SolveSpec
) -> CapitalPoint:
    """Non-ruin capital: the u >= 0 with P{ruin within [0, t]} = alpha.

    At c = 0 ruin by t is exactly a terminal shortfall, so the inverse
    Gaussian backend (undefined there) redirects to the Value-at-Risk
    solve with the same defining equation.
    """
    alpha = _check_alpha(alpha)
    _check_horizon_premium("nonruin_capital", t, c)
    if spec.backend == "monte_carlo":
        cfg = _sim_config(spec, t)
        est = montecarlo.estimate_capitals(m, alpha, c, cfg)["nonruin_cap"]
        return CapitalPoint(
            kind="nonruin",
            c=c,
            value=est.point,
            clamped=(est.point == 0.0),
            ci95=est.ci95,
        )
    if spec.backend == "clt":
        raise BackendIncompatibleError(
            "the CLT backend approximates the terminal shortfall only; "
            "use it through var_capital"
        )
    if spec.backend == "inverse_gaussian" and c == 0.0:
        if m.is_exponential_pair():
            point = var_capital(m, alpha, t, 0.0, replace(spec, backend="exact_exp"))
        else:
            point = var_capital(m, alpha, t, 0.0, replace(spec, backend="clt"))
        return replace(point, kind="nonruin")
    prob = _ruin_prob(m, spec, t, c)
    mb = spec.max_bracket or _default_bracket(m, alpha, t, c)
    if spec.backend == "inverse_gaussian":
        return _invert_unimodal(prob, alpha, spec, mb, "nonruin", c)
    return _invert(prob, alpha, spec, mb, "nonruin", c)


def ultimate_capital(
    m: RiskModel, alpha: float, c: float, spec: SolveSpec = SolveSpec()
) -> CapitalPoint:
    """Smallest capital with ultimate ruin probability at most alpha.

    Exponential pair: exact closed-form inversion.  Other light-tailed
    models: midpoint of the two-sided adjustment-coefficient enclosure,
    with the enclosure attached.  Heavy-tailed claims: no adjustment
    coefficient, typed error.

    Raises:
        InfiniteCapitalError: for c <= c*.
    """
    alpha = _check_alpha(alpha)
    if not math.isfinite(c):
        raise DomainError("ultimate_capital requires finite c")
    k = derived_constants(m)
    if c <= k.c_star:
        raise InfiniteCapitalError(
            f"ultimate capital is infinite for c = {c} <= c* = {k.c_star:.6g}"
        )
    if m.is_exponential_pair():
        p = ExpPair(m.t_law.rate, m.y_law.rate)
        v = bounds.ultimate_capital_exp(p, alpha, c)
        return CapitalPoint(kind="ultimate", c=c, value=v, clamped=(v == 0.0))
    lo, hi = bounds.ultimate_capital_interval(m, alpha, c)
    return CapitalPoint(
        kind="ultimate", c=c, value=0.5 * (lo + hi), interval=(lo, hi)
    )


def capital_curve(
    m: RiskModel,
    alpha: float,
    t: float,
    c_grid,
    spec: SolveSpec,
    kinds: tuple[str, ...] = ("var", "nonruin"),
) -> CurveTable:
    """Solve the requested capitals on a strictly increasing premium grid.

    Each bisection warm-starts its bracket from the previous grid point's
    solution (the curves are continuous and nonincreasing in c); per-point
    failures become NA cells with the reason recorded in the metadata.
    Invalid inputs shared by every cell (alpha, the grid, a horizon t that
    is not finite and positive when var or nonruin is asked for) raise
    DomainError up front.
    """
    alpha = _check_alpha(alpha)
    c_grid = [float(c) for c in c_grid]
    if any(b <= a for a, b in zip(c_grid, c_grid[1:])):
        raise DomainError("c_grid must be strictly increasing")
    if not all(0.0 <= c < math.inf for c in c_grid):
        raise DomainError("c_grid must be finite and nonnegative")
    for kind in kinds:
        if kind not in ("var", "nonruin", "ultimate"):
            raise DomainError(f"unknown capital kind {kind!r}")
    if "var" in kinds or "nonruin" in kinds:
        _check_horizon("capital_curve", t)

    columns = ["c"] + list(kinds)
    warnings_log: list[str] = []
    table = CurveTable(
        columns=columns,
        metadata={
            "alpha": alpha,
            "t": t,
            "backend": spec.backend,
            "warnings": warnings_log,
        },
    )
    solvers = {
        "var": lambda c: var_capital(m, alpha, t, c, spec),
        "nonruin": lambda c: nonruin_capital(m, alpha, t, c, spec),
        "ultimate": lambda c: ultimate_capital(m, alpha, c, spec),
    }
    prev: dict[str, Optional[float]] = {k: None for k in kinds}
    for c in c_grid:
        row: list[Optional[float]] = [c]
        for kind in kinds:
            try:
                if kind in ("var", "nonruin") and spec.backend in (
                    "exact_exp",
                    "inverse_gaussian",
                ):
                    point = _solve_warm(m, alpha, t, c, spec, kind, prev[kind])
                else:
                    point = solvers[kind](c)
                prev[kind] = point.value
                row.append(point.value)
            except (
                BackendIncompatibleError,
                BracketError,
                DomainError,
                InfiniteCapitalError,
                NoAdjustmentCoefficientError,
            ) as exc:
                warnings_log.append(f"{kind}@c={c:g}: {exc}")
                row.append(None)
        table.append(row)
    return table


def _solve_warm(
    m: RiskModel,
    alpha: float,
    t: float,
    c: float,
    spec: SolveSpec,
    kind: str,
    prev_value: Optional[float],
) -> CapitalPoint:
    """Root-solve with a warm upper bracket from the previous grid point."""
    if kind == "var":
        prob = _terminal_prob(m, spec, t, c)
    else:
        if spec.backend == "inverse_gaussian" and c == 0.0:
            return nonruin_capital(m, alpha, t, c, spec)
        prob = _ruin_prob(m, spec, t, c)
    mb = spec.max_bracket or _default_bracket(m, alpha, t, c)
    warm = None
    if prev_value is not None and prev_value > 0.0:
        # curves are nonincreasing in c, so the previous solution (plus a
        # safety margin) bounds the next one from above
        warm = min(mb, prev_value * 1.01 + 1.0)
    if spec.backend == "inverse_gaussian" and kind == "nonruin":
        return _invert_unimodal(prob, alpha, spec, mb, kind, c, warm_hi=warm)
    return _invert(prob, alpha, spec, mb, kind, c, warm_hi=warm)
