"""Risk capitals as implicit functions of the premium rate.

Three capitals are produced by inverting a probability backend in the
initial capital u:

* the Value-at-Risk capital: P{V_t > u + c t} = alpha;
* the non-ruin capital: P{ruin within [0, t]} = alpha;
* the ultimate capital: P{ruin ever} = alpha (finite only for c > c*).

Every var and nonruin cell, whether from ``var_capital``,
``nonruin_capital`` or ``capital_curve``, goes through one solve: the
``clt`` backend evaluates its closed form, ``monte_carlo`` takes empirical
quantiles of simulated deficits, and ``exact_exp`` and
``inverse_gaussian`` invert their probability in u with one bracketed
root-finder.  Each backend probability is nonincreasing in u beyond the
lower bracket (u = 0, or the peak of a scan for the inverse Gaussian
approximation, which vanishes at u = 0), so the root-finder converges
unconditionally; when even the lower bracket satisfies the target the
capital is 0 by definition and the result carries a "clamped" flag.
``capital_curve`` warm-starts each root solve from the previous rate and
prices a Monte Carlo grid from one path sweep.
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
    RuinCapitalError,
)
from .exact import ExpPair
from .model import RiskModel, check_alpha, check_c_grid, derived_constants
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
    warm_hi: Optional[float],
    scan: bool,
) -> CapitalPoint:
    """Solve prob(u) = alpha for u >= 0 by bracketed root-finding.

    The lower bracket is u = 0, or with ``scan`` the argmax of an 80-point
    geometric scan of [1e-6, 1] * max_bracket: the inverse Gaussian
    approximation rises from 0 over the first few money units (a small-u
    artifact of the large-u theory) and the root relevant to the capital
    sits on its decreasing side.  ``warm_hi`` is tried as the upper bracket
    before ``max_bracket``.
    """
    if scan:
        us = np.geomspace(1e-6 * max_bracket, max_bracket, 80)
        vals = [prob(float(u)) for u in us]
        i = int(np.argmax(vals))
        lo, p_lo = float(us[i]), vals[i]
    else:
        lo, p_lo = 0.0, prob(0.0)
    if p_lo < alpha:
        return CapitalPoint(kind=kind, c=c, value=0.0, clamped=True)
    hi = None
    if warm_hi is not None and lo < warm_hi <= max_bracket:
        if prob(warm_hi) < alpha:
            hi = warm_hi
    if hi is None:
        if prob(max_bracket) >= alpha:
            raise BracketError(
                f"no solution below max_bracket = {max_bracket:.6g}"
            )
        hi = max_bracket
    u = float(
        optimize.brentq(lambda x: prob(x) - alpha, lo, hi, xtol=spec.u_tolerance)
    )
    return CapitalPoint(
        kind=kind, c=c, value=u, residual=abs(prob(u) - alpha)
    )


def _sim_config(spec: SolveSpec, t: float) -> SimConfig:
    if spec.sim is None:
        raise DomainError("monte_carlo backend requires SolveSpec.sim")
    if spec.sim.t != t:
        return replace(spec.sim, t=t)
    return spec.sim


def _solve(
    m: RiskModel,
    alpha: float,
    t: float,
    c: float,
    spec: SolveSpec,
    kind: str,
    prev_value: Optional[float] = None,
) -> CapitalPoint:
    """One "var" or "nonruin" capital at premium rate c; inputs already checked.

    ``prev_value`` is the solution at the previous, smaller rate of a grid:
    the curves are nonincreasing in c, so it (plus a safety margin) bounds
    this solution from above and warm-starts the bracket.
    """
    backend = spec.backend
    if backend == "clt":
        if kind == "nonruin":
            raise BackendIncompatibleError(
                "the CLT backend approximates the terminal shortfall only; "
                "use it through var_capital"
            )
        v = approx.var_clt(m, alpha, t, c)
        return CapitalPoint(kind="var", c=c, value=v, clamped=(v == 0.0))
    if backend == "monte_carlo":
        cfg = _sim_config(spec, t)
        est = montecarlo.estimate_capitals(m, alpha, c, cfg)[f"{kind}_cap"]
        return CapitalPoint(
            kind=kind, c=c, value=est.point, clamped=(est.point == 0.0), ci95=est.ci95
        )
    if backend == "inverse_gaussian":
        if kind == "var":
            raise BackendIncompatibleError(
                "the inverse Gaussian approximation targets the ruin "
                "probability, not the terminal shortfall; use backend 'clt'"
            )
        if c == 0.0:
            # at c = 0 ruin by t is exactly a terminal shortfall
            redirect = "exact_exp" if m.is_exponential_pair() else "clt"
            point = _solve(m, alpha, t, 0.0, replace(spec, backend=redirect), "var")
            return replace(point, kind="nonruin")
        prob = lambda u: approx.ig_ruin_probability(m, u, c, t, "closed")
    else:
        p = _require_exp_pair(m, backend)
        if kind == "var":
            prob = lambda u: 1.0 - exact.aggregate_cdf_exp(p, t, u + c * t)
        else:
            prob = lambda u: exact.ruin_finite_exp(p, u, c, t)
    mb = spec.max_bracket or _default_bracket(m, alpha, t, c)
    warm = None
    if prev_value is not None and prev_value > 0.0:
        warm = min(mb, prev_value * 1.01 + 1.0)
    return _invert(prob, alpha, spec, mb, kind, c, warm, scan=backend == "inverse_gaussian")


def var_capital(
    m: RiskModel, alpha: float, t: float, c: float, spec: SolveSpec
) -> CapitalPoint:
    """Value-at-Risk capital: the u >= 0 with P{V_t > u + c t} = alpha.

    Backends: ``clt`` evaluates the closed normal-approximation formula;
    ``exact_exp`` inverts the aggregate-claims distribution function;
    ``monte_carlo`` takes the empirical quantile of terminal deficits.
    """
    alpha = check_alpha(alpha)
    _check_horizon_premium("var_capital", t, c)
    return _solve(m, alpha, t, c, spec, "var")


def nonruin_capital(
    m: RiskModel, alpha: float, t: float, c: float, spec: SolveSpec
) -> CapitalPoint:
    """Non-ruin capital: the u >= 0 with P{ruin within [0, t]} = alpha.

    At c = 0 ruin by t is exactly a terminal shortfall, so the inverse
    Gaussian backend (undefined there) redirects to the Value-at-Risk
    solve with the same defining equation: exact for an exponential pair,
    CLT otherwise.
    """
    alpha = check_alpha(alpha)
    _check_horizon_premium("nonruin_capital", t, c)
    return _solve(m, alpha, t, c, spec, "nonruin")


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
    alpha = check_alpha(alpha)
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

    Each root solve warm-starts its bracket from the previous grid point's
    solution (the curves are continuous and nonincreasing in c).  Under
    ``monte_carlo`` one ``simulate_curve`` sweep prices the var and nonruin
    columns at every rate, each cell equal to its per-rate solve bit for
    bit, and ``metadata["mc_stderr"]`` maps each of these kinds to the
    standard errors of its cells.  A cell whose solve raises a
    ``RuinCapitalError`` becomes NA and its reason is logged in
    ``metadata["warnings"]`` as "<kind>@c=<c:g>: <reason>".  Invalid inputs
    shared by every cell (alpha, the grid, a kind, a horizon t that is not
    finite and positive when var or nonruin is asked for) raise DomainError
    up front.
    """
    alpha = check_alpha(alpha)
    c_grid = check_c_grid(c_grid)
    for kind in kinds:
        if kind not in ("var", "nonruin", "ultimate"):
            raise DomainError(f"unknown capital kind {kind!r}")
    horizon_kinds = [kind for kind in kinds if kind != "ultimate"]
    if horizon_kinds:
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
    mc_values: dict[str, list] = {}
    mc_error: Optional[RuinCapitalError] = None
    if spec.backend == "monte_carlo" and horizon_kinds:
        try:
            sweep = montecarlo.simulate_curve(m, alpha, c_grid, _sim_config(spec, t))
        except RuinCapitalError as exc:
            mc_error = exc
        else:
            mc_values = {kind: sweep.column(f"{kind}_cap") for kind in horizon_kinds}
            table.metadata["mc_stderr"] = {
                kind: [
                    (hi - lo) / (2.0 * 1.96)
                    for lo, hi in zip(
                        sweep.column(f"{kind}_lo"), sweep.column(f"{kind}_hi")
                    )
                ]
                for kind in horizon_kinds
            }
    prev: dict[str, Optional[float]] = {k: None for k in kinds}
    for i, c in enumerate(c_grid):
        row: list[Optional[float]] = [c]
        for kind in kinds:
            try:
                if kind == "ultimate":
                    value = ultimate_capital(m, alpha, c, spec).value
                elif mc_error is not None:
                    raise mc_error
                elif kind in mc_values:
                    value = mc_values[kind][i]
                else:
                    value = _solve(m, alpha, t, c, spec, kind, prev[kind]).value
                prev[kind] = value
            except RuinCapitalError as exc:
                warnings_log.append(f"{kind}@c={c:g}: {exc}")
                value = None
            row.append(value)
        table.append(row)
    return table
