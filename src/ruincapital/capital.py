"""Risk capitals as implicit functions of the premium rate.

Three capitals are produced by inverting a probability backend in the
initial capital u:

* the Value-at-Risk capital: P{V_t > u + c t} = alpha;
* the non-ruin capital: P{ruin within [0, t]} = alpha;
* the ultimate capital: P{ruin ever} = alpha (finite only for c > c*).

Var and nonruin capitals are solved by the column: ``_BACKENDS`` maps each
backend name to one function that prices whole columns, one
``CapitalPoint`` or ``RuinCapitalError`` per rate and kind, and a single
cell is a column of one.  ``clt`` evaluates its closed form, and
``monte_carlo`` takes empirical quantiles of one sweep of simulated
deficits for every kind.  ``exact_exp`` and ``inverse_gaussian`` invert
their probability in u by Brent's method; each is nonincreasing in u
beyond the lower bracket, so the root-finder converges unconditionally.
For ``exact_exp`` Brent runs on log prob - log alpha, each cell bracketed
by the line through its column's last two roots.  The inverse Gaussian
probability vanishes at u = 0, so an 80-point scan in u finds its peak
and brackets the root beyond it, and a column is one array problem:
every scan in one 2-D call, then ``special.brentq_columns`` on the open
cells in lockstep.  When even the lower bracket satisfies the target the
capital is 0 by definition and the result carries a "clamped" flag.
``capital_curve`` and ``ruin_curve`` (ruin probabilities at a fixed
capital) fill their tables row by row through one loop, which turns an
error cell into NA and a logged reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import approx, bounds, exact, montecarlo
from .errors import (
    BackendIncompatibleError,
    BracketError,
    DomainError,
    InfiniteCapitalError,
    IntegrationError,
    RuinCapitalError,
    check_real,
)
from .exact import _TINY, ExpPair
from .model import DerivedConstants, RiskModel, check_alpha, check_c_grid, derived_constants
from .montecarlo import SimConfig
from .special import IG_NOT_FINITE, brentq, brentq_columns
from .table import CurveTable

__all__ = [
    "SolveSpec",
    "CapitalPoint",
    "var_capital",
    "nonruin_capital",
    "ultimate_capital",
    "capital_curve",
    "ruin_curve",
]

_RUIN_METHODS = ("exact", "ig", "cramer", "mc")
# bracket width at which a root solve stops, in money units
_U_TOLERANCE = 1e-6
# the inverse Gaussian scan in u, as fractions of the upper bracket: the
# 80-point geometric grid on [1e-6, 1] (np.geomspace's values, without the
# memory its first call costs a process that never scans)
_SCAN = np.logspace(-6.0, 0.0, 80)


@dataclass(frozen=True)
class SolveSpec:
    """Which probability backend answers a var or nonruin cell.

    ``sim`` is required only by the monte_carlo backend, and its horizon
    ``sim.t`` must be the solve's t.  Root solves stop at a bracket width of
    1e-6 money units, with an upper bracket derived from the asymptotic
    capital scale.
    """

    backend: str = "exact_exp"
    sim: Optional[SimConfig] = None

    def __post_init__(self):
        names = tuple(_BACKENDS)
        if self.backend not in names:
            raise DomainError(f"unknown backend {self.backend!r}; expected one of {names}")


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


def _default_bracket(k: DerivedConstants, alpha: float, t: float, c):
    """The asymptotic band's upper end at min(c, c*) plus ten of its sqrt(t)
    spreads, for one rate c or, element by element, an array of them."""
    upper = approx._clt_capital(k, alpha / 2.0, t, np.minimum(c, k.c_star))
    return upper + 10.0 * (k.capital_scale * math.sqrt(t))


def _require_exp_pair(m: RiskModel, route: str) -> ExpPair:
    if not m.is_exponential_pair():
        raise BackendIncompatibleError(
            f"{route} requires exponential inter-claim times and claim sizes"
        )
    return ExpPair(m.t_law.rate, m.y_law.rate)


def _cell(solve: Callable, *args):
    """``solve(*args)``, or the RuinCapitalError it raises, kept without the
    traceback whose frames would hold the solve's arrays alive."""
    try:
        return solve(*args)
    except RuinCapitalError as exc:
        return exc.with_traceback(None)


def _failed(exc: RuinCapitalError, cs: list) -> list:
    """A column whose every cell is the one error ``exc``."""
    return [exc.with_traceback(None)] * len(cs)


def _invert(
    prob: Callable,
    alpha: float,
    max_bracket: float,
    kind: str,
    c: float,
    warm_hi: Optional[float],
    column: tuple[float, ...] = (),
) -> CapitalPoint:
    """Solve prob(u) = alpha for u >= 0 by Brent's method on log prob(u) - log alpha.

    prob is nonincreasing in u, so each u evaluated narrows the bracket
    [lo, hi] with prob(lo) >= alpha > prob(hi).  The u's tried are, in
    order, ``column`` (a bracket extrapolated along a capital column, lower
    end first), u = 0, ``warm_hi`` and ``max_bracket``, each only if it lies
    inside the bracket so far: a column bracket that holds skips u = 0, and
    otherwise this is the path from u = 0 with a warm upper bracket.  The
    capital is 0 ("clamped") when prob is below alpha at u = 0.  prob decays
    about exponentially in u, so log prob is close to linear and Brent's
    secant steps land near the root; prob is floored at the smallest normal
    double, since it is 0.0 far out.  Every value of prob is kept by u, so
    the bracket ends and the residual |prob(u) - alpha| at the root, one of
    Brent's own iterates, are looked up, never evaluated again.
    """
    known: dict[float, float] = {}
    f = lambda u: known[u] if u in known else known.setdefault(u, prob(u))
    lo, hi = -math.inf, math.inf
    for u in (*column, 0.0, warm_hi, max_bracket):
        if u is not None and lo < u < hi and 0.0 <= u <= max_bracket:
            lo, hi = (u, hi) if f(u) >= alpha else (lo, u)
    if lo < 0.0:
        return CapitalPoint(kind=kind, c=c, value=0.0, clamped=True)
    if hi == math.inf:
        raise BracketError(f"no solution below max_bracket = {max_bracket:.6g}")
    log_alpha = math.log(alpha)
    u = brentq(lambda x: math.log(max(f(x), _TINY)) - log_alpha, lo, hi, xtol=_U_TOLERANCE)
    return CapitalPoint(kind=kind, c=c, value=u, residual=abs(f(u) - alpha))


def _exact_cell(p: ExpPair, k: DerivedConstants, alpha, t, c, kind, prev) -> CapitalPoint:
    """One ``exact_exp`` cell at rate c, given ``prev``: the (rate, capital)
    cells solved last in its column, at smaller rates, the latest first.  The
    curves are nonincreasing in c, so the latest capital u1 > 0 bounds this
    solution: the solve tries u1, preceded, once there are two cells, by the
    line through both extrapolated to c, with u1 plus a margin as its warm
    upper bracket."""
    if kind == "var":
        prob = lambda u: 1.0 - exact.aggregate_cdf_exp(p, t, u + c * t)
    else:
        prob = lambda u: exact.ruin_finite_exp(p, u, c, t)
    mb = float(_default_bracket(k, alpha, t, c))
    if not prev or prev[0][1] == 0.0:
        return _invert(prob, alpha, mb, kind, c, None)
    (c1, u1), *older = prev
    column = [u1 + (u1 - u2) * (c - c1) / (c1 - c2) for c2, u2 in older]
    return _invert(prob, alpha, mb, kind, c, min(mb, u1 * 1.01 + 1.0), (*column, u1))


def _exact_column(m: RiskModel, alpha: float, t: float, cs: list, kinds, sim) -> dict:
    """``exact_exp``: each kind's cells in grid order, each warm-started from
    the last two cells of its column that solved."""
    try:
        p, k = _require_exp_pair(m, "backend 'exact_exp'"), derived_constants(m)
    except RuinCapitalError as exc:
        return {kind: _failed(exc, cs) for kind in kinds}
    out = {}
    for kind in kinds:
        prev, out[kind] = (), []
        for c in cs:
            point = _cell(_exact_cell, p, k, alpha, t, c, kind, prev)
            if isinstance(point, CapitalPoint):
                prev = ((c, point.value), *prev[:1])
            out[kind].append(point)
    return out


def _ig_column(m: RiskModel, alpha: float, t: float, cs: list, kinds, sim) -> dict:
    """``inverse_gaussian``: the non-ruin column by ``_ig_solve``, but at c = 0
    (only a grid's first rate), where ruin by t is exactly a terminal
    shortfall, by the Value-at-Risk solve of the same equation: exact for an
    exponential pair, CLT otherwise.  A var cell is refused."""
    refused = BackendIncompatibleError(
        "the inverse Gaussian approximation targets the ruin "
        "probability, not the terminal shortfall; use backend 'clt'"
    )
    out = {kind: _failed(refused, cs) for kind in kinds if kind != "nonruin"}
    if "nonruin" in kinds:
        head = []
        if cs and cs[0] == 0.0:
            redirect = _BACKENDS["exact_exp" if m.is_exponential_pair() else "clt"]
            var = redirect(m, alpha, t, [0.0], ("var",), sim)["var"][0]
            head = [var if isinstance(var, RuinCapitalError) else replace(var, kind="nonruin")]
            cs = cs[1:]
        out["nonruin"] = head + (_ig_solve(m, alpha, t, cs) if cs else [])
    return out


def _ig_solve(m: RiskModel, alpha: float, t: float, cs: list) -> list:
    """Inverse Gaussian non-ruin capitals at the rates ``cs`` (each > 0), solved together.

    One ``CapitalPoint`` or one ``RuinCapitalError`` per rate, each cell
    independent of the others.  The IG approximation vanishes at u = 0 and
    rises over the first few money units (a small-u artifact of the
    large-u theory); the root relevant to the capital sits on its
    decreasing side.  One 2-D call evaluates every cell's 80-point
    geometric scan ``mb * _SCAN`` of [1e-6, 1] * mb, mb its upper bracket;
    a cell whose scan peak is below alpha is clamped to 0, and otherwise
    its bracket is the first scan point beyond the peak where prob < alpha
    and the point before it.  ``brentq_columns`` then runs Brent's method on
    the open cells in lockstep, starting from the scan's values at the
    bracket ends; the residual is read off the last iterate, so no u of a
    cell is evaluated twice.  A cell whose shape or limit check fails or
    whose probability overflows gets the kernel's IntegrationError, one
    with no bracket or no convergence a BracketError.
    """
    try:
        k = derived_constants(m)
    except RuinCapitalError as exc:  # fails every cell alike
        return _failed(exc, cs)
    c = np.array(cs)
    mbs = _default_bracket(k, alpha, t, c)
    # the scan and every brentq iterate of cell i lie in [mbs[i] * _SCAN[0], mbs[i]]
    prob, out = approx._ig_prob(k, c, t, mbs * _SCAN[0], mbs)
    rows = np.array([i for i, e in enumerate(out) if e is None], dtype=np.intp)
    us = mbs[rows, None] * _SCAN
    vals = prob(us, rows)
    peak = vals.argmax(axis=1)
    below = (vals < alpha) & (np.arange(_SCAN.size) >= peak[:, None])
    first = below.argmax(axis=1)
    nan = np.isnan(vals).any(axis=1)
    clamped = vals[np.arange(rows.size), peak] < alpha
    bracketed = below.any(axis=1)
    for i, bad, low, ok in zip(rows.tolist(), nan.tolist(), clamped.tolist(), bracketed.tolist()):
        if bad:
            out[i] = IntegrationError(IG_NOT_FINITE)
        elif low:
            out[i] = CapitalPoint(kind="nonruin", c=cs[i], value=0.0, clamped=True)
        elif not ok:
            out[i] = BracketError(f"no solution below max_bracket = {mbs[i]:.6g}")
    solve = ~nan & ~clamped & bracketed
    rows, lo, hi = rows[solve], (first - 1)[solve], first[solve]
    at = np.flatnonzero(solve)
    roots, f_roots, errors = brentq_columns(
        lambda x, j: prob(x, rows[j]) - alpha,
        us[at, lo], us[at, hi],
        vals[at, lo] - alpha, vals[at, hi] - alpha,
        _U_TOLERANCE,
    )
    for i, u, fu, error in zip(rows.tolist(), roots.tolist(), f_roots.tolist(), errors):
        if error is None:
            out[i] = CapitalPoint(kind="nonruin", c=cs[i], value=u, residual=abs(fu))
        else:
            out[i] = IntegrationError(IG_NOT_FINITE) if math.isnan(fu) else error
    return out


def _check_sim(sim: Optional[SimConfig], t: float) -> SimConfig:
    """``sim``; DomainError when it is missing or its horizon is not t."""
    if sim is None:
        raise DomainError("Monte Carlo requires a SimConfig")
    if sim.t != t:
        raise DomainError(f"the SimConfig simulates to t = {sim.t!r}, not the horizon t = {t!r}")
    return sim


def _mc_column(m: RiskModel, alpha: float, t: float, cs: list, kinds, sim) -> dict:
    """``monte_carlo``: every kind's cells from the quantiles of one sweep of
    ``sim`` over the rates ``cs``; a missing ``sim``, or one whose horizon is
    not t, raises DomainError."""
    sim = _check_sim(sim, t)
    try:
        sample = montecarlo.simulate_paths(m, cs, sim)
    except RuinCapitalError as exc:
        return {kind: _failed(exc, cs) for kind in kinds}
    return {
        kind: [
            CapitalPoint(kind=kind, c=c, value=e.point, clamped=(e.point == 0.0), ci95=e.ci95)
            for c, e in zip(cs, sample.quantile(kind, alpha))
        ]
        for kind in kinds
    }


def _clt_column(m: RiskModel, alpha: float, t: float, cs: list, kinds, sim) -> dict:
    """``clt``: the closed-form Value-at-Risk capital at each rate."""

    def var(c: float) -> CapitalPoint:
        v = approx.var_clt(m, alpha, t, c)
        return CapitalPoint(kind="var", c=c, value=v, clamped=(v == 0.0))

    refused = BackendIncompatibleError(
        "the CLT backend approximates the terminal shortfall only; use it through var_capital"
    )
    return {k: [_cell(var, c) for c in cs] if k == "var" else _failed(refused, cs) for k in kinds}


# The backends, by name: each prices whole columns,
# (m, alpha, t, cs, kinds, sim) -> {kind: [CapitalPoint | RuinCapitalError per rate]}.
_BACKENDS: dict[str, Callable[..., dict]] = {
    "exact_exp": _exact_column,
    "inverse_gaussian": _ig_column,
    "monte_carlo": _mc_column,
    "clt": _clt_column,
}


def _one_cell(m: RiskModel, alpha, t, c, spec: SolveSpec, kind: str) -> CapitalPoint:
    """The ``kind`` capital at one rate: a column of one, its error raised."""
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    c = check_real("c", c, at_least=0.0)
    point = _BACKENDS[spec.backend](m, alpha, t, [c], (kind,), spec.sim)[kind][0]
    if isinstance(point, RuinCapitalError):
        raise point
    return point


def var_capital(
    m: RiskModel, alpha: float, t: float, c: float, spec: SolveSpec
) -> CapitalPoint:
    """Value-at-Risk capital: the u >= 0 with P{V_t > u + c t} = alpha.

    Backends: ``clt`` evaluates the closed normal-approximation formula;
    ``exact_exp`` inverts the aggregate-claims distribution function;
    ``monte_carlo`` takes the empirical quantile of terminal deficits.
    """
    return _one_cell(m, alpha, t, c, spec, "var")


def nonruin_capital(
    m: RiskModel, alpha: float, t: float, c: float, spec: SolveSpec
) -> CapitalPoint:
    """Non-ruin capital: the u >= 0 with P{ruin within [0, t]} = alpha.

    At c = 0 ruin by t is exactly a terminal shortfall, so the inverse
    Gaussian backend (undefined there) redirects to the Value-at-Risk
    solve with the same defining equation: exact for an exponential pair,
    CLT otherwise.
    """
    return _one_cell(m, alpha, t, c, spec, "nonruin")


def ultimate_capital(m: RiskModel, alpha: float, c: float) -> CapitalPoint:
    """Smallest capital with ultimate ruin probability at most alpha.

    The midpoint of the two-sided adjustment-coefficient enclosure, with
    the enclosure attached; for exponential claims its two ends coincide
    in the exact capital.  ``clamped`` means the enclosure is {0}.
    Heavy-tailed claims: no adjustment coefficient, typed error.

    Raises:
        InfiniteCapitalError: for c <= c*.
    """
    alpha = check_alpha(alpha)
    c = check_real("c", c)
    k = derived_constants(m)
    if c <= k.c_star:
        raise InfiniteCapitalError(
            f"ultimate capital is infinite for c = {c} <= c* = {k.c_star:.6g}"
        )
    lo, hi = bounds.ultimate_capital_interval(m, alpha, c)
    return CapitalPoint(
        kind="ultimate", c=c, value=0.5 * (lo + hi), clamped=(hi == 0.0), interval=(lo, hi)
    )


def _fill(table: CurveTable, c_grid: list[float], columns: dict[str, list]) -> CurveTable:
    """Append one row per rate: c, then the cell of each of the table's
    columns at that rate, a ``CapitalPoint`` as its value.

    A ``RuinCapitalError`` cell becomes NA and is logged in
    ``table.metadata["warnings"]`` as "<name>@c=<c:g>: <reason>", row by row.
    """
    for i, c in enumerate(c_grid):
        row: list[Optional[float]] = [c]
        for name in table.columns[1:]:
            cell = columns[name][i]
            if isinstance(cell, RuinCapitalError):
                table.metadata["warnings"].append(f"{name}@c={c:g}: {cell}")
                cell = None
            row.append(cell.value if isinstance(cell, CapitalPoint) else cell)
        table.append(row)
    return table


def capital_curve(
    m: RiskModel,
    alpha: float,
    t: float,
    c_grid,
    spec: SolveSpec,
    kinds: tuple[str, ...] = ("var", "nonruin"),
) -> CurveTable:
    """Solve the requested capitals on a strictly increasing premium grid.

    The var and nonruin columns are the backend's column solve: each cell
    equals its single-cell solve, bit for bit except under ``exact_exp``,
    whose root solves warm-start their brackets from the previous two grid
    points' solutions (the curves are continuous and nonincreasing in c).
    Under ``monte_carlo`` one ``PathSample`` prices both columns, and
    ``metadata["mc_stderr"]`` maps each of these kinds to the standard
    errors of its cells.  A ``RuinCapitalError`` cell becomes NA and its
    reason is logged in ``metadata["warnings"]`` as "<kind>@c=<c:g>:
    <reason>"; an error of a whole column, such as a failed sweep, is
    logged against each cell it prices.  Invalid inputs shared by every
    cell (alpha, the grid, a kind, a horizon t that is not finite and
    positive, whatever the kinds, and under ``monte_carlo`` a missing
    ``spec.sim`` or one whose horizon is not t) raise DomainError up front.
    """
    alpha = check_alpha(alpha)
    c_grid = check_c_grid(c_grid)
    for kind in kinds:
        if kind not in ("var", "nonruin", "ultimate"):
            raise DomainError(f"unknown capital kind {kind!r}")
    t = check_real("t", t, above=0.0)
    horizon = tuple(dict.fromkeys(kind for kind in kinds if kind != "ultimate"))

    table = CurveTable(
        columns=["c", *kinds],
        metadata={"alpha": alpha, "t": t, "backend": spec.backend, "warnings": []},
    )
    points = _BACKENDS[spec.backend](m, alpha, t, c_grid, horizon, spec.sim) if horizon else {}
    if "ultimate" in kinds:
        points["ultimate"] = [_cell(ultimate_capital, m, alpha, c) for c in c_grid]
    # a simulated cell carries its 95% interval, whose half width over 1.96
    # is the quantile's standard error (PathSample.quantile)
    stderr = {
        kind: [(p.ci95[1] - p.ci95[0]) / (2.0 * 1.96) for p in points[kind]]
        for kind in horizon
        if c_grid and all(isinstance(p, CapitalPoint) and p.ci95 for p in points[kind])
    }
    if stderr:
        table.metadata["mc_stderr"] = stderr
    return _fill(table, c_grid, points)


def ruin_curve(
    m: RiskModel, u: float, t: float, c_grid, methods, sim: Optional[SimConfig] = None
) -> CurveTable:
    """Finite-horizon ruin probabilities at capital u, one column per method.

    ``methods`` is a sequence drawn from ``exact`` and ``cramer``
    (exponential pair only), ``ig`` (the inverse Gaussian closed form) and
    ``mc``: the ``ruin_prob`` of one ``PathSample`` of ``sim`` prices every
    ``mc`` cell and an added ``mc_stderr`` column.  Cells are NA and logged
    as in ``capital_curve``; the grid, u (finite, >= 0), t (finite, > 0),
    the methods and, for ``mc``, a ``sim`` with horizon t are checked up
    front.
    """
    c_grid = check_c_grid(c_grid)
    u = check_real("u", u, at_least=0.0)
    t = check_real("t", t, above=0.0)
    if any(mth not in _RUIN_METHODS for mth in methods):
        raise DomainError(f"ruin-probability methods are among {_RUIN_METHODS}, got {methods!r}")
    if "mc" in methods:
        _check_sim(sim, t)

    table = CurveTable(columns=["c", *methods], metadata={"u": u, "t": t, "warnings": []})
    pair = lambda name: _require_exp_pair(m, f"method {name!r}")
    per_rate = {
        "exact": lambda c: exact.ruin_finite_exp(pair("exact"), u, c, t),
        "ig": lambda c: approx.ig_ruin_probability(m, u, c, t),
        "cramer": lambda c: approx.cramer_ruin_exp(pair("cramer"), u, c, t),
    }
    columns = {mth: [_cell(per_rate[mth], c) for c in c_grid] for mth in methods if mth != "mc"}
    if "mc" in methods:
        table.columns.append("mc_stderr")
        table.metadata.update(seed=sim.seed, n_paths=sim.n_paths)
        try:
            ests = montecarlo.simulate_paths(m, c_grid, sim).ruin_prob(u)
        except RuinCapitalError as exc:  # logged against the mc cells only
            columns.update(mc=_failed(exc, c_grid), mc_stderr=[None] * len(c_grid))
        else:
            columns.update(mc=[e.point for e in ests], mc_stderr=[e.stderr for e in ests])
    return _fill(table, c_grid, columns)
