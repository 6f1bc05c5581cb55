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
root-finder: Brent's method.  Each backend probability is nonincreasing
in u beyond the lower bracket, so the root-finder converges
unconditionally.  For ``exact_exp`` Brent runs on log prob - log alpha,
from u = 0 for a single cell; inside a column the straight line through
the last two roots, extrapolated to the new rate, gives its bracket.  The
inverse Gaussian approximation vanishes at u = 0, so an 80-point scan in u
finds its peak and brackets the root between two neighbouring scan points
beyond it.  Inverse Gaussian cells are independent, so a column of them
is one array problem: one prepared kernel holds every cell's constants
and overflow checks, one 2-D call evaluates every scan, and
``special.brentq_columns`` runs Brent's method on the open cells in
lockstep, each cell bit for bit its own scalar solve; a single cell is a
column of one.  When even the lower bracket satisfies the target the
capital is 0 by definition and the result carries a "clamped" flag.
``capital_curve`` warm-starts each exact root solve from the previous two
rates and prices a Monte Carlo grid from one path sweep; ``ruin_curve``
tabulates ruin probabilities at a fixed capital, and both fill cells
through one loop.
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

_BACKENDS = ("exact_exp", "inverse_gaussian", "monte_carlo", "clt")
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
    ``sim.t`` must be the solve's t.  Root solves stop
    at a bracket width of 1e-6 money units, with an upper bracket derived
    from the asymptotic capital scale.
    """

    backend: str = "exact_exp"
    sim: Optional[SimConfig] = None

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise DomainError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )


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


def _ig_column(m: RiskModel, alpha: float, t: float, cs: list[float]) -> list:
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
    k, c = derived_constants(m), np.array(cs)
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


def _solve(
    m: RiskModel,
    alpha: float,
    t: float,
    c: float,
    spec: SolveSpec,
    kind: str,
    prev: tuple[tuple[float, float], ...] = (),
) -> CapitalPoint:
    """One "var" or "nonruin" capital at premium rate c; inputs already checked.

    ``prev`` holds the (rate, capital) cells solved last in a grid, at
    smaller rates, the latest first.  The curves are nonincreasing in c, so
    the latest capital u1 > 0 bounds this solution from above: an
    ``exact_exp`` solve tries u1 first, preceded, once there are two cells,
    by the straight line through both extrapolated to c, and takes u1 plus
    a safety margin as its warm upper bracket.  An inverse Gaussian cell
    takes no warm start: it is a column of one.
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
        sim = _check_sim(spec.sim, t)
        est = montecarlo.simulate_paths(m, [c], sim).quantile(kind, alpha)[0]
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
        return _settled(_ig_column(m, alpha, t, [c])[0])
    p = _require_exp_pair(m, f"backend {backend!r}")
    if kind == "var":
        prob = lambda u: 1.0 - exact.aggregate_cdf_exp(p, t, u + c * t)
    else:
        prob = lambda u: exact.ruin_finite_exp(p, u, c, t)
    mb = float(_default_bracket(derived_constants(m), alpha, t, c))
    if not prev or prev[0][1] == 0.0:
        return _invert(prob, alpha, mb, kind, c, None)
    (c1, u1), *older = prev
    column = [u1 + (u1 - u2) * (c - c1) / (c1 - c2) for c2, u2 in older]
    return _invert(prob, alpha, mb, kind, c, min(mb, u1 * 1.01 + 1.0), (*column, u1))


def var_capital(
    m: RiskModel, alpha: float, t: float, c: float, spec: SolveSpec
) -> CapitalPoint:
    """Value-at-Risk capital: the u >= 0 with P{V_t > u + c t} = alpha.

    Backends: ``clt`` evaluates the closed normal-approximation formula;
    ``exact_exp`` inverts the aggregate-claims distribution function;
    ``monte_carlo`` takes the empirical quantile of terminal deficits.
    """
    alpha = check_alpha(alpha)
    t = check_real("t", t, above=0.0)
    c = check_real("c", c, at_least=0.0)
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
    t = check_real("t", t, above=0.0)
    c = check_real("c", c, at_least=0.0)
    return _solve(m, alpha, t, c, spec, "nonruin")


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


Cell = Callable[[int, float], Optional[float]]


def _listed(values: list) -> Cell:
    return lambda i, c: values[i]


def _failing(exc: RuinCapitalError) -> Cell:
    """A cell that reports its column's grid-wide error."""

    def cell(i: int, c: float) -> Optional[float]:
        raise exc

    return cell


def _settled(point):
    """A solved cell's ``CapitalPoint``; its ``RuinCapitalError`` is raised."""
    if isinstance(point, RuinCapitalError):
        raise point
    return point


def _ig_cells(m: RiskModel, alpha: float, t: float, c_grid: list[float], spec: SolveSpec) -> Cell:
    """An inverse Gaussian non-ruin column: its rates c > 0 solved by one
    ``_ig_column``, a c = 0 cell by its per-rate redirect."""
    at = [i for i, c in enumerate(c_grid) if c > 0.0]
    try:
        points = dict(zip(at, _ig_column(m, alpha, t, [c_grid[i] for i in at])))
    except RuinCapitalError as exc:  # derived_constants fails every cell alike
        points = dict.fromkeys(at, exc)

    def cell(i: int, c: float) -> float:
        point = points[i] if i in points else _solve(m, alpha, t, c, spec, "nonruin")
        return _settled(point).value

    return cell


def _warm_cells(m: RiskModel, alpha: float, t: float, spec: SolveSpec, kind: str) -> Cell:
    """A var or nonruin column, each solve given the last two solved (rate, capital) cells."""
    prev: tuple[tuple[float, float], ...] = ()

    def cell(i: int, c: float) -> float:
        nonlocal prev
        u = _solve(m, alpha, t, c, spec, kind, prev).value
        prev = ((c, u), *prev[:1])
        return u

    return cell


def _cell_loop(
    table: CurveTable, c_grid: list[float], cells: list[tuple[str, Cell]]
) -> CurveTable:
    """Append one row per rate: c, then each named cell's value at (index, c).

    A ``RuinCapitalError`` makes the cell NA and is logged in
    ``table.metadata["warnings"]`` as "<name>@c=<c:g>: <reason>".
    """
    for i, c in enumerate(c_grid):
        row: list[Optional[float]] = [c]
        for name, cell in cells:
            try:
                row.append(cell(i, c))
            except RuinCapitalError as exc:
                table.metadata["warnings"].append(f"{name}@c={c:g}: {exc}")
                row.append(None)
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

    Each ``exact_exp`` root solve warm-starts its bracket from the previous
    two grid points' solutions (the curves are continuous and nonincreasing
    in c); an ``inverse_gaussian`` non-ruin column is solved in one pass over
    its rates, each cell equal to its per-rate solve bit for bit.  Under
    ``monte_carlo`` one ``PathSample`` prices the var and nonruin columns at
    every rate, each cell equal to its per-rate solve bit for bit, and
    ``metadata["mc_stderr"]`` maps each of these kinds to the standard
    errors of its cells.  A cell whose solve raises a
    ``RuinCapitalError`` becomes NA and its reason is logged in
    ``metadata["warnings"]`` as "<kind>@c=<c:g>: <reason>"; an error of the
    sweep is logged against every cell it prices.  Invalid inputs shared by
    every cell (alpha, the grid, a kind, a horizon t that is not finite and
    positive, whatever the kinds, and under ``monte_carlo`` a missing
    ``spec.sim`` or one whose horizon is not t) raise DomainError up front.
    """
    alpha = check_alpha(alpha)
    c_grid = check_c_grid(c_grid)
    for kind in kinds:
        if kind not in ("var", "nonruin", "ultimate"):
            raise DomainError(f"unknown capital kind {kind!r}")
    t = check_real("t", t, above=0.0)
    horizon_kinds = [kind for kind in kinds if kind != "ultimate"]

    table = CurveTable(
        columns=["c", *kinds],
        metadata={"alpha": alpha, "t": t, "backend": spec.backend, "warnings": []},
    )
    cells: dict[str, Cell] = {
        "ultimate": lambda i, c: ultimate_capital(m, alpha, c).value
    }
    if spec.backend == "monte_carlo" and horizon_kinds:
        sim = _check_sim(spec.sim, t)
        try:
            sample = montecarlo.simulate_paths(m, c_grid, sim)
        except RuinCapitalError as exc:
            cells.update(dict.fromkeys(horizon_kinds, _failing(exc)))
        else:
            ests = {k: sample.quantile(k, alpha) for k in horizon_kinds}
            cells.update({k: _listed([e.point for e in ests[k]]) for k in horizon_kinds})
            table.metadata["mc_stderr"] = {k: [e.stderr for e in ests[k]] for k in horizon_kinds}
    if spec.backend == "inverse_gaussian" and "nonruin" in kinds:
        cells["nonruin"] = _ig_cells(m, alpha, t, c_grid, spec)
    # any other var or nonruin column is solved cell by cell
    return _cell_loop(
        table, c_grid, [(k, cells.get(k) or _warm_cells(m, alpha, t, spec, k)) for k in kinds]
    )


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
    cells: dict[str, Cell] = {
        "exact": lambda i, c: exact.ruin_finite_exp(pair("exact"), u, c, t),
        "ig": lambda i, c: approx.ig_ruin_probability(m, u, c, t),
        "cramer": lambda i, c: approx.cramer_ruin_exp(pair("cramer"), u, c, t),
    }
    if "mc" in methods:
        table.columns.append("mc_stderr")
        table.metadata.update(seed=sim.seed, n_paths=sim.n_paths)
        try:
            ests = montecarlo.simulate_paths(m, c_grid, sim).ruin_prob(u)
        except RuinCapitalError as exc:  # logged against the mc cells only
            cells.update(mc=_failing(exc), mc_stderr=lambda i, c: None)
        else:
            cells.update(
                mc=_listed([e.point for e in ests]), mc_stderr=_listed([e.stderr for e in ests])
            )
    return _cell_loop(table, c_grid, [(name, cells[name]) for name in table.columns[1:]])
