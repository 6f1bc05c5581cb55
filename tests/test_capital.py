import inspect
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize

from ruincapital import approx, capital, montecarlo, presets
from ruincapital.capital import (
    _SCAN,
    _U_TOLERANCE,
    CapitalPoint,
    SolveSpec,
    _default_bracket,
    _invert,
    capital_curve,
    nonruin_capital,
    ruin_curve,
    ultimate_capital,
    var_capital,
)
from ruincapital.dist import Erlang, Exponential, Kummer, MixtureExp2, Pareto
from ruincapital.errors import (
    BackendIncompatibleError,
    BracketError,
    DomainError,
    InfiniteCapitalError,
    IntegrationError,
    NoAdjustmentCoefficientError,
    RuinCapitalError,
)
from ruincapital.exact import ExpPair, aggregate_cdf_exp, ruin_finite_exp
from ruincapital.model import RiskModel, c_grid_range, derived_constants
from ruincapital.montecarlo import SimConfig
from ruincapital.special import brentq

UNIT = RiskModel(Exponential(1.0), Exponential(1.0))
EXACT = SolveSpec(backend="exact_exp")
IG = SolveSpec(backend="inverse_gaussian")


def test_nonruin_solution_satisfies_defining_equation():
    pt = nonruin_capital(UNIT, 0.05, 200.0, 1.0, EXACT)
    assert not pt.clamped
    p = ruin_finite_exp(ExpPair(1.0, 1.0), pt.value, 1.0, 200.0)
    assert p == pytest.approx(0.05, abs=2e-6)
    assert pt.residual is not None and pt.residual <= 2e-6


def test_nonruin_near_critical_rate_model_i():
    # within 3% of c* the exact route answers through Seal's formula
    model_i = RiskModel(Exponential(0.8), Exponential(0.6))
    pt = nonruin_capital(model_i, 0.05, 200.0, 1.3333, EXACT)
    assert pt.value == pytest.approx(59.9086, abs=1e-3)


class _Counting:
    """A backend that records each scalar u it is asked for."""

    def __init__(self, prob):
        self.prob, self.scalars, self.arrays = prob, [], []

    def __call__(self, u):
        (self.arrays if np.ndim(u) else self.scalars).append(u)
        return self.prob(u)


@pytest.mark.parametrize("path", ["exact", "warm", "warm_miss", "column", "column_miss"])
def test_invert_evaluates_no_u_twice(path):
    c, t, alpha = 1.1, 200.0, 0.05
    mb = _default_bracket(derived_constants(UNIT), alpha, t, c)
    prob = _Counting(lambda u: ruin_finite_exp(ExpPair(1.0, 1.0), u, c, t))
    root = nonruin_capital(UNIT, alpha, t, c, EXACT).value
    warm = {"exact": None, "warm_miss": 0.5 * root}.get(path, root * 1.01 + 1.0)
    column = {"column": (root - 1.0, root + 1.0), "column_miss": (root + 1.0, root + 2.0)}
    pt = _invert(prob, alpha, mb, "nonruin", c, warm, column.get(path, ()))
    assert len(set(prob.scalars)) == len(prob.scalars) and not prob.arrays
    # the residual is read off the root, one of the solve's own iterates
    assert pt.value in prob.scalars
    assert pt.residual == abs(prob.prob(pt.value) - alpha)
    # each u tried narrows the bracket; a column bracket that holds skips u = 0
    lo, hi = {
        "exact": (0.0, mb),
        "warm": (0.0, warm),
        "warm_miss": (warm, mb),
        "column": column["column"],
        "column_miss": (0.0, root + 1.0),
    }[path]
    assert (0.0 in prob.scalars) == (path != "column")
    # Brent on log prob - log alpha sees the same floats as without the cache
    g = lambda u: math.log(max(prob.prob(u), np.finfo(float).tiny)) - math.log(alpha)
    assert pt.value == optimize.brentq(g, lo, hi, xtol=_U_TOLERANCE)


@given(
    delta=st.floats(0.2, 5.0),
    rho=st.floats(0.2, 5.0),
    alpha=st.floats(0.01, 0.1),
    s=st.floats(20.0, 400.0),  # delta t
    kind=st.sampled_from(["var", "nonruin"]),
    start=st.one_of(st.just(0.0), st.floats(0.05, 1.5)),  # the first rate over c*
    # rate steps over c*: one repeated (a uniform grid) or each drawn, up to
    # 8 c* apiece so that a grid can cross c* and reach the clamped region
    steps=st.lists(st.floats(0.005, 8.0), min_size=2, max_size=5),
    uniform=st.booleans(),
)
def test_exact_column_cells_are_their_roots(delta, rho, alpha, s, kind, start, steps, uniform):
    # a column cell starts from a bracket extrapolated along the column; it
    # must still be the cell's own root, the single-cell solve to within both
    # tolerances, and the column nonincreasing in c (Brent stops within
    # xtol + 4 eps |u| of a root)
    m, p, t = RiskModel(Exponential(delta), Exponential(rho)), ExpPair(delta, rho), s / delta
    c_star = delta / rho
    cs = list(c_star * (start + np.cumsum([0.0, *([steps[0]] * len(steps) if uniform else steps)])))
    column = capital_curve(m, alpha, t, cs, EXACT, kinds=(kind,)).column(kind)
    if kind == "var":
        prob = lambda u, c: 1.0 - aggregate_cdf_exp(p, t, u + c * t)
    else:
        prob = lambda u, c: ruin_finite_exp(p, u, c, t)
    solve = {"var": var_capital, "nonruin": nonruin_capital}[kind]
    for c, u in zip(cs, column):
        root = 0.0
        if prob(0.0, c) >= alpha:
            mb = _default_bracket(derived_constants(m), alpha, t, c)
            root = optimize.brentq(lambda x: prob(x, c) - alpha, 0.0, mb, xtol=1e-12)
        assert abs(u - root) <= _U_TOLERANCE + 1e-12 + 1e-15 * root
        assert abs(u - solve(m, alpha, t, c, EXACT).value) <= 2.0 * _U_TOLERANCE
    assert all(b <= a + 2.0 * _U_TOLERANCE for a, b in zip(column, column[1:]))


@given(
    delta=st.floats(0.2, 5.0),
    rho=st.floats(0.2, 5.0),
    alpha=st.floats(0.01, 0.1),
    s=st.floats(20.0, 400.0),  # delta t
    # rates over c*, increasing: a grid that may cross c* and reach the
    # clamped region
    steps=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5),
)
def test_exact_capitals_are_ordered(delta, rho, alpha, s, steps):
    # ruin by t includes a terminal shortfall, and ruin ever includes ruin
    # by t, so var <= nonruin at every rate and nonruin <= ultimate above
    # c*, each within the solves' tolerances
    m, t = RiskModel(Exponential(delta), Exponential(rho)), s / delta
    c_star = derived_constants(m).c_star  # the ultimate capital's own threshold
    cs = list(c_star * np.cumsum(steps))
    kinds = ("var", "nonruin", "ultimate")
    table = capital_curve(m, alpha, t, cs, EXACT, kinds=kinds)
    for c, var, nonruin, ultimate in table.rows:
        assert var <= nonruin + 2.0 * _U_TOLERANCE
        if c > c_star:
            assert nonruin <= ultimate + 2.0 * _U_TOLERANCE
    assert [w.partition("@")[0] for w in table.metadata["warnings"]] == [
        "ultimate" for c in cs if c <= c_star
    ]


@given(
    delta=st.floats(0.2, 5.0),
    rho=st.floats(0.2, 5.0),
    alpha=st.floats(0.01, 0.1),
    s=st.floats(5.0, 50.0),  # delta t
    steps=st.lists(st.floats(0.01, 2.0), max_size=4),  # rates over c*, from c = 0
    seed=st.integers(0, 2**32 - 1),
)
def test_monte_carlo_var_is_at_most_nonruin(delta, rho, alpha, s, steps, seed):
    # on one sample every path's supremum deficit is at least its terminal
    # deficit, so each order statistic, and each quantile, is too
    m, t = RiskModel(Exponential(delta), Exponential(rho)), s / delta
    cs = list(delta / rho * np.cumsum([0.0, *steps]))
    spec = SolveSpec(backend="monte_carlo", sim=SimConfig(n_paths=200, seed=seed, t=t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # few tail paths at small alpha
        table = capital_curve(m, alpha, t, cs, spec)
    for c, var, nonruin in table.rows:
        assert var <= nonruin


def test_exact_grid_columns_take_at_most_five_calls_per_cell(monkeypatch):
    # the benchmark's exact curves: unit var and nonruin, model I nonruin,
    # each on 51 rates from 0 to 2.5
    calls = []
    invert = capital._invert

    def counting(prob, *args):
        return invert(lambda u: calls.append(u) or prob(u), *args)

    monkeypatch.setattr(capital, "_invert", counting)
    cs = [0.05 * i for i in range(51)]
    capital_curve(UNIT, 0.05, 200.0, cs, EXACT, kinds=("var", "nonruin"))
    model_i = RiskModel(Exponential(0.8), Exponential(0.6))
    capital_curve(model_i, 0.05, 200.0, cs, EXACT, kinds=("nonruin",))
    assert len(calls) <= 5 * 3 * len(cs)


def test_ig_column_evaluates_no_u_twice(monkeypatch):
    # every u a cell's kernel is asked for, scan and Brent iterates alike
    asked: dict[int, list] = {}
    prepare = approx._ig_prob

    def recording(*args):
        prob, errors = prepare(*args)

        def rec(u, rows):
            for r, us in zip(rows.tolist(), np.reshape(u, (rows.size, -1)).tolist()):
                asked.setdefault(r, []).extend(us)
            return prob(u, rows)

        return rec, errors

    cs, t, alpha = c_grid_range(0.1, 2.5, 0.1), 200.0, 0.05
    monkeypatch.setattr(approx, "_ig_prob", recording)
    column = capital_curve(UNIT, alpha, t, cs, IG, kinds=("nonruin",)).column("nonruin")
    monkeypatch.undo()
    assert sorted(asked) == list(range(len(cs)))
    for i, c in enumerate(cs):
        us = asked[i]
        assert len(set(us)) == len(us)
        pt = nonruin_capital(UNIT, alpha, t, c, IG)
        assert pt.value == column[i]
        if pt.clamped:
            assert len(us) == len(_SCAN)
        else:
            # the root is one of the cell's own iterates
            assert pt.value in us
            assert pt.residual == abs(approx.ig_ruin_probability(UNIT, pt.value, c, t) - alpha)


def test_var_equals_nonruin_at_zero_premium():
    # with no premium income the deficit is nondecreasing, so its sup and
    # terminal value coincide and both capitals solve the same equation
    v = var_capital(UNIT, 0.05, 200.0, 0.0, EXACT)
    n = nonruin_capital(UNIT, 0.05, 200.0, 0.0, EXACT)
    assert v.value == pytest.approx(n.value, abs=1e-5)


def test_capitals_clamp_at_generous_premium():
    v = var_capital(UNIT, 0.05, 200.0, 2.5, EXACT)
    assert v.value == 0.0
    assert v.clamped


def test_var_clt_backend_matches_formula():
    from ruincapital.approx import var_clt

    pt = var_capital(UNIT, 0.05, 200.0, 0.7, SolveSpec(backend="clt"))
    assert pt.value == pytest.approx(var_clt(UNIT, 0.05, 200.0, 0.7), rel=1e-12)


def test_backend_incompatibilities_are_typed():
    with pytest.raises(BackendIncompatibleError):
        var_capital(UNIT, 0.05, 200.0, 1.0, IG)
    with pytest.raises(BackendIncompatibleError):
        nonruin_capital(UNIT, 0.05, 200.0, 1.0, SolveSpec(backend="clt"))
    heavy = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
    with pytest.raises(BackendIncompatibleError):
        nonruin_capital(heavy, 0.05, 200.0, 1.0, EXACT)


def test_ig_backend_brackets_exact_result():
    ex = nonruin_capital(UNIT, 0.05, 200.0, 1.0, EXACT).value
    ig = nonruin_capital(UNIT, 0.05, 200.0, 1.0, IG).value
    # the diffusion approximation carries an O(1) capital error at t=200
    assert abs(ig - ex) < 5.0


def test_ig_backend_heavy_tailed_model():
    heavy = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
    pt = nonruin_capital(heavy, 0.05, 1000.0, 1.0, IG)
    from ruincapital.approx import ig_ruin_probability

    assert ig_ruin_probability(heavy, pt.value, 1.0, 1000.0) == pytest.approx(
        0.05, abs=1e-5
    )


def test_ig_backend_redirects_at_zero_premium():
    pt = nonruin_capital(UNIT, 0.05, 200.0, 0.0, IG)
    ex = nonruin_capital(UNIT, 0.05, 200.0, 0.0, EXACT)
    assert pt.kind == "nonruin"
    assert pt.value == pytest.approx(ex.value, abs=1e-5)



def test_ig_solution_satisfies_defining_equation():
    from ruincapital.approx import ig_ruin_probability

    for c in (0.5, 1.0, 1.5):
        pt = nonruin_capital(UNIT, 0.05, 200.0, c, IG)
        assert not pt.clamped and pt.value > 0.0
        assert abs(ig_ruin_probability(UNIT, pt.value, c, 200.0) - 0.05) <= 2e-6
        assert pt.residual is not None and pt.residual <= 2e-6


@pytest.mark.filterwarnings("ignore:only .* expected tail paths:RuntimeWarning")
@pytest.mark.parametrize("kind", ["var", "nonruin"])
@pytest.mark.parametrize("backend", ["exact_exp", "inverse_gaussian", "monte_carlo", "clt"])
def test_curve_cells_equal_their_single_cell_calls(backend, kind):
    # a single cell is a column of one, so a curve cell is its single-cell
    # call: bit for bit, except under exact_exp, whose column cells start
    # from a bracket warm-started along the column and agree to within both
    # solves' tolerances.  An NA cell logs the error the single call raises.
    # The c = 0 inverse Gaussian cell is the redirected VaR solve.
    heavy = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
    spec = SolveSpec(backend=backend, sim=SimConfig(n_paths=400, seed=5, t=200.0))
    solve = {"var": var_capital, "nonruin": nonruin_capital}[kind]
    cs = c_grid_range(0.0, 2.5, 0.1)
    for m in (UNIT, heavy):
        table = capital_curve(m, 0.05, 200.0, cs, spec, kinds=(kind,))
        reasons = iter(table.metadata["warnings"])
        for c, value in zip(cs, table.column(kind)):
            try:
                single = solve(m, 0.05, 200.0, c, spec).value
            except RuinCapitalError as exc:
                assert value is None and next(reasons) == f"{kind}@c={c:g}: {exc}"
                continue
            assert value is not None
            if backend == "exact_exp":
                assert abs(value - single) <= 2.0 * _U_TOLERANCE
            else:
                assert value == single
        assert next(reasons, None) is None


def _ig_oracle(m, alpha, t, c):
    """An inverse Gaussian non-ruin cell, one rate at a time, by the public
    ig_ruin_probability: the 80-point scan (one array call, whose values are
    its scalar calls'), its bracket beyond the peak, then special.brentq on
    scalar calls, every probability evaluated once."""
    if c == 0.0:  # the redirect: at c = 0 ruin by t is a terminal shortfall
        return replace(var_capital(m, alpha, t, 0.0, SolveSpec(backend="clt")), kind="nonruin")
    mb = _default_bracket(derived_constants(m), alpha, t, c)
    us = mb * _SCAN
    vals = approx.ig_ruin_probability(m, us, c, t).tolist()
    us = us.tolist()
    known = dict(zip(us, vals))
    prob = lambda u: approx.ig_ruin_probability(m, u, c, t)
    f = lambda u: known[u] if u in known else known.setdefault(u, prob(u))
    peak = int(np.argmax(vals))
    if vals[peak] < alpha:
        return CapitalPoint(kind="nonruin", c=c, value=0.0, clamped=True)
    below = next((j for j in range(peak, len(us)) if vals[j] < alpha), None)
    if below is None:
        raise BracketError(f"no solution below max_bracket = {mb:.6g}")
    u = brentq(lambda x: f(x) - alpha, us[below - 1], us[below], xtol=_U_TOLERANCE)
    return CapitalPoint(kind="nonruin", c=c, value=u, residual=abs(f(u) - alpha))


IG_MODELS = pytest.mark.parametrize(
    "m",
    [
        RiskModel(Erlang(1.6, 2), Exponential(0.6)),
        RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
        RiskModel(Exponential(0.8), Kummer(5.0, 5.0)),
    ],
    ids=["iv", "heavy", "kummer"],
)


def _assert_ig_columns_equal_the_oracle(m, cs):
    """Each (alpha, t) column, and each cell solved alone, equals the oracle bit
    for bit, with the same NA reasons; returns each column's values and reasons."""
    logged = []
    for alpha in (0.01, 0.05):
        for t in (200.0, 1000.0):
            values, reasons = [], []
            for c in cs:
                try:
                    pt = _ig_oracle(m, alpha, t, c)
                except RuinCapitalError as exc:
                    values.append(None)
                    reasons.append(f"nonruin@c={c:g}: {exc}")
                    continue
                values.append(pt.value)
                assert nonruin_capital(m, alpha, t, c, IG) == pt
                if not pt.clamped and c > 0.0:
                    assert pt.residual == abs(approx.ig_ruin_probability(m, pt.value, c, t) - alpha)
            table = capital_curve(m, alpha, t, cs, IG, kinds=("nonruin",))
            assert table.column("nonruin") == values, (alpha, t)
            assert table.metadata["warnings"] == reasons, (alpha, t)
            logged.append((values, reasons))
    return logged


@IG_MODELS
def test_ig_cells_equal_inverting_the_public_probability(m):
    # a column prepares one kernel and checks each cell's IG shape and limit
    # once over its scan's range; inverting ig_ruin_probability, which
    # checks every call, gives the same capitals and the same NA reasons.
    # At c = 1e-200, c^2 D^2 is 0 and at c = 1e-160 u/(c^2 D^2) overflows.
    cs = [1e-200, 1e-160, *c_grid_range(0.1, 2.5, 0.1)]
    for values, reasons in _assert_ig_columns_equal_the_oracle(m, cs):
        assert values[:2] == [None, None] and "not finite" in reasons[1]


@IG_MODELS
def test_ig_columns_of_the_benchmark_equal_the_oracle(m):
    # the rates of `capital --kind nonruin --method ig --c-start 0
    # --c-stop 2.5 --c-step 0.05`, the c = 0 redirect cell included
    _assert_ig_columns_equal_the_oracle(m, c_grid_range(0.0, 2.5, 0.05))


def test_ig_column_mixes_failed_clamped_and_solved_cells():
    # one column whose cells fail their check, clamp at the scan peak or
    # solve: each outcome is the oracle's, whatever its neighbours
    columns = _assert_ig_columns_equal_the_oracle(UNIT, [1e-200, 0.5, 1.0, 5.0, 6.0])
    for values, reasons in columns:
        assert values[0] is None and values[1] > 0.0
        assert reasons == [
            "nonruin@c=1e-200: inverse Gaussian shape u/(c^2 D^2) is not finite at c = 1e-200"
        ]
    # at alpha = 0.05 and t = 200 the two largest rates clamp
    assert columns[2][0][-2:] == [0.0, 0.0]


def test_ig_cell_checks_its_whole_scan_range():
    # at t = 1e-30 the upper bracket is about 2e-14, and at c = 3e152 the
    # shape u/(c^2 D^2) is subnormal there but 0 at the first scan point,
    # so only the bottom of the cell's range fails the check
    m, c, t = RiskModel(Erlang(1.6, 2), Exponential(0.6)), 3e152, 1e-30
    mb = _default_bracket(derived_constants(m), 0.05, t, c)
    assert 0.0 <= approx.ig_ruin_probability(m, mb, c, t) <= 1.0
    with pytest.raises(IntegrationError, match="shape"):
        approx.ig_ruin_probability(m, mb * 1e-6, c, t)
    with pytest.raises(IntegrationError, match="shape"):
        nonruin_capital(m, 0.05, t, c, IG)


def test_ig_clamps_when_scan_peak_is_below_alpha():
    from ruincapital.approx import ig_ruin_probability

    # at c = 5 the unit model's IG ruin probability never reaches 0.05
    peak = ig_ruin_probability(UNIT, np.geomspace(1e-6, 1e3, 2000), 5.0, 200.0).max()
    assert 0.04 < peak < 0.05
    pt = nonruin_capital(UNIT, 0.05, 200.0, 5.0, IG)
    assert pt.value == 0.0 and pt.clamped


def test_monte_carlo_backend_close_to_exact():
    sim = SimConfig(n_paths=20_000, seed=99, t=200.0)
    spec = SolveSpec(backend="monte_carlo", sim=sim)
    mc = nonruin_capital(UNIT, 0.05, 200.0, 1.0, spec)
    ex = nonruin_capital(UNIT, 0.05, 200.0, 1.0, EXACT)
    assert mc.ci95 is not None
    lo, hi = mc.ci95
    assert lo - 0.5 <= ex.value <= hi + 0.5


def test_ultimate_capital_exponential_and_interval():
    pt = ultimate_capital(UNIT, 0.05, 2.0)
    # closed form: -ln(alpha c rho/delta) c/(c rho - delta)
    assert pt.value == pytest.approx(-np.log(0.1) * 2.0 / 1.0, rel=1e-12)
    m = RiskModel(Erlang(1.6, 2), Exponential(0.6))
    pt = ultimate_capital(m, 0.05, 2.0)
    assert pt.interval is not None
    lo, hi = pt.interval
    assert lo <= pt.value <= hi
    with pytest.raises(InfiniteCapitalError):
        ultimate_capital(UNIT, 0.05, 0.9)
    heavy = RiskModel(Exponential(0.8), Pareto(4.0, 0.35))
    with pytest.raises(NoAdjustmentCoefficientError):
        ultimate_capital(heavy, 0.05, 5.0)


def test_nonruin_dominates_var_and_decreases_in_c():
    grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    table = capital_curve(UNIT, 0.05, 200.0, grid, EXACT)
    iv = table.columns.index("var")
    inr = table.columns.index("nonruin")
    prev = None
    for row in table.rows:
        assert row[iv] <= row[inr] + 1e-9
        if prev is not None:
            assert row[inr] <= prev + 1e-9
        prev = row[inr]


def test_curve_records_failures_as_na():
    heavy = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
    table = capital_curve(heavy, 0.05, 200.0, [0.5, 1.0], EXACT)
    assert all(row[1] is None for row in table.rows)
    assert table.metadata.get("warnings")
    # Kummer claims cannot be sampled: every simulated cell is NA
    kummer = RiskModel(Exponential(0.8), Kummer(5.0, 5.0))
    mc = SolveSpec(backend="monte_carlo", sim=SimConfig(n_paths=1000, seed=1, t=200.0))
    table = capital_curve(kummer, 0.05, 200.0, [0.5, 1.5], mc)
    assert [row[1:] for row in table.rows] == [[None, None], [None, None]]
    assert len(table.metadata["warnings"]) == 4


def test_monte_carlo_curve_equals_per_cell_solves(monkeypatch):
    sim = SimConfig(n_paths=1000, seed=17, t=100.0)
    spec = SolveSpec(backend="monte_carlo", sim=sim)
    grid = [0.0, 0.6, 1.0, 1.4, 3.0]
    sweeps = []
    simulate_paths = montecarlo.simulate_paths

    def counted(*args):
        sweeps.append(args)
        return simulate_paths(*args)

    monkeypatch.setattr(montecarlo, "simulate_paths", counted)
    table = capital_curve(UNIT, 0.05, 100.0, grid, spec)
    monkeypatch.undo()
    assert len(sweeps) == 1  # the whole grid, both kinds
    for kind, solve in (("var", var_capital), ("nonruin", nonruin_capital)):
        points = [solve(UNIT, 0.05, 100.0, c, spec) for c in grid]
        assert table.column(kind) == [p.value for p in points]
        assert table.metadata["mc_stderr"][kind] == [
            (p.ci95[1] - p.ci95[0]) / (2.0 * 1.96) for p in points
        ]


def test_domain_checks():
    with pytest.raises(DomainError):
        SolveSpec(backend="quantum")
    with pytest.raises(DomainError):
        nonruin_capital(UNIT, 0.7, 200.0, 1.0, EXACT)
    with pytest.raises(DomainError):
        nonruin_capital(UNIT, 0.05, -1.0, 1.0, EXACT)
    with pytest.raises(DomainError):
        var_capital(UNIT, 0.05, 200.0, -0.5, EXACT)
    with pytest.raises(DomainError):
        nonruin_capital(UNIT, 0.05, 200.0, 1.0, SolveSpec(backend="monte_carlo"))
    with pytest.raises(DomainError):
        nonruin_capital(UNIT, 0.05, 200.0, math.nan, EXACT)
    with pytest.raises(DomainError):
        nonruin_capital(UNIT, 0.05, math.inf, 1.0, EXACT)
    with pytest.raises(DomainError):
        capital_curve(UNIT, 0.05, 200.0, [0.5, math.inf], EXACT)
    with pytest.raises(DomainError):
        capital_curve(UNIT, 0.05, math.inf, [0.5, 1.0], EXACT)
    with pytest.raises(DomainError):
        ultimate_capital(UNIT, 0.05, math.nan)
    # a curve checks t whatever the kinds, so no bad t reaches its metadata
    for t in ("x", math.nan):
        with pytest.raises(DomainError, match="^t must"):
            capital_curve(UNIT, 0.05, t, [2.0], EXACT, kinds=("ultimate",))
    # every setting is read: SolveSpec has no tolerance or bracket field,
    # and ultimate_capital, which no backend answers, takes no spec
    assert [f.name for f in fields(SolveSpec)] == ["backend", "sim"]
    assert list(inspect.signature(ultimate_capital).parameters) == ["m", "alpha", "c"]


def test_ruin_curve_mc_column_equals_per_rate_estimates(monkeypatch):
    sim = SimConfig(n_paths=1000, seed=11, t=300.0)
    grid = [0.0, 0.8, 1.0, 1.3]
    sweeps = []
    simulate_paths = montecarlo.simulate_paths

    def counted(*args):
        sweeps.append(args)
        return simulate_paths(*args)

    monkeypatch.setattr(montecarlo, "simulate_paths", counted)
    table = ruin_curve(UNIT, 20.0, 300.0, grid, ("exact", "mc"), sim)
    monkeypatch.undo()
    assert len(sweeps) == 1  # the whole grid
    assert table.columns == ["c", "exact", "mc", "mc_stderr"]
    ests = [montecarlo.simulate_paths(UNIT, [c], sim).ruin_prob(20.0)[0] for c in grid]
    assert table.column("mc") == [e.point for e in ests]
    assert table.column("mc_stderr") == [e.stderr for e in ests]
    pair = ExpPair(1.0, 1.0)
    assert table.column("exact") == [ruin_finite_exp(pair, 20.0, c, 300.0) for c in grid]
    assert table.metadata["warnings"] == []
    assert (table.metadata["seed"], table.metadata["n_paths"]) == (11, 1000)


@pytest.mark.parametrize(
    "preset, model, u, start, stop, methods",
    [
        ("fig4", UNIT, 50.0, 0.5, 1.5, ("exact", "cramer", "mc")),
        ("fig5", UNIT, 50.0, 0.5, 1.5, ("exact", "ig", "mc")),
        ("fig6", RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
         40.0, 0.6, 1.6, ("ig", "mc")),
    ],
)
def test_ruin_figures_equal_ruin_curve(preset, model, u, start, stop, methods):
    files, _ = presets.run_preset(preset, n_paths=300, seed=9)
    fig = files["curve"]
    sim = SimConfig(n_paths=300, seed=9, t=1000.0)
    curve = ruin_curve(model, u, 1000.0, c_grid_range(start, stop, 0.05), methods, sim)
    assert fig.columns == curve.columns
    for col in curve.columns:
        assert fig.column(col) == curve.column(col), col
    # the figure keeps the curve's metadata: u, t, seed, n_paths and NA reasons
    assert fig.metadata == curve.metadata
    keys = [w.partition(": ")[0] for w in fig.metadata["warnings"]]
    assert keys == (["cramer@c=1"] if preset == "fig4" else [])


def test_simulated_capital_figure_equals_simulate_curve():
    files, _ = presets.run_preset("fig7", n_paths=1000, seed=9)
    model_i = RiskModel(Exponential(0.8), Exponential(0.6))
    sim = SimConfig(n_paths=1000, seed=9, t=200.0)
    curve = montecarlo.simulate_curve(model_i, 0.05, c_grid_range(0.0, 2.5, 0.05), sim)
    assert files["curve"].column("sim_nonruin") == curve.column("nonruin_cap")
    # fig8 and fig9 read their simulated columns off the same kind of sweep
    fig9 = presets.run_preset("fig9", n_paths=1000, seed=9)[0]["curve"]
    for table, column, m in (
        (presets.run_preset("fig8", n_paths=1000, seed=9)[0]["curve"], "sim_nonruin",
         RiskModel(Erlang(1.6, 2), Exponential(0.6))),
        (fig9, "dots_sim", RiskModel(Exponential(0.8), Pareto(10.0, 0.05))),
        (fig9, "crosses_sim", RiskModel(Exponential(0.8), Pareto(3.0, 0.3))),
    ):
        expected = montecarlo.simulate_curve(m, 0.05, table.column("c"), sim)
        assert table.column(column) == expected.column("nonruin_cap")
    # above c* = 4/3 the upper band is the ultimate capital, which bounds
    # the non-ruin capital from above
    table = files["curve"]
    for c, upper in zip(table.column("c"), table.column("upper_bound")):
        if c > 4.0 / 3.0:
            assert upper == ultimate_capital(model_i, 0.05, c).value


def test_ruin_curve_records_failures_as_na():
    # Kummer claims: no exponential pair and no sampler, one reason per cell
    kummer = RiskModel(Exponential(0.8), Kummer(5.0, 5.0))
    sim = SimConfig(n_paths=500, seed=1, t=200.0)
    methods = ("exact", "cramer", "ig", "mc")
    table = ruin_curve(kummer, 40.0, 200.0, [0.5, 1.5], methods, sim)
    assert [row[1:3] for row in table.rows] == [[None, None], [None, None]]
    assert all(row[3] is not None for row in table.rows)
    assert [row[4:] for row in table.rows] == [[None, None], [None, None]]
    keys = [w.partition(": ")[0] for w in table.metadata["warnings"]]
    assert keys == [f"{mth}@c={c}" for c in (0.5, 1.5) for mth in ("exact", "cramer", "mc")]
    # the normal approximation is undefined at c* = 1, u = 0 leaves the
    # inverse Gaussian form undefined: per-cell NA, not an error
    table = ruin_curve(UNIT, 0.0, 200.0, [0.5, 1.0], ("exact", "cramer", "ig"))
    assert 0.99 < table.column("exact")[0] <= 1.0
    keys = [w.partition(": ")[0] for w in table.metadata["warnings"]]
    assert keys == ["cramer@c=0.5", "ig@c=0.5", "cramer@c=1", "ig@c=1"]
    # at c = 1e-200, u/(c^2 D^2) divides by zero: that cell alone is NA
    table = ruin_curve(UNIT, 10.0, 200.0, [1e-200, 0.5], ("ig",))
    assert table.column("ig") == [None, approx.ig_ruin_probability(UNIT, 10.0, 0.5, 200.0)]
    assert table.metadata["warnings"] == [
        "ig@c=1e-200: inverse Gaussian shape u/(c^2 D^2) is not finite at c = 1e-200"
    ]
    # at u = 1e-300, t = 1e300 the limit ct/u overflows: NA, not a NaN cell
    table = ruin_curve(UNIT, 1e-300, 1e300, [0.5], ("ig",))
    assert table.column("ig") == [None]
    assert table.metadata["warnings"] == [
        "ig@c=0.5: inverse Gaussian limit ct/u is not finite at c = 0.5"
    ]
    # and a typed error, not a BracketError from NaNs, in the capital solve
    with pytest.raises(IntegrationError):
        nonruin_capital(UNIT, 0.05, 200.0, 1e-200, IG)


def test_ruin_curve_domain_checks():
    grid = [0.5, 1.0]
    sim = SimConfig(n_paths=100, seed=1, t=200.0)
    for u in (math.nan, -5.0, math.inf):
        with pytest.raises(DomainError):
            ruin_curve(UNIT, u, 200.0, grid, ("exact",))
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ruin_curve(UNIT, 10.0, t, grid, ("exact",))
    with pytest.raises(DomainError):
        ruin_curve(UNIT, 10.0, 200.0, [-0.1, 0.5], ("exact",))
    with pytest.raises(DomainError):
        ruin_curve(UNIT, 10.0, 200.0, grid, ("exact", "clt"), sim)
    with pytest.raises(DomainError):
        ruin_curve(UNIT, 10.0, 200.0, grid, ("mc",))
