"""The one argument rule of the public entry points.

A numeric argument is a real number (NumPy scalars included) or, where an
array is taken, an integer or float array of them, finite and inside its
range.  Anything else, a numeric string included, is a DomainError, never
a bare TypeError and never converted; NumPy scalars give results equal to
those of Python floats.
"""

import ast
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from ruincapital import approx, bounds, capital, dist, exact, model, montecarlo
from ruincapital.capital import SolveSpec
from ruincapital.dist import Erlang, Exponential, Kummer, MixtureExp2, Pareto
from ruincapital.errors import DomainError
from ruincapital.exact import ExpPair
from ruincapital.model import RiskModel
from ruincapital.montecarlo import PathSample, SimConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "ruincapital"

UNIT = RiskModel(Exponential(1.0), Exponential(1.0))
PAIR = ExpPair(1.0, 1.0)
EXACT = SolveSpec(backend="exact_exp")
SAMPLE = montecarlo.simulate_paths(UNIT, [0.5, 1.0], SimConfig(n_paths=200, seed=1, t=10.0))


@dataclass(frozen=True)
class Case:
    """An entry point, valid values of its numeric arguments (integral where
    the range allows, so that np.int64 applies), an out-of-range value per
    argument (None where only finiteness is asked) and the array arguments."""

    call: object
    valid: dict
    out_of_range: dict
    arrays: tuple = field(default=())


CASES = {
    # exact
    "ruin_finite_exp": Case(lambda u, c, t: exact.ruin_finite_exp(PAIR, u, c, t),
                            dict(u=10, c=2, t=50), dict(u=-1, c=-1, t=0)),
    "ruin_ultimate_exp": Case(lambda u, c: exact.ruin_ultimate_exp(PAIR, u, c),
                              dict(u=10, c=2), dict(u=-1, c=-1)),
    "aggregate_cdf_exp": Case(lambda t, x: exact.aggregate_cdf_exp(PAIR, t, x),
                              dict(t=50, x=40), dict(t=0, x=None)),
    "aggregate_pdf_exp": Case(lambda t, x: exact.aggregate_pdf_exp(PAIR, t, x),
                              dict(t=[50, 60], x=[40, 70]), dict(t=0, x=0), ("t", "x")),
    "ExpPair": Case(lambda delta, rho: exact.ruin_finite_exp(ExpPair(delta, rho), 10.0, 2.0, 50.0),
                    dict(delta=1, rho=2), dict(delta=0, rho=0)),
    # approx
    "var_clt": Case(lambda alpha, t, c: approx.var_clt(UNIT, alpha, t, c),
                    dict(alpha=0.05, t=200, c=1), dict(alpha=0.7, t=0, c=-1)),
    "ig_ruin_probability": Case(lambda u, c, t: approx.ig_ruin_probability(UNIT, u, c, t),
                                dict(u=40, c=1, t=200), dict(u=0, c=0, t=-1), ("u",)),
    "cramer_ruin_exp": Case(lambda u, c, t: approx.cramer_ruin_exp(PAIR, u, c, t),
                            dict(u=40, c=2, t=200), dict(u=0, c=0, t=0)),
    "cramer_constants_exp": Case(lambda c: approx.cramer_constants_exp(PAIR, c),
                                 dict(c=2), dict(c=0)),
    "capital_asymptotic_bounds": Case(
        lambda alpha, t, c: approx.capital_asymptotic_bounds(UNIT, alpha, t, c),
        dict(alpha=0.05, t=200, c=1), dict(alpha=0.7, t=0, c=-1)),
    # bounds
    "adjustment_coefficient": Case(lambda c: bounds.adjustment_coefficient(UNIT, c),
                                   dict(c=2), dict(c=0)),
    "lundberg_ratio_bounds": Case(lambda c: bounds.lundberg_ratio_bounds(UNIT, c),
                                  dict(c=2), dict(c=0)),
    "capital_upper_bound_lundberg": Case(
        lambda alpha, c: bounds.capital_upper_bound_lundberg(UNIT, alpha, c),
        dict(alpha=0.05, c=2), dict(alpha=0.7, c=0)),
    "ultimate_capital_interval": Case(
        lambda alpha, c: bounds.ultimate_capital_interval(UNIT, alpha, c),
        dict(alpha=0.05, c=2), dict(alpha=0.7, c=0)),
    # capital
    "var_capital": Case(lambda alpha, t, c: capital.var_capital(UNIT, alpha, t, c, EXACT),
                        dict(alpha=0.05, t=200, c=1), dict(alpha=0.7, t=0, c=-1)),
    "nonruin_capital": Case(lambda alpha, t, c: capital.nonruin_capital(UNIT, alpha, t, c, EXACT),
                            dict(alpha=0.05, t=200, c=1), dict(alpha=0.7, t=0, c=-1)),
    "ultimate_capital": Case(lambda alpha, c: capital.ultimate_capital(UNIT, alpha, c),
                             dict(alpha=0.05, c=2), dict(alpha=0.7, c=None)),
    "capital_curve": Case(
        lambda alpha, t, c_grid: capital.capital_curve(UNIT, alpha, t, c_grid, EXACT),
        dict(alpha=0.05, t=200, c_grid=[1, 2]), dict(alpha=0.7, t=0, c_grid=-1), ("c_grid",)),
    "ruin_curve": Case(
        lambda u, t, c_grid: capital.ruin_curve(UNIT, u, t, c_grid, ("exact",)),
        dict(u=20, t=200, c_grid=[1, 2]), dict(u=-1, t=0, c_grid=-1), ("c_grid",)),
    # model
    "check_alpha": Case(model.check_alpha, dict(alpha=0.25), dict(alpha=0.7)),
    "check_c_grid": Case(model.check_c_grid, dict(c_grid=[1, 2]), dict(c_grid=-1), ("c_grid",)),
    "c_grid_range": Case(model.c_grid_range, dict(start=0, stop=1, step=0.5),
                         dict(start=None, stop=-1, step=0)),
    # montecarlo
    "SimConfig": Case(lambda t: montecarlo.simulate_paths(UNIT, [1.0], SimConfig(200, 1, t)),
                      dict(t=10), dict(t=0)),
    "simulate_paths": Case(
        lambda c_grid: montecarlo.simulate_paths(UNIT, c_grid, SimConfig(200, 1, 10.0)),
        dict(c_grid=[0, 1]), dict(c_grid=-1), ("c_grid",)),
    "simulate_curve": Case(
        lambda alpha, c_grid: montecarlo.simulate_curve(
            UNIT, alpha, c_grid, SimConfig(200, 1, 10.0)),
        dict(alpha=0.25, c_grid=[0, 1]), dict(alpha=0.7, c_grid=-1), ("c_grid",)),
    "PathSample.ruin_prob": Case(SAMPLE.ruin_prob, dict(u=2), dict(u=-1)),
    "PathSample.quantile": Case(lambda alpha: SAMPLE.quantile("var", alpha),
                                dict(alpha=0.25), dict(alpha=0.7)),
    # dist
    "mgf": Case(lambda r: dist.mgf(Exponential(2.0), r), dict(r=1), dict(r=None)),
    "Exponential": Case(lambda **kw: Exponential(**kw).moments(), dict(rate=2), dict(rate=0)),
    "Erlang": Case(lambda **kw: Erlang(**kw).moments(),
                   dict(rate=2, shape=3), dict(rate=0, shape=0)),
    "MixtureExp2": Case(lambda **kw: MixtureExp2(**kw).moments(),
                        dict(rate1=1, rate2=2, weight=0.5), dict(rate1=0, rate2=0, weight=1)),
    "Pareto": Case(lambda **kw: Pareto(**kw).moments(),
                   dict(shape=4, scale=1), dict(shape=0, scale=0)),
    "Kummer": Case(lambda **kw: Kummer(**kw).moments(), dict(k=3, l=8), dict(k=0, l=0)),
}
ARGS = [(name, arg) for name, case in CASES.items() for arg in case.valid]

NONFINITE = [math.nan, math.inf, -math.inf]
SCALAR_BAD = [None, "5", [1.0], *NONFINITE]
# an array argument may also take a scalar, so it gets both kinds
ARRAY_BAD = [None, "5", *NONFINITE, ["5"], [None], [[1.0], [1.0, 2.0]], *([x] for x in NONFINITE)]


def _floats(case: Case) -> dict:
    return {k: np.asarray(v, dtype=float).tolist() for k, v in case.valid.items()}


def _same(a, b) -> bool:
    if isinstance(a, PathSample):
        return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("c", "sup", "total"))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name, arg", ARGS, ids=[f"{n}-{a}" for n, a in ARGS])
def test_bad_argument_is_domain_error(name, arg):
    case = CASES[name]
    oor = case.out_of_range[arg]
    bad = list(ARRAY_BAD if arg in case.arrays else SCALAR_BAD)
    if oor is not None:
        bad += [oor, [oor]] if arg in case.arrays else [oor]
    for value in bad:
        with pytest.raises(DomainError, match=rf"\b{arg} must"):
            case.call(**{**_floats(case), arg: value})


@pytest.mark.parametrize("name, arg", ARGS, ids=[f"{n}-{a}" for n, a in ARGS])
def test_numpy_arguments_give_equal_results(name, arg):
    case = CASES[name]
    valid = _floats(case)
    expected = case.call(**valid)
    v = np.asarray(case.valid[arg])
    alternates = [v.astype(np.float64)]
    if np.array_equal(v, np.round(v)):
        alternates.append(v.astype(np.int64))
    for alt in alternates:
        value = alt[()] if alt.ndim == 0 else alt  # a NumPy scalar, not a 0-d array
        assert _same(case.call(**{**valid, arg: value}), expected), (arg, value)


def test_an_array_error_names_the_entry_not_the_array():
    # a message as long as the array helps nobody, and past 1,000 entries
    # NumPy's repr elides the middle, where the bad entry may sit
    x = np.linspace(1.0, 2.0, 5000)
    x[3217] = math.nan
    with pytest.raises(DomainError) as info:
        exact.aggregate_pdf_exp(PAIR, 50.0, x)
    message = str(info.value)
    assert len(message) < 200 and "x[3217] = nan" in message and "(5000,)" in message, message


def test_an_array_of_non_numbers_is_named_by_its_dtype_and_shape():
    # the repr of 5,000 strings made a message of 25,054 characters
    with pytest.raises(DomainError) as info:
        exact.aggregate_pdf_exp(PAIR, 50.0, ["5"] * 5000)
    message = str(info.value)
    assert len(message) < 200 and "<U1" in message and "(5000,)" in message, message


def test_a_ragged_nesting_is_named_by_its_type_and_length():
    # the repr of 5,000 ragged rows made a message of 47,554 characters
    with pytest.raises(DomainError) as info:
        exact.aggregate_pdf_exp(PAIR, 50.0, [[1.0], [1.0, 2.0]] * 2500)
    message = str(info.value)
    assert len(message) < 200 and "ragged list of length 5000" in message, message


def test_no_hand_written_range_checks():
    """Every range check goes through errors.check_real or check_real_array."""
    hits = [
        f"{path.name}:{i}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"<=?\s*(math|np)\.inf\b", line)
    ]
    assert hits == []


def test_every_exception_class_lives_in_errors():
    """One error hierarchy: no module but errors.py defines an exception."""
    hits = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(re.search(r"(Error|Exception)$", ast.unparse(base)) for base in node.bases)
    ]
    assert hits == []
