import inspect
import math

import pytest

from ruincapital import bounds
from ruincapital.bounds import (
    adjustment_coefficient,
    capital_upper_bound_lundberg,
    lundberg_ratio_bounds,
    ultimate_capital_exp,
    ultimate_capital_interval,
)
from ruincapital.dist import Erlang, Exponential, MixtureExp2, Pareto, mgf
from ruincapital.errors import (
    DomainError,
    InfiniteCapitalError,
    NoAdjustmentCoefficientError,
)
from ruincapital.exact import ExpPair, ruin_ultimate_exp
from ruincapital.model import RiskModel


def test_kappa_closed_form_exponential_pair():
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    ac = adjustment_coefficient(m, 1.25)
    assert ac.method == "closed_form"
    assert ac.kappa == pytest.approx(1.0 - 1.0 / 1.25, rel=1e-15)


def test_kappa_root_find_matches_mgf_equation():
    # Erlang arrivals force the numeric branch
    m = RiskModel(Erlang(1.6, 2), Exponential(0.6))
    c = 2.0
    ac = adjustment_coefficient(m, c)
    assert ac.method == "root_find"
    prod = mgf(m.y_law, ac.kappa) * mgf(m.t_law, -ac.kappa * c)
    assert prod == pytest.approx(1.0, abs=1e-12)


def test_kappa_erlang_polynomial_root():
    # for Y ~ Exp(rho), T ~ Erlang(mu, 2) Lundberg's equation reduces to
    # rho (mu + kappa c)^2 = (rho - kappa) mu^2 ... solved independently
    rho, mu, c = 0.6, 1.6, 2.0
    ac = adjustment_coefficient(RiskModel(Erlang(mu, 2), Exponential(rho)), c)
    k = ac.kappa
    lhs = (rho / (rho - k)) * (mu / (mu + k * c)) ** 2
    assert lhs == pytest.approx(1.0, abs=1e-12)


def test_kappa_requires_light_tail_and_profit():
    heavy = RiskModel(Exponential(0.8), Pareto(4.0, 0.35))
    with pytest.raises(NoAdjustmentCoefficientError):
        adjustment_coefficient(heavy, 5.0)
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    with pytest.raises(NoAdjustmentCoefficientError):
        adjustment_coefficient(m, 1.0)
    with pytest.raises(NoAdjustmentCoefficientError):
        adjustment_coefficient(m, 0.5)
    # a NaN premium rate is a typed error, not a NaN capital
    with pytest.raises(DomainError):
        ultimate_capital_exp(ExpPair(1.0, 1.0), 0.05, math.nan)


def test_exp_upper_bound_inverts_ultimate_ruin():
    p = ExpPair(1.0, 1.0)
    alpha, c = 0.05, 1.25
    u = ultimate_capital_exp(p, alpha, c)
    assert ruin_ultimate_exp(p, u, c) == pytest.approx(alpha, rel=1e-12)
    # generous alpha clamps at zero: alpha c rho / delta = 1.125 >= 1
    assert ultimate_capital_exp(p, 0.45, 2.5) == 0.0


def test_markov_bound_dominates_exact_capital():
    p = ExpPair(1.0, 1.0)
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    for c in (1.2, 1.5, 2.0):
        markov = capital_upper_bound_lundberg(m, 0.05, c)
        assert markov >= ultimate_capital_exp(p, 0.05, c)


def test_ratio_bounds_exponential_constant():
    # for exponential claims the tilted tail ratio is the constant
    # 1 - kappa/rho, independent of x
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    c = 2.0
    kappa = adjustment_coefficient(m, c).kappa
    rb = lundberg_ratio_bounds(m, c)
    # the scan caps at the 1e-10 tail quantile, where 1 - F retains only
    # ~6 significant digits; the constant is recovered to that accuracy
    assert rb.b_minus == pytest.approx(1.0 - kappa, rel=1e-6)
    assert rb.b_plus == pytest.approx(1.0 - kappa, rel=1e-6)


def test_ratio_bounds_bracket_true_prefactor():
    # the exact ultimate ruin prefactor is delta/(c rho); the two-sided
    # bounds must contain it
    m = RiskModel(Exponential(0.8), Exponential(0.6))
    c = 2.0
    rb = lundberg_ratio_bounds(m, c)
    prefactor = 0.8 / (c * 0.6)
    assert rb.b_minus <= prefactor + 1e-9
    assert prefactor <= rb.b_plus + 1e-9


def test_ratio_bounds_ordering_and_clamp(monkeypatch):
    m = RiskModel(Erlang(1.6, 2), Exponential(0.6))
    c = 2.0
    y = lundberg_ratio_bounds(m, c)
    assert 0.0 < y.b_minus <= y.b_plus <= 1.0 + 1e-12
    # one tail-ratio rule: the signatures take no variant
    assert list(inspect.signature(lundberg_ratio_bounds).parameters) == ["m", "c"]
    assert list(inspect.signature(ultimate_capital_interval).parameters) == ["m", "alpha", "c"]
    # the ratio is at most 1 in exact arithmetic; a numerical excess is
    # clamped for every model, and b_minus follows b_plus down
    monkeypatch.setattr(bounds, "_tilted_tail_ratio", lambda m, kappa, x: 1.5 + x)
    for model, rate in ((m, c), (RiskModel(Exponential(0.8), MixtureExp2(1.0, 2.0, 0.5)), 2.5),
                        (RiskModel(Exponential(1.0), Exponential(1.0)), 1.5)):
        assert lundberg_ratio_bounds(model, rate) == bounds.RatioBounds(1.0, 1.0)


def test_ultimate_capital_interval_contains_truth_exponential():
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    p = ExpPair(1.0, 1.0)
    alpha, c = 0.05, 1.5
    lo, hi = ultimate_capital_interval(m, alpha, c)
    truth = ultimate_capital_exp(p, alpha, c)
    assert lo <= truth + 1e-9
    assert truth <= hi + 1e-9
    # the interval inverts the bound pair at the same kappa
    kappa = adjustment_coefficient(m, c).kappa
    rb = lundberg_ratio_bounds(m, c)
    assert hi == pytest.approx(math.log(rb.b_plus / alpha) / kappa, rel=1e-12)


def test_ultimate_capital_interval_mixture_model():
    m = RiskModel(Exponential(0.8), MixtureExp2(1.0, 2.0, 0.5))
    lo, hi = ultimate_capital_interval(m, 0.05, 2.5)
    assert 0.0 < lo < hi


def test_every_capital_takes_alpha_below_one_half():
    # one alpha rule, model.check_alpha, for every capital in this module
    p = ExpPair(1.0, 1.0)
    unit = RiskModel(Exponential(1.0), Exponential(1.0))
    mixture = RiskModel(Exponential(0.8), MixtureExp2(1.0, 2.0, 0.5))
    for alpha in (0.5, 0.7, 1.0, 0.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            ultimate_capital_exp(p, alpha, 2.0)
        with pytest.raises(DomainError):
            ultimate_capital_interval(mixture, alpha, 2.5)
        with pytest.raises(DomainError):
            capital_upper_bound_lundberg(unit, alpha, 2.0)
    assert capital_upper_bound_lundberg(unit, 0.49, 2.0) == pytest.approx(-math.log(0.49) / 0.5)


def test_infinite_capital_below_equilibrium():
    with pytest.raises(InfiniteCapitalError):
        ultimate_capital_exp(ExpPair(1.0, 1.0), 0.05, 1.0)
    with pytest.raises(InfiniteCapitalError):
        ultimate_capital_exp(ExpPair(1.0, 1.0), 0.05, 0.9)
