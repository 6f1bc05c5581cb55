import inspect
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import gammaincc

from ruincapital import bounds
from ruincapital.bounds import (
    adjustment_coefficient,
    capital_upper_bound_lundberg,
    lundberg_ratio_bounds,
    ultimate_capital_interval,
)
from ruincapital.capital import ultimate_capital
from ruincapital.dist import Distribution, Erlang, Exponential, MixtureExp2, Pareto, mgf
from ruincapital.errors import (
    BracketError,
    DomainError,
    InfiniteCapitalError,
    NoAdjustmentCoefficientError,
)
from ruincapital.exact import ExpPair, ruin_ultimate_exp
from ruincapital.model import RiskModel
from ultimate_oracle import ultimate_capital_exp


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


def test_lundberg_solve_evaluates_no_r_twice(monkeypatch):
    # the sign checks' bracket ends and the residual at kappa, brentq's last
    # iterate, are looked up, not evaluated again: 14 products, not 17
    m, c = RiskModel(Erlang(1.6, 2), Exponential(0.6)), 2.0
    seen, product = [], bounds._mgf_product
    monkeypatch.setattr(bounds, "_mgf_product", lambda m, c, r: seen.append(r) or product(m, c, r))
    kappa = adjustment_coefficient(m, c).kappa
    assert len(seen) == len(set(seen)) == 14
    # the unmemoised solve over the same bracket: the same kappa, bit for bit
    plain = brentq(lambda r: product(m, c, r) - 1.0, 1e-12, 0.999999 * 0.6, xtol=1e-15, rtol=8.9e-16)
    assert kappa == plain


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
        ultimate_capital(m, 0.05, math.nan)


def test_exp_upper_bound_inverts_ultimate_ruin():
    p = ExpPair(1.0, 1.0)
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    alpha, c = 0.05, 1.25
    u = ultimate_capital(m, alpha, c).value
    assert ruin_ultimate_exp(p, u, c) == pytest.approx(alpha, rel=1e-12)
    # generous alpha clamps at zero: alpha c rho / delta = 1.125 >= 1
    pt = ultimate_capital(m, 0.45, 2.5)
    assert (pt.value, pt.clamped) == (0.0, True)


def test_markov_bound_dominates_exact_capital():
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    for c in (1.2, 1.5, 2.0):
        markov = capital_upper_bound_lundberg(m, 0.05, c)
        assert markov >= ultimate_capital(m, 0.05, c).value


def test_ratio_bounds_exponential_constant():
    # for exponential claims the tilted tail ratio is the constant
    # 1 - kappa/rho, independent of x
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    c = 2.0
    kappa = adjustment_coefficient(m, c).kappa
    rb = lundberg_ratio_bounds(m, c)
    assert rb.b_minus == pytest.approx(1.0 - kappa, rel=1e-12)
    assert rb.b_plus == pytest.approx(1.0 - kappa, rel=1e-12)


def test_ratio_bounds_bracket_true_prefactor():
    # the exact ultimate ruin prefactor is delta/(c rho); the two-sided
    # bounds must contain it
    m = RiskModel(Exponential(0.8), Exponential(0.6))
    c = 2.0
    rb = lundberg_ratio_bounds(m, c)
    prefactor = 0.8 / (c * 0.6)
    assert rb.b_minus <= prefactor + 1e-9
    assert prefactor <= rb.b_plus + 1e-9


def test_ratio_bounds_ordering_and_clamp():
    m = RiskModel(Erlang(1.6, 2), Exponential(0.6))
    c = 2.0
    y = lundberg_ratio_bounds(m, c)
    assert 0.0 < y.b_minus <= y.b_plus <= 1.0 + 1e-12
    # one tail-ratio rule: the signatures take no variant
    assert list(inspect.signature(lundberg_ratio_bounds).parameters) == ["m", "c"]
    assert list(inspect.signature(ultimate_capital_interval).parameters) == ["m", "alpha", "c"]


def _erlang_tail_ratio(y, kappa, x):
    # e^{kappa x} P{Y > x} / E[e^{kappa Y}; Y > x]; the tilted law is
    # Erlang(k, r - kappa) scaled by E e^{kappa Y} = (r/(r - kappa))^k
    k, r = y.shape, y.rate
    return (np.exp(kappa * x) * gammaincc(k, r * x)
            / ((r / (r - kappa)) ** k * gammaincc(k, (r - kappa) * x)))


def _erlang_ratio(y, kappa, x):
    # the same ratio with gammaincc(k, z) = e^{-z} P(z), P(z) = sum_{j<k}
    # z^j/j!: the exponentials cancel, so it holds where gammaincc underflows
    k, r = y.shape, y.rate
    p = lambda z: sum(z**j / math.factorial(j) for j in range(k))
    return ((r - kappa) / r) ** k * p(r * x) / p((r - kappa) * x)


def _mixture_ratio(y, kappa, x):
    # the same ratio for two exponentials; e^{kappa x} cancels, and both
    # sums are scaled by e^{r_min x} so neither underflows
    w, r1, r2 = y.weight, y.rate1, y.rate2
    rmin = min(r1, r2)
    e1, e2 = np.exp(-(r1 - rmin) * x), np.exp(-(r2 - rmin) * x)
    return (w * e1 + (1 - w) * e2) / (w * r1 / (r1 - kappa) * e1 + (1 - w) * r2 / (r2 - kappa) * e2)


def _check_ratio_ends(y, ratio, c, direction):
    """The ratio stays in [b_minus, b_plus], moves one way and reaches both ends."""
    m = RiskModel(Exponential(1.0), y)
    kappa = adjustment_coefficient(m, c).kappa
    rb = lundberg_ratio_bounds(m, c)
    vals = ratio(y, kappa, np.concatenate([[0.0], np.geomspace(1e-4, 1e8, 3000)]) / y.mgf_abscissa)
    tol = 1e-12 * rb.b_plus
    assert rb.b_minus - tol <= vals.min() and vals.max() <= rb.b_plus + tol
    assert np.all(direction * np.diff(vals) >= -tol)
    # 1/E e^{kappa Y} at x = 0, 1 - kappa/a at x = 1e8/a
    lo, hi = (vals[0], vals[-1]) if direction > 0 else (vals[-1], vals[0])
    assert lo == pytest.approx(rb.b_minus, rel=1e-6)
    assert hi == pytest.approx(rb.b_plus, rel=1e-6)
    return kappa


@pytest.mark.parametrize("k", range(1, 21))
def test_erlang_ratio_increases_between_its_ends(k):
    y = Erlang(float(k), k)
    kappa = _check_ratio_ends(y, _erlang_ratio, 1.5, +1)
    xs = np.linspace(0.0, 300.0 / y.rate, 200)
    np.testing.assert_allclose(_erlang_ratio(y, kappa, xs), _erlang_tail_ratio(y, kappa, xs),
                               rtol=1e-12)


def test_mixture_ratio_decreases_between_its_ends():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        r1, r2 = rng.uniform(0.2, 5.0, 2)
        y = MixtureExp2(r1, r2, rng.uniform(0.05, 0.95))
        _check_ratio_ends(y, _mixture_ratio, 1.5 * y.moments().mean, -1)


def test_ultimate_capital_interval_contains_truth_exponential():
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    alpha, c = 0.05, 1.5
    lo, hi = ultimate_capital_interval(m, alpha, c)
    truth = ultimate_capital_exp(1.0, 1.0, alpha, c)
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
    unit = RiskModel(Exponential(1.0), Exponential(1.0))
    mixture = RiskModel(Exponential(0.8), MixtureExp2(1.0, 2.0, 0.5))
    for alpha in (0.5, 0.7, 1.0, 0.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            ultimate_capital(unit, alpha, 2.0)
        with pytest.raises(DomainError):
            ultimate_capital_interval(mixture, alpha, 2.5)
        with pytest.raises(DomainError):
            capital_upper_bound_lundberg(unit, alpha, 2.0)
    assert capital_upper_bound_lundberg(unit, 0.49, 2.0) == pytest.approx(-math.log(0.49) / 0.5)


def test_infinite_capital_below_equilibrium():
    unit = RiskModel(Exponential(1.0), Exponential(1.0))
    with pytest.raises(InfiniteCapitalError):
        ultimate_capital(unit, 0.05, 1.0)
    with pytest.raises(InfiniteCapitalError):
        ultimate_capital(unit, 0.05, 0.9)


def _phase_type_capital(y, c, alpha):
    """Exact ultimate capital for Poisson(1) arrivals and phase-type claims.

    psi(u) = a_+ exp((T + t a_+) u) 1 with a_+ = a (-T)^{-1} / c and exit
    rates t = -T 1 (Asmussen & Albrecher, Ruin Probabilities, 2010, IX.3).
    """
    if isinstance(y, Erlang):
        k, r = y.shape, y.rate
        a, tm = np.eye(1, k)[0], r * (np.eye(k, k, 1) - np.eye(k))
    else:
        a, tm = np.array([y.weight, 1.0 - y.weight]), -np.diag([y.rate1, y.rate2])
    a_plus = a @ np.linalg.inv(-tm) / c
    q = tm + np.outer(-tm.sum(axis=1), a_plus)
    psi = lambda u: float(a_plus @ expm(q * u) @ np.ones(len(a)))
    return brentq(lambda u: psi(u) - alpha, 0.0, 1e3, xtol=1e-12)


@pytest.mark.parametrize("y, c", [(Erlang(2.0, 2), 1.5), (Erlang(4.0, 4), 1.5),
                                  (Erlang(10.0, 1), 0.2), (MixtureExp2(1.0, 2.0, 0.5), 1.2),
                                  (MixtureExp2(0.5, 4.0, 0.3), 2.0)])
def test_interval_contains_the_phase_type_capital(y, c):
    lo, hi = ultimate_capital_interval(RiskModel(Exponential(1.0), y), 0.05, c)
    truth = _phase_type_capital(y, c, 0.05)
    assert lo * (1 - 1e-12) <= truth <= hi * (1 + 1e-12)


def test_closed_form_ends_cover_every_light_tailed_family():
    # the ends are the inf and sup only where the ratio is known to be
    # monotone; a new family with a positive abscissa needs that proof first
    light = {cls for cls in Distribution.__subclasses__() if cls.mgf_abscissa != 0.0}
    assert light == {Exponential, Erlang, MixtureExp2}


def test_exponential_claims_give_the_exact_capital_under_renewal_arrivals():
    for t_law, c, alpha in ((Erlang(1.6, 2), 2.0, 0.05), (Erlang(3.0, 3), 2.5, 0.01),
                            (MixtureExp2(1.0, 3.0, 0.4), 4.0, 0.05)):
        m = RiskModel(t_law, Exponential(0.6))
        kappa = adjustment_coefficient(m, c).kappa
        lo, hi = ultimate_capital_interval(m, alpha, c)
        exact = math.log((1.0 - kappa / 0.6) / alpha) / kappa
        assert lo == pytest.approx(exact, rel=1e-12)
        assert hi == pytest.approx(exact, rel=1e-12)


def test_interval_solves_kappa_once(monkeypatch):
    calls = []

    def counting(m, c):
        calls.append(c)
        return adjustment_coefficient(m, c)

    monkeypatch.setattr(bounds, "adjustment_coefficient", counting)
    for m, c in ((RiskModel(Erlang(1.6, 2), Exponential(0.6)), 2.0),
                 (RiskModel(Exponential(0.8), MixtureExp2(1.0, 2.0, 0.5)), 2.5),
                 (RiskModel(Exponential(1.0), Erlang(2.0, 2)), 1.5)):
        calls.clear()
        ultimate_capital_interval(m, 0.05, c)
        assert calls == [c]


def test_erlang_claims_of_high_shape_near_their_abscissa():
    # (5/(5 - r))^60 passes the float range before r reaches 5: the MGF is
    # inf there, as at the abscissa, and the root walk steps down from it
    y = Erlang(5.0, 60)
    assert mgf(y, 4.99999) == math.inf
    m = RiskModel(Exponential(0.8), y)  # c* = 9.6
    assert adjustment_coefficient(m, 12.0).kappa == pytest.approx(0.03523, abs=5e-6)
    lo, hi = ultimate_capital_interval(m, 0.05, 12.0)
    assert (lo, hi) == (pytest.approx(72.99, abs=5e-3), pytest.approx(84.84, abs=5e-3))
    with pytest.raises(BracketError):
        ultimate_capital_interval(m, 0.05, 1e100)


def test_interval_is_zero_where_a_prefactor_is_at_most_alpha():
    # at c = 1e17 kappa rounds to the abscissa 1, so both prefactors are 0:
    # a capital of 0, not log(0)
    m = RiskModel(Exponential(1.0), Exponential(1.0))
    assert ultimate_capital_interval(m, 0.05, 1e17) == (0.0, 0.0)


def test_kappa_rounding_to_zero_next_to_cstar_is_a_typed_error():
    # c one ulp above c* = 3/7, where rho - delta/c rounds to 0
    m = RiskModel(Exponential(0.3), Exponential(0.7))
    c = math.nextafter(3.0 / 7.0, 1.0)
    with pytest.raises(NoAdjustmentCoefficientError):
        adjustment_coefficient(m, c)
    with pytest.raises(NoAdjustmentCoefficientError):
        ultimate_capital(m, 0.05, c)


@pytest.mark.parametrize("ratio", [1.1, 2.0, 5.0])
def test_kappa_for_pareto_arrivals_against_30_digits(ratio):
    # E exp(-rcT) is a quadrature for Pareto T, whose error swamps g(1e-12),
    # so the lower bracket walks down from the upper one instead
    a, b = 2.5, 0.0508
    m = RiskModel(Pareto(a, b), Exponential(1.0))
    c = ratio * 0.0762  # c* = E Y / E T = b (a - 1)
    kappa = adjustment_coefficient(m, c).kappa
    with mpmath.workdps(30):
        a_, b_, c_ = map(mpmath.mpf, (a, b, c))

        def g(r):
            # E exp(-sT) = a e^z z^a Gamma(-a, z), z = s/b, by y = 1 + bx
            z = r * c_ / b_
            return a_ * mpmath.exp(z) * z**a_ * mpmath.gammainc(-a_, z) / (1 - r) - 1

        truth = float(mpmath.findroot(g, (0.9 * kappa, 1.1 * kappa), solver="anderson"))
    # the quadrature's error over g'(kappa), which is smallest next to c*
    assert kappa == pytest.approx(truth, rel=1e-8)
