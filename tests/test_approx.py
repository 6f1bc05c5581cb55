import inspect
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from ig_oracle import ig_integral
from ruincapital.approx import (
    _ig_prob,
    capital_asymptotic_bounds,
    cramer_constants_exp,
    cramer_ruin_exp,
    ig_ruin_probability,
    var_clt,
)
from ruincapital.dist import Erlang, Exponential, MixtureExp2, Pareto
from ruincapital.errors import DomainError, ExcludedCaseError, IntegrationError
from ruincapital.exact import ExpPair, ruin_finite_exp, ruin_ultimate_exp
from ruincapital.model import RiskModel, derived_constants

UNIT = RiskModel(Exponential(1.0), Exponential(1.0))
K_UNIT = derived_constants(UNIT)


def test_var_clt_reference_values():
    # unit model, alpha=0.05, t=200: (1-c)*200 + 1.6449*sqrt(2)*sqrt(200)
    z = stats.norm.ppf(0.95)
    assert var_clt(UNIT, 0.05, 200.0, 0.0) == pytest.approx(
        200.0 + z * math.sqrt(2.0) * math.sqrt(200.0), rel=1e-12
    )
    assert var_clt(UNIT, 0.05, 200.0, 1.0) == pytest.approx(
        z * math.sqrt(400.0), rel=1e-12
    )
    assert var_clt(UNIT, 0.05, 200.0, 2.5) == 0.0


def test_ig_closed_equals_integral():
    for u, c, t in [
        (10.0, 0.5, 50.0),
        (40.0, 0.9, 200.0),
        (40.0, 1.0, 200.0),
        (40.0, 1.3, 200.0),
        (50.0, 1.0, 1000.0),
        (5.0, 2.0, 30.0),
    ]:
        a = ig_integral(u, c, t, K_UNIT.m_big, K_UNIT.d2_big)
        b = ig_ruin_probability(UNIT, u, c, t)
        assert b == pytest.approx(a, abs=1e-8), (u, c, t)


def test_ig_supercritical_defective_limit():
    # above the equilibrium rate the approximating first-passage law is
    # defective: the t -> inf limit stabilizes strictly below the total
    # mass exp(-2 lam / mu) because the passage window starts at x = 1
    # (unit model: M = 1 and D^2 = 2, so lam = u/(c^2 D^2) and the
    # reflected mean is 1/(cM - 1))
    u, c = 30.0, 1.5
    lam, mu = u / (c * c * 2.0), 1.0 / (c - 1.0)
    v9 = ig_ruin_probability(UNIT, u, c, 1e9)
    v12 = ig_ruin_probability(UNIT, u, c, 1e12)
    assert v12 == pytest.approx(v9, rel=1e-9)
    assert 0.0 < v12 < math.exp(-2.0 * lam / mu)


def test_ig_close_to_exact_probability():
    # the approximation error at u=50, t=1000 is at the percent level
    p = ExpPair(1.0, 1.0)
    for c in (0.9, 1.0, 1.1):
        ex = ruin_finite_exp(p, 50.0, c, 1000.0)
        ig = ig_ruin_probability(UNIT, 50.0, c, 1000.0)
        assert abs(ig - ex) < 0.03


def test_ig_heavy_tailed_model_supported():
    m = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
    v = ig_ruin_probability(m, 40.0, 1.0, 1000.0)
    assert 0.0 < v < 1.0


def test_ig_domain_errors():
    with pytest.raises(DomainError):
        ig_ruin_probability(UNIT, 0.0, 1.0, 10.0)
    with pytest.raises(DomainError):
        ig_ruin_probability(UNIT, 1.0, 0.0, 10.0)
    assert ig_ruin_probability(UNIT, 1.0, 1.0, 0.0) == 0.0
    # one route: the quadrature reference is private, not a selectable form
    assert list(inspect.signature(ig_ruin_probability).parameters) == ["m", "u", "c", "t"]
    # non-finite inputs are typed errors, not 0.0 or NaN
    with pytest.raises(DomainError):
        var_clt(UNIT, 0.05, 200.0, math.nan)
    with pytest.raises(DomainError):
        var_clt(UNIT, 0.05, math.inf, 1.0)
    with pytest.raises(DomainError):
        capital_asymptotic_bounds(UNIT, 0.05, 200.0, math.nan)
    with pytest.raises(DomainError):
        ig_ruin_probability(UNIT, 1.0, 1.0, math.nan)
    with pytest.raises(DomainError):
        cramer_ruin_exp(ExpPair(1.0, 1.0), math.inf, 1.5, 10.0)



@pytest.mark.parametrize(
    "m",
    [
        UNIT,
        RiskModel(Erlang(1.6, 2), Exponential(0.6)),
        RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
    ],
    ids=["unit", "model_iv", "mixture_pareto"],
)
def test_ig_array_u_equals_scalar_calls(m):
    big_m = derived_constants(m).m_big
    us = np.geomspace(1e-3, 2e3, 70)
    # sub- and supercritical rates, and rates within 1e-12 of cM = 1
    for cm in (0.3, 0.9, 1.0, 1.0 - 5e-13, 1.0 + 5e-13, 1.2, 3.0):
        c = cm / big_m
        for t in (200.0, 1e5):
            out = ig_ruin_probability(m, us, c, t)
            assert isinstance(out, np.ndarray) and out.shape == us.shape
            scalar = [ig_ruin_probability(m, float(u), c, t) for u in us]
            assert all(type(v) is float for v in scalar)
            assert list(out) == scalar, (cm, t)


IG_MODELS = [
    UNIT,
    RiskModel(Erlang(1.6, 2), Exponential(0.6)),
    RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35)),
]


@pytest.mark.parametrize("m", IG_MODELS, ids=["unit", "model_iv", "mixture_pareto"])
def test_ig_kernel_equals_the_public_function(m):
    # the capital solve's prepared kernel, one column of cells, and
    # ig_ruin_probability are one computation: equal bit for bit, for one u
    # per cell, for a row of u per cell and for any subset of the cells
    k = derived_constants(m)
    us = np.geomspace(1e-3, 2e3, 70)
    cs = [cm / k.m_big for cm in (0.3, 0.9, 1.0, 1.0 - 5e-13, 1.0 + 5e-13, 1.2, 3.0)]
    n = len(cs)
    for t in (200.0, 1e5):
        prob, errors = _ig_prob(k, np.array(cs), t, np.full(n, us[0]), np.full(n, us[-1]))
        assert errors == [None] * n
        rows = np.arange(n)
        grid = prob(np.tile(us, (n, 1)), rows)
        for i, c in enumerate(cs):
            assert list(grid[i]) == list(ig_ruin_probability(m, us, c, t)), (c, t)
        for j, u in enumerate(us.tolist()):
            sub = rows[j % 2 :: 2]
            want = [ig_ruin_probability(m, u, cs[i], t) for i in sub.tolist()]
            assert prob(np.full(sub.size, u), sub).tolist() == want, (t, u)


def test_ig_array_u_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ig_ruin_probability(UNIT, np.array([1.0, bad, 5.0]), 1.0, 200.0)
    assert list(ig_ruin_probability(UNIT, np.array([1.0, 5.0]), 1.0, 0.0)) == [0.0, 0.0]


def test_cramer_constants_printed_formulas():
    # delta=rho=1, c=2: q=1/2, kappa=1/2, C=1/2, m=1/2, D^2=2
    k = cramer_constants_exp(ExpPair(1.0, 1.0), 2.0)
    assert k.big_c == pytest.approx(0.5)
    assert k.kappa == pytest.approx(0.5)
    assert k.m == pytest.approx(0.5)
    assert k.d2 == pytest.approx(2.0)
    # subcritical branch: c=0.5, q=2, m = -1/(c(1-q)) = 2,
    # D^2 = -2q/(c^2 rho (1-q)^3) = 16
    k = cramer_constants_exp(ExpPair(1.0, 1.0), 0.5)
    assert k.m == pytest.approx(2.0)
    assert k.d2 == pytest.approx(16.0)


def test_cramer_excluded_at_equilibrium():
    with pytest.raises(ExcludedCaseError):
        cramer_constants_exp(ExpPair(1.0, 1.0), 1.0)
    # float ties from grid arithmetic fall in the excluded window too
    with pytest.raises(ExcludedCaseError):
        cramer_constants_exp(ExpPair(1.0, 1.0), 0.5 + 0.05 * 10)


def test_cramer_supercritical_t_limit_is_ultimate_ruin():
    p = ExpPair(1.0, 1.0)
    u, c = 20.0, 1.5
    val = cramer_ruin_exp(p, u, c, 1e12)
    assert val == pytest.approx(ruin_ultimate_exp(p, u, c), rel=1e-12)


def test_cramer_close_to_exact():
    p = ExpPair(1.0, 1.0)
    for c in (0.7, 1.4):
        ex = ruin_finite_exp(p, 50.0, c, 1000.0)
        ap = cramer_ruin_exp(p, 50.0, c, 1000.0)
        assert abs(ap - ex) < 0.03


def test_endpoints_unit_model():
    # the band's ends: u(0) = t/M + z_.05 sqrt(2) sqrt(t) and u(c*) = z_.025 sqrt(2) sqrt(t)
    u_at_zero = capital_asymptotic_bounds(UNIT, 0.05, 200.0, 0.0)[0]
    u_at_cstar = capital_asymptotic_bounds(UNIT, 0.05, 200.0, K_UNIT.c_star)[1]
    z_a = stats.norm.ppf(0.95)
    z_h = stats.norm.ppf(0.975)
    assert u_at_zero == pytest.approx(200.0 + z_a * math.sqrt(400.0), rel=1e-12)
    assert u_at_cstar == pytest.approx(z_h * math.sqrt(400.0), rel=1e-12)


def test_endpoints_erlang_model():
    m = RiskModel(Erlang(1.6, 2), Exponential(0.6))
    u_at_cstar = capital_asymptotic_bounds(m, 0.05, 200.0, derived_constants(m).c_star)[1]
    # scale = D / M^{3/2} with D^2 = 1.40625, M = 0.75
    scale = math.sqrt(1.40625) / 0.75**1.5
    assert u_at_cstar == pytest.approx(
        stats.norm.ppf(0.975) * scale * math.sqrt(200.0), rel=1e-12
    )


def test_bounds_bracket_endpoint_and_order():
    # at each rate the upper end lies above the lower, and both fall as c rises
    lo, hi = capital_asymptotic_bounds(UNIT, 0.05, 200.0, 1.0)
    lo0, hi0 = capital_asymptotic_bounds(UNIT, 0.05, 200.0, 0.0)
    assert lo < hi and lo0 < hi0
    assert lo < lo0 and hi < hi0
    with pytest.raises(DomainError):
        capital_asymptotic_bounds(UNIT, 0.05, 200.0, 1.5)


def test_precondition_warning_for_missing_third_moment():
    m = RiskModel(Exponential(0.8), Pareto(3.0, 0.3))
    with pytest.warns(RuntimeWarning):
        capital_asymptotic_bounds(m, 0.05, 200.0, derived_constants(m).c_star)


# lam = u/(c^2 D^2) overflows at u = 1e308 and divides by zero at c = 1e-200;
# the limit ct/u overflows at u = 1e-300, t = 1e300, and x/mu = (ct/u + 1)|1 - cM|
# at c = 1e37
IG_OVERFLOWS = ((1e308, 0.5, 200.0), (10.0, 1e-200, 200.0), (np.array([1.0, 1e308]), 0.5, 200.0),
                (1e-300, 0.5, 1e300), (1e-180, 1e37, 1e58))


def test_ig_raises_a_typed_error_when_its_shape_is_not_finite():
    for u, c, t in IG_OVERFLOWS:
        with pytest.raises(IntegrationError, match="not finite"):
            ig_ruin_probability(UNIT, u, c, t)


def test_ig_overflow_raises_without_a_numpy_warning():
    # NaN from x/mu overflowing is the typed error, not first a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, c, t in IG_OVERFLOWS:
            with pytest.raises(IntegrationError, match="not finite"):
                ig_ruin_probability(UNIT, u, c, t)


def test_clt_overflow_to_inf_is_a_typed_error_and_to_minus_inf_is_zero():
    # c* = 1e10, so (c* - c) t overflows to inf below c* and to -inf above it
    m = RiskModel(Exponential(1.0), Exponential(1e-10))
    for c in (0.0, np.array([0.0, 2e10])):
        with pytest.raises(DomainError, match="overflows"):
            var_clt(m, 0.05, 1e300, c)
    with pytest.raises(DomainError, match="overflows"):
        capital_asymptotic_bounds(m, 0.05, 1e300, 0.0)
    assert var_clt(m, 0.05, 1e300, 2e10) == 0.0
    assert var_clt(m, 0.05, 1e300, np.array([2e10, 3e10])).tolist() == [0.0, 0.0]
    # D_V z sqrt(t) overflows here, so above c* the formula is -inf + inf, not a capital of 0
    wide = RiskModel(Exponential(1e102), Exponential(8e-103))
    c = 2.0 * derived_constants(wide).c_star
    for cs in (c, np.array([c])):
        with pytest.raises(DomainError, match="overflows"):
            var_clt(wide, 1e-16, 1.79e308, cs)
    # a finite D_V (about 1.4e52, once inf) leaves -inf above c*: a capital of 0
    huge = RiskModel(Exponential(1e-100), Exponential(1e-102))
    assert var_clt(huge, 0.05, 1.7e308, 2.0 * derived_constants(huge).c_star) == 0.0


def test_cramer_extreme_constants_are_typed_errors():
    # the cube (1 - q)^3 overflowed, d2 u underflowed to a zero divisor, and
    # m u and d2 u overflowed, where (t - inf)/sqrt(inf) was NaN
    for p, u, c, t in ((ExpPair(1e6, 0.01), 1e-12, 1e-300, 1e-300),
                       (ExpPair(1.0, 3.0), 1e-200, 1e100, 3.0),
                       (ExpPair(1.0, 1.0), 1e308, 0.5, 1.0)):
        with pytest.raises(DomainError):
            cramer_ruin_exp(p, u, c, t)
    assert cramer_ruin_exp(ExpPair(1.0, 1.0), 1e300, 0.5, 1.0) == 0.0
