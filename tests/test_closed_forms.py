"""Properties of the closed forms of approx, bounds and capital.

Each closed form is written once: the asymptotic non-ruin band is the CLT
Value-at-Risk formula at alpha and alpha/2, the normal ruin approximation
is the ultimate ruin probability times one normal factor, and the ultimate
capital takes one route on every light-tailed model.  The Hypothesis
settings come from the profile in conftest.py.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr

from ruincapital import approx, bounds, capital
from ruincapital.dist import Erlang, Exponential, MixtureExp2, Pareto
from ruincapital.errors import RuinCapitalError
from ruincapital.exact import ExpPair
from ruincapital.model import RiskModel, derived_constants
from ultimate_oracle import ultimate_capital_exp

rates = st.floats(0.05, 20.0)
light_laws = st.one_of(
    st.builds(Exponential, rates),
    st.builds(Erlang, rates, st.integers(1, 8)),
    st.builds(MixtureExp2, rates, rates, st.floats(0.05, 0.95)),
)
laws = st.one_of(light_laws, st.builds(Pareto, st.floats(2.5, 8.0), rates))
models = st.builds(RiskModel, laws, laws)
alphas = st.floats(1e-6, 0.4999999)
# 10^e for e in [-300, 300]: valid inputs far beyond any preset
extremes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
UNIT = RiskModel(Exponential(1.0), Exponential(1.0))


def _exp_model(delta, rho):
    return RiskModel(Exponential(delta), Exponential(rho))


@given(models, alphas, st.floats(1e-3, 1e6), st.floats(0.0, 1.0))
def test_band_is_var_clt_at_alpha_and_half_alpha(m, alpha, t, frac):
    c_star = derived_constants(m).c_star
    c = frac * c_star
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # Pareto laws lack a third moment
        band = approx.capital_asymptotic_bounds(m, alpha, t, c)
        assert band == (approx.var_clt(m, alpha, t, c), approx.var_clt(m, alpha / 2.0, t, c))


def _printed_cramer(p, u, c, t):
    """The printed two-branch formula, as the library wrote it before the branches merged."""
    delta, rho = p.delta, p.rho
    q = delta / (c * rho)
    one = 1.0 - q
    if q > 1.0:  # subcritical
        m, d2 = -1.0 / (c * one), -2.0 * q / (c * c * rho * one**3)
        return float(ndtr((t - m * u) / math.sqrt(d2 * u)))
    m, d2 = q / (c * one), 2.0 * q / (c * c * rho * one**3)
    return q * math.exp(-rho * one * u) * float(ndtr((t - m * u) / math.sqrt(d2 * u)))


@given(
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.2, 0.99) | st.floats(1.01, 5.0),
    st.floats(0.1, 200.0),
    st.floats(1.0, 1000.0),
)
def test_cramer_is_ultimate_ruin_times_phi(delta, rho, ratio, u, t):
    p = ExpPair(delta, rho)
    c = ratio * delta / rho
    assert approx.cramer_ruin_exp(p, u, c, t) == pytest.approx(
        _printed_cramer(p, u, c, t), rel=1e-12, abs=1e-300
    )


@given(rates, rates, st.floats(1.01, 20.0), alphas)
def test_exponential_pair_ultimate_capital_is_the_closed_form(delta, rho, ratio, alpha):
    c = ratio * delta / rho
    pt = capital.ultimate_capital(_exp_model(delta, rho), alpha, c)
    ref = ultimate_capital_exp(delta, rho, alpha, c)
    # where q = c*/c meets alpha the capital is ln(q/alpha)/kappa near 0
    tol = 1e-12 / (rho - delta / c)
    assert pt.value == pytest.approx(ref, rel=1e-12, abs=tol)
    lo, hi = pt.interval
    assert lo == pytest.approx(hi, rel=1e-12, abs=tol)


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(2.0, 12.0), alphas)
def test_ultimate_capital_near_cstar_against_50_digits(delta, rho, k, alpha):
    # c = c*(1 + 10^-k): kappa = rho - delta/c loses k digits to cancellation
    # in both routes, so each is held to 1e-4 of the exact capital
    c = delta / rho * (1.0 + 10.0**-k)
    with mpmath.workdps(50):
        d, r, cc, a = map(mpmath.mpf, (delta, rho, c, alpha))
        truth = float(mpmath.log(d / (cc * r) / a) / (r - d / cc))
    assert capital.ultimate_capital(_exp_model(delta, rho), alpha, c).value == pytest.approx(
        truth, rel=1e-4
    )
    assert ultimate_capital_exp(delta, rho, alpha, c) == pytest.approx(truth, rel=1e-4)


# light claims under any arrivals, Pareto ones (a quadrature MGF) included
@given(st.builds(RiskModel, laws, light_laws), alphas, st.floats(1.01, 50.0))
def test_clamped_exactly_when_the_ultimate_capital_is_zero(m, alpha, ratio):
    pt = capital.ultimate_capital(m, alpha, ratio * derived_constants(m).c_star)
    assert pt.clamped == (pt.value == 0.0)


def test_clamped_erlang_arrivals():
    # b_plus <= alpha: the enclosure is {0}, so the capital is clamped
    pt = capital.ultimate_capital(RiskModel(Erlang(1.6, 2), Exponential(0.6)), 0.45, 3.0)
    assert (pt.value, pt.clamped, pt.interval) == (0.0, True, (0.0, 0.0))


def _closed_forms(m, alpha, u, c, t):
    c_star = derived_constants(m).c_star
    calls = [
        lambda: approx.var_clt(m, alpha, t, c),
        lambda: approx.capital_asymptotic_bounds(m, alpha, t, min(c, c_star)),
        lambda: approx.ig_ruin_probability(m, u, c, t),
        lambda: bounds.adjustment_coefficient(m, c).kappa,
        lambda: bounds.ultimate_capital_interval(m, alpha, c),
        lambda: capital.ultimate_capital(m, alpha, c).value,
    ]
    if m.is_exponential_pair():
        p = ExpPair(m.t_law.rate, m.y_law.rate)
        calls.append(lambda: approx.cramer_ruin_exp(p, u, c, t))
    return calls


@given(
    st.builds(_exp_model, rates, rates) | st.builds(RiskModel, laws, light_laws) | models,
    alphas | st.just(0.4999999),
    extremes,
    extremes,
    extremes,
)
# edge cases: the Cramer cube overflows and d2 u underflows; kappa rounds to
# the abscissa (both prefactors 0); an Erlang(5, 60) MGF passes the float
# range; ct/u and x/mu overflow in the IG route; kappa rounds to 0 next to c*;
# m u and d2 u overflow in the Cramer route; (c* - c) t overflows in the CLT one
@example(_exp_model(1e6, 0.01), 0.05, 1e-12, 1e-300, 1e-300)
@example(_exp_model(1.0, 3.0), 0.05, 1e-200, 1e100, 3.0)
@example(UNIT, 0.05, 1.0, 1e17, 1.0)
@example(RiskModel(Exponential(0.8), Erlang(5.0, 60)), 0.05, 1.0, 1e100, 1.0)
@example(UNIT, 0.05, 1e-300, 0.5, 1e300)
@example(UNIT, 0.05, 1e-180, 1e37, 1e58)
@example(_exp_model(0.3, 0.7), 0.05, 1.0, math.nextafter(3.0 / 7.0, 1.0), 1.0)
@example(_exp_model(1.0, 1.5), 0.05, 1.0, math.nextafter(2.0 / 3.0, 1.0), 1.0)
@example(UNIT, 0.05, 1e308, 0.5, 1.0)
@example(_exp_model(1.0, 1e-10), 0.05, 1.0, 0.0, 1e300)
def test_every_closed_form_is_finite_or_a_typed_error(m, alpha, u, c, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for call in _closed_forms(m, alpha, u, c, t):
            try:
                value = call()
            except RuinCapitalError:
                continue
            assert np.isfinite(value).all(), value
