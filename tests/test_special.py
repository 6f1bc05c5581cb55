import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy import special as sp

from ruincapital.errors import BracketError, DomainError, IntegrationError
from ruincapital.special import brentq, inverse_gaussian_cdf, std_normal_quantile


def test_cdf_matches_reference_points():
    assert sp.ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    assert sp.ndtr(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert sp.ndtr(-37.0) > 0.0


def test_quantile_inverts_cdf():
    for p in (1e-10, 0.025, 0.05, 0.5, 0.9, 1.0 - 1e-10):
        assert sp.ndtr(std_normal_quantile(p)) == pytest.approx(p, rel=1e-9)


def test_quantile_rejects_endpoints():
    with pytest.raises(DomainError):
        std_normal_quantile(0.0)
    with pytest.raises(DomainError):
        std_normal_quantile(1.0)


def test_inverse_gaussian_cdf_against_scipy():
    mu, lam = 2.5, 7.0
    for x in (0.1, 1.0, 2.5, 10.0, 50.0):
        ref = stats.invgauss.cdf(x, mu / lam, scale=lam)
        assert inverse_gaussian_cdf(x, mu, lam) == pytest.approx(ref, abs=1e-12)


def test_inverse_gaussian_cdf_infinite_mean_limit():
    # zero-drift limit: F(x; inf, lam) = 2 Phi(-sqrt(lam / x))
    lam, x = 4.0, 3.0
    ref = 2.0 * sp.ndtr(-math.sqrt(lam / x))
    assert inverse_gaussian_cdf(x, math.inf, lam) == pytest.approx(ref, rel=1e-12)
    big = inverse_gaussian_cdf(x, 1e14, lam)
    assert big == pytest.approx(ref, rel=1e-6)


def test_inverse_gaussian_cdf_edges():
    with pytest.raises(DomainError):
        inverse_gaussian_cdf(0.0, 1.0, 1.0)
    assert inverse_gaussian_cdf(1e-12, 1.0, 1.0) < 1e-10
    assert inverse_gaussian_cdf(1e9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # x/mu = 1e310 overflows and sqrt(lam/x) underflows: 0 * inf, a typed error
    with pytest.raises(IntegrationError, match="not finite"):
        inverse_gaussian_cdf(1e300, 1e-10, 1e-300)


def test_inverse_gaussian_cdf_elementwise():
    xs = np.array([0.5, 1.0, 3.0, 40.0])
    lams = np.array([0.2, 1.0, 7.0, 300.0])
    for mu in (2.5, math.inf):
        out = inverse_gaussian_cdf(xs, mu, lams)
        assert list(out) == [inverse_gaussian_cdf(x, mu, lam) for x, lam in zip(xs, lams)]
        # a scalar x broadcasts against an array lambda
        out = inverse_gaussian_cdf(1.0, mu, lams)
        assert list(out) == [inverse_gaussian_cdf(1.0, mu, lam) for lam in lams]
    # every element of x and lambda is checked
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            inverse_gaussian_cdf([1.0, 2.0], 1.0, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            inverse_gaussian_cdf([1.0, bad], 1.0, np.array([1.0, 2.0]))


def test_inverse_gaussian_cdf_argument_rule():
    # x and lam follow the argument rule (test_arguments); mu is a real
    # number > 0 where inf, the zero-drift limit, is valid
    for mu in (None, "1", [1.0], math.nan, -math.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match=r"\bmu must"):
            inverse_gaussian_cdf(2.0, mu, 1.0)
    ref = inverse_gaussian_cdf(2.0, 1.5, 1.0)
    assert inverse_gaussian_cdf(2.0, np.float64(1.5), 1.0) == ref
    assert inverse_gaussian_cdf(2.0, np.inf, 1.0) == inverse_gaussian_cdf(2.0, math.inf, 1.0)
    assert inverse_gaussian_cdf(2.0, 3, 1.0) == inverse_gaussian_cdf(2.0, 3.0, 1.0)


def _recorded(f):
    """f, and the list of the points it is called at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


# the tolerances of capital._invert and of bounds.adjustment_coefficient
TOLERANCES = [(1e-6, 4 * math.ulp(1.0)), (1e-15, 8.9e-16)]


@given(
    st.floats(-5.0, 5.0),
    st.floats(0.2, 3.0),
    st.floats(0.1, 5.0),
    st.floats(0.0, 2.0),
    st.floats(-250.0, 250.0),
    st.booleans(),
    st.floats(0.0, 40.0),
    st.floats(0.0, 40.0),
    st.sampled_from([math.inf, 1.0]),
    st.sampled_from(TOLERANCES),
)
@example(0.0, 1.0, 1.0, 0.0, 0.0, False, 0.0, 1.0, math.inf, TOLERANCES[0])  # f(a) = 0
def test_brentq_is_scipys_root_after_scipys_calls(x0, p, k, w, e, down, left, right, cap, tol):
    # a drawn monotone function of any scale and sign, its root x0 in [a, b]:
    # a power p < 1 is steep at the root, so interpolated steps overshoot,
    # and capped at +-1 its flat ends make the extrapolation divide by zero
    scale = (-1.0 if down else 1.0) * 10.0**e

    def f(x):
        d = x - x0
        return scale * max(-cap, min(cap, math.copysign(abs(d) ** p, d) + w * math.expm1(k * d)))

    ours, ours_xs = _recorded(f)
    theirs, their_xs = _recorded(f)
    a, b = x0 - left, x0 + right
    try:
        root = optimize.brentq(theirs, a, b, xtol=tol[0], rtol=tol[1])
    except RuntimeError:  # no convergence in 100 iterations
        with pytest.raises(BracketError, match="100 iterations"):
            brentq(ours, a, b, *tol)
    else:
        assert brentq(ours, a, b, *tol) == root
    assert ours_xs == their_xs


def test_brentq_raises_a_bracket_error():
    with pytest.raises(BracketError, match="same sign"):
        brentq(lambda x: x + 1.0, 0.0, 1.0)
    with pytest.raises(BracketError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.2 else -1.0, 0.0, 1.0)
    # a step has no interpolant to follow: 100 bisections of [-1e300, 1e300]
    # do not reach x = 0.5
    with pytest.raises(BracketError, match="100 iterations"):
        brentq(lambda x: math.copysign(1.0, x - 0.5), -1e300, 1e300)
    with pytest.raises(RuntimeError):
        optimize.brentq(lambda x: math.copysign(1.0, x - 0.5), -1e300, 1e300)
