import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy import special as sp

from ruincapital.errors import BracketError, DomainError
from ruincapital.special import _ig_cdf, brentq, brentq_columns, std_normal_quantile


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


def _ig(x, mu, lam):
    """The inverse Gaussian distribution function as the IG route evaluates it."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _ig_cdf(sp, x, mu, lam)


def test_inverse_gaussian_cdf_against_scipy():
    mu, lam = 2.5, 7.0
    for x in (0.1, 1.0, 2.5, 10.0, 50.0):
        ref = stats.invgauss.cdf(x, mu / lam, scale=lam)
        assert _ig(x, mu, lam) == pytest.approx(ref, abs=1e-12)


def test_inverse_gaussian_cdf_infinite_mean_limit():
    # zero-drift limit: F(x; inf, lam) = 2 Phi(-sqrt(lam / x))
    lam, x = 4.0, 3.0
    ref = 2.0 * sp.ndtr(-math.sqrt(lam / x))
    assert _ig(x, math.inf, lam) == pytest.approx(ref, rel=1e-12)
    big = _ig(x, 1e14, lam)
    assert big == pytest.approx(ref, rel=1e-6)


def test_inverse_gaussian_cdf_edges():
    assert _ig(1e-12, 1.0, 1.0) < 1e-10
    assert _ig(1e9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # x/mu = 1e310 overflows and sqrt(lam/x) underflows: 0 * inf is NaN,
    # which the IG route reports as its typed error, without a NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(_ig(1e300, 1e-10, 1e-300))
        assert np.isnan(_ig(np.array([1.0, 1e300]), 1e-10, 1e-300)).tolist() == [False, True]


def test_inverse_gaussian_cdf_elementwise():
    xs = np.array([0.5, 1.0, 3.0, 40.0])
    lams = np.array([0.2, 1.0, 7.0, 300.0])
    for mu in (2.5, math.inf):
        out = _ig(xs, mu, lams)
        assert list(out) == [_ig(x, mu, lam) for x, lam in zip(xs, lams)]
        # a scalar x broadcasts against an array lambda
        out = _ig(1.0, mu, lams)
        assert list(out) == [_ig(1.0, mu, lam) for lam in lams]
    # mu broadcasts too, inf entries taking the zero-drift limit
    mus = np.array([2.5, math.inf, 2.5, math.inf])
    assert list(_ig(xs, mus, lams)) == [_ig(x, mu, lam) for x, mu, lam in zip(xs, mus, lams)]


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


def _drawn(x0, p, k, w, e, down, cap, nan_from):
    """A fresh drawn monotone function, root x0, as in the brentq test above;
    from its call number ``nan_from`` on (when not None) it returns NaN."""
    scale = (-1.0 if down else 1.0) * 10.0**e
    calls = []  # (x, f(x)) in call order

    def f(x):
        d = x - x0
        y = scale * max(-cap, min(cap, math.copysign(abs(d) ** p, d) + w * math.expm1(k * d)))
        if nan_from is not None and len(calls) >= nan_from:
            y = math.nan
        calls.append((x, y))
        return y

    return f, calls


# (x0, p, k, w, e, down, cap, nan_from) and the bracket [x0 + da, x0 + db]:
# mostly around the root, sometimes on one side of it, sometimes NaN
PROBLEMS = st.tuples(
    st.tuples(
        st.floats(-5.0, 5.0), st.floats(0.2, 3.0), st.floats(0.1, 5.0), st.floats(0.0, 2.0),
        st.floats(-250.0, 250.0), st.booleans(), st.sampled_from([math.inf, 1.0]),
        st.sampled_from([None, None, None, 0, 1, 4]),
    ),
    st.floats(-40.0, 5.0),
    st.floats(-5.0, 40.0),
)
UNIT_ROOT = (0.0, 1.0, 1.0, 0.0, 0.0, False, math.inf, None)


def _brentq_columns_case(problems, xtol):
    """brentq_columns on the drawn problems against one brentq call each."""
    a = [fn[0] + da for fn, da, db in problems]
    b = [fn[0] + db for fn, da, db in problems]
    want = []
    for (fn, _, _), ai, bi in zip(problems, a, b):
        f, calls = _drawn(*fn)
        try:
            want.append((brentq(f, ai, bi, xtol), None, calls))
        except BracketError as exc:
            want.append((None, str(exc), calls))
    drawn = [_drawn(*fn) for fn, _, _ in problems]
    column = lambda x, rows: np.array([drawn[i][0](xi) for i, xi in zip(rows.tolist(), x.tolist())])
    # f at the ends first, in brentq's order: b is not evaluated after a NaN at a
    fa = [f(ai) for (f, _), ai in zip(drawn, a)]
    fb = [math.nan if math.isnan(y) else f(bi) for (f, _), y, bi in zip(drawn, fa, b)]
    x, fx, errors = brentq_columns(column, a, b, fa, fb, xtol)
    for (root, message, calls), (_, got), xi, fxi, error in zip(want, drawn, x, fx, errors):
        # the same evaluations, in the same order, and f at the returned x
        assert got == calls
        y = dict(calls)[xi]
        assert fxi == y or math.isnan(fxi) and math.isnan(y)
        if message is None:
            assert error is None and xi == root
        else:
            assert str(error) == message and xi == calls[-1][0]
            assert math.isnan(fxi) == ("NaN" in message)


XTOLS = [1e-6, 1e-12, 1e-15]


@given(st.lists(PROBLEMS, min_size=1, max_size=6), st.sampled_from(XTOLS))
@example([(UNIT_ROOT, 0.0, 1.0)], XTOLS[0])  # f(a) = 0
@example([(UNIT_ROOT, -1.0, 0.0)], XTOLS[0])  # f(b) = 0
@example([(UNIT_ROOT, -1.0, 2.0), (UNIT_ROOT[:-1] + (2,), -1.0, 2.0)], XTOLS[0])  # NaN
def test_brentq_columns_is_brentq_element_by_element(problems, xtol):
    # each element has brentq's root bits, its error and its evaluations,
    # whatever the other elements do
    _brentq_columns_case(problems, xtol)


def test_brentq_columns_early_returns_and_nan_fail_one_element_each():
    # f(a) = 0, f(b) = 0, a NaN at the first iterate, and one regular root
    g = lambda i, x: math.nan if i == 2 and 0.0 < x < 2.0 else x - 1.0
    f = lambda x, rows: np.array([g(i, xi) for i, xi in zip(rows.tolist(), x.tolist())])
    a, b = [1.0, 0.0, 0.0, 0.0], [3.0, 1.0, 2.0, 3.0]
    x, fx, errors = brentq_columns(f, a, b, np.subtract(a, 1.0), np.subtract(b, 1.0), 2e-12)
    assert x[:2].tolist() == [1.0, 1.0] and fx[:2].tolist() == [0.0, 0.0]
    assert errors[:2] == [None, None]
    assert isinstance(errors[2], BracketError) and "NaN" in str(errors[2]) and math.isnan(fx[2])
    assert errors[3] is None and x[3] == brentq(lambda u: u - 1.0, 0.0, 3.0)
    # the ends' values, given, are not evaluated again
    asked = []
    g = lambda x, rows: asked.extend(x.tolist()) or x - 1.0
    x, _, _ = brentq_columns(g, [0.0, 0.5], [3.0, 4.0], [-1.0, -0.5], [2.0, 3.0], 2e-12)
    assert x.tolist() == [brentq(lambda u: u - 1.0, 0.0, 3.0), brentq(lambda u: u - 1.0, 0.5, 4.0)]
    assert asked and not {0.0, 3.0, 0.5, 4.0} & set(asked)
