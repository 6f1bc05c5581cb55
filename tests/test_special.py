import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy import special as sp

from ruincapital.errors import BracketError, DomainError
from ruincapital.special import _ig_cdf, brentq, falsi_columns, std_normal_quantile


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


def _monotone(x0, p, k, w, e, down, cap):
    """A drawn monotone function of any scale and sign, whose one sign change
    is at x0: a power p < 1 is steep there, so interpolated steps overshoot,
    and capped at +-1 its flat ends make Brent's extrapolation divide by zero."""
    scale = (-1.0 if down else 1.0) * 10.0**e

    def f(x):
        d = x - x0
        return scale * max(-cap, min(cap, math.copysign(abs(d) ** p, d) + w * math.expm1(k * d)))

    return f


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
    # a drawn monotone function, its root x0 in [a, b]
    f = _monotone(x0, p, k, w, e, down, cap)
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


def _column(fns, nan_from):
    """falsi_columns' f(x, rows) over the scalar functions ``fns``, and each
    element's points in call order; element i returns NaN from its call
    ``nan_from[i]`` on (when not None)."""
    calls = [[] for _ in fns]

    def f(x, rows):
        out = []
        for i, xi in zip(rows.tolist(), x.tolist()):
            nan = nan_from[i] is not None and len(calls[i]) >= nan_from[i]
            out.append(math.nan if nan else fns[i](xi))
            calls[i].append(xi)
        return np.array(out)

    return f, calls


# (x0, p, k, w, e, down, cap), the distances of the ends from x0, whether a
# is the left end, and the call from which the element is NaN (mostly never).
# The scale 10**e neither overflows nor underflows, and w > 0 makes the root simple where p > 1; a power p < 1 gives it infinite
# slope.  Illinois' secant steps need more than 100 steps at a multiple
# root, or where f spans tens of orders of magnitude across the bracket
# (the test below), so neither is drawn.
PROBLEMS = st.tuples(
    st.tuples(
        st.floats(-5.0, 5.0), st.floats(0.2, 3.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0),
        st.floats(-100.0, 100.0), st.booleans(), st.sampled_from([math.inf, 1.0]),
    ),
    st.floats(0.0, 10.0),
    st.floats(1e-9, 10.0),
    st.booleans(),
    st.sampled_from([None, None, None, 0, 1, 4]),
)
UNIT_ROOT = (0.0, 1.0, 1.0, 0.1, 0.0, False, math.inf)
XTOLS = [1e-6, 1e-12, 1e-15]


def _falsi(problems, xtol):
    """falsi_columns on the drawn problems: its (x, fx, errors), the functions,
    the ends and each element's evaluations."""
    fns = [_monotone(*fn) for fn, *_ in problems]
    a = [fn[0] + (-da if left else da) for (fn, da, _, left, _) in problems]
    b = [fn[0] + (db if left else -db) for (fn, _, db, left, _) in problems]
    f, calls = _column(fns, [nan_from for *_, nan_from in problems])
    fa, fb = [g(ai) for g, ai in zip(fns, a)], [g(bi) for g, bi in zip(fns, b)]
    return falsi_columns(f, a, b, fa, fb, xtol), fns, a, b, calls


def _bits(v):
    return float(v).hex()


@given(st.lists(PROBLEMS, min_size=1, max_size=6), st.sampled_from(XTOLS))
@example([(UNIT_ROOT, 0.0, 1.0, True, None)], XTOLS[0])  # f(a) = 0
@example([(UNIT_ROOT, 1.0, 1.0, True, None), (UNIT_ROOT, 1.0, 2.0, False, 2)], XTOLS[0])  # NaN
def test_falsi_columns_finds_each_root_once_per_element(problems, xtol):
    (x, fx, errors), fns, a, b, calls = _falsi(problems, xtol)
    for i, (fn, *_, nan_from) in enumerate(problems):
        # no point evaluated twice, the ends given included, and at most 100 steps
        assert len({a[i], b[i], *calls[i]}) == 2 + len(calls[i]) <= 102
        if errors[i] is not None:
            # only a NaN fails a drawn element: the last iterate, NaN there
            assert "NaN" in str(errors[i]) and nan_from is not None
            assert x[i] == calls[i][-1] and math.isnan(fx[i])
            continue
        assert nan_from is None or len(calls[i]) <= nan_from
        # the root is b or one of its own iterates, f there its value, and
        # it lies within the stopping width of the one sign change at x0
        assert x[i] in (b[i], *calls[i]) and fx[i] == fns[i](x[i])
        assert abs(x[i] - fn[0]) <= xtol + 4 * math.ulp(1.0) * max(abs(a[i]), abs(b[i]))
        # an element is its own column of one, bit for bit
        (x1, fx1, errors1), _, _, _, calls1 = _falsi([problems[i]], xtol)
        assert (_bits(x1[0]), _bits(fx1[0]), errors1) == (_bits(x[i]), _bits(fx[i]), [None])
        assert calls1 == [calls[i]]


def test_nan_or_100_steps_fail_only_their_own_element():
    # element 0 falls from 1 to -5.5e34 across [0, 3]: each secant point
    # lies tol/2 past the last one while f(a) halves, so 100 steps reach
    # only x = 8e-5; element 1 turns NaN at its second call, and element 2
    # is a regular root
    square = lambda x: 1.0 - x * x
    g = [lambda x: -math.expm1(40.0 * (x - 1.0)), square, square]
    f, calls = _column(g, [None, 1, None])
    a, b = [0.0, 0.0, 0.0], [3.0, 3.0, 3.0]
    x, fx, errors = falsi_columns(f, a, b, [1.0, 1.0, 1.0], [g[0](3.0), -8.0, -8.0], 1e-6)
    assert "100 steps" in str(errors[0]) and len(calls[0]) == 100 and x[0] == calls[0][-1]
    assert "NaN" in str(errors[1]) and len(calls[1]) == 2 and math.isnan(fx[1])
    assert all(isinstance(e, BracketError) for e in errors[:2])
    assert errors[2] is None and abs(x[2] - 1.0) <= 1e-6 and fx[2] == square(x[2])
    one, one_calls = _column([square], [None])
    x1, fx1, _ = falsi_columns(one, [0.0], [3.0], [1.0], [-8.0], 1e-6)
    assert (x1[0], fx1[0], one_calls[0]) == (x[2], fx[2], calls[2])
