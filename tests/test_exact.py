import math
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy import special as sp

from ruincapital import exact
from ruincapital.errors import DomainError, IntegrationError, RuinCapitalError
from ruincapital.exact import (
    _OSC_MAX_LOG_ENVELOPE,
    _TAKACS_MAX_Q,
    ExpPair,
    _clamp_probability,
    _composite_gl,
    _log_envelope,
    _oscillatory_integral,
    _oscillatory_rule,
    _ruin_finite_seal,
    _seal_rule,
    _survival_zero,
    aggregate_cdf_exp,
    aggregate_pdf_exp,
    ruin_finite_exp,
    ruin_ultimate_exp,
)

UNIT = ExpPair(1.0, 1.0)
MODEL_I = ExpPair(0.8, 0.6)


def _poisson_gamma_cdf(p: ExpPair, t: float, x: float, kmax: int = 400) -> float:
    # independent oracle: exponential inter-arrivals make the claim count
    # Poisson(delta t) and the k-claim total Gamma(k, rho)
    ks = np.arange(kmax)
    pk = stats.poisson.pmf(ks, p.delta * t)
    # k = 0 contributes the atom at zero
    return float(pk[0] + np.sum(pk[1:] * stats.gamma.cdf(x, ks[1:], scale=1.0 / p.rho)))


@pytest.mark.parametrize(
    "pair,t,x",
    [
        (UNIT, 5.0, 3.0),
        (UNIT, 5.0, 8.0),
        (ExpPair(0.8, 0.6), 20.0, 30.0),
        (ExpPair(2.0, 0.5), 10.0, 50.0),
    ],
)
def test_aggregate_cdf_matches_poisson_gamma_mixture(pair, t, x):
    assert aggregate_cdf_exp(pair, t, x) == pytest.approx(
        _poisson_gamma_cdf(pair, t, x), abs=1e-12
    )


def _bessel_quad_cdf(p: ExpPair, t: float, x: float) -> float:
    # the Bessel-series form: the atom exp(-delta t) plus the continuous part
    # integrated by adaptive quadrature after z = w^2, where the scaled
    # Bessel function turns the integrand into a Gaussian bump at s/rho
    s = math.sqrt(p.delta * p.rho * t)
    w0, wmax = s / p.rho, math.sqrt(x)
    val, _ = integrate.quad(
        lambda w: sp.i1e(2.0 * w * s) * np.exp(-p.rho * (w - w0) ** 2),
        0.0, wmax, points=[w0] if 0.0 < w0 < wmax else None,
        limit=200, epsabs=1e-12, epsrel=1e-10,
    )
    return math.exp(-p.delta * t) + 2.0 * s * val


@pytest.mark.parametrize("pair", [UNIT, ExpPair(0.8, 0.6), ExpPair(2.0, 0.5)])
def test_aggregate_cdf_matches_bessel_quadrature(pair):
    for t in (0.1, 1.0, 10.0, 100.0, 1000.0):
        mean, sd = pair.delta * t / pair.rho, math.sqrt(2.0 * pair.delta * t) / pair.rho
        for x in np.linspace(0.0, mean + 8.0 * sd + 5.0 / pair.rho, 25)[1:]:
            assert aggregate_cdf_exp(pair, t, x) == pytest.approx(
                _bessel_quad_cdf(pair, t, x), abs=1e-12
            )


def test_aggregate_cdf_long_horizon():
    # at equal means P{N <= K} = (1 + P{N = K}) / 2 with P{N = K} = i0e(2 lam)
    lam = 1e8
    assert aggregate_cdf_exp(UNIT, lam, lam) == pytest.approx(
        0.5 * (1.0 + sp.i0e(2.0 * lam)), abs=1e-12
    )
    # once delta t and rho x both pass about 2e10 chndtr is NaN: a typed error
    with pytest.raises(IntegrationError):
        aggregate_cdf_exp(UNIT, 1e11, 1e11)


@pytest.mark.parametrize("pair", [UNIT, ExpPair(0.8, 0.6)])
@pytest.mark.parametrize("c", [0.5, 0.9, 1.0, 1.2, 1.5, 2.0])
def test_seal_zero_capital_survival_matches_oscillatory_form(pair, c):
    # Takacs' ballot formula against 1 - psi(0) + the oscillatory integral
    # at u = 0, whose envelope never exceeds 1
    for t in (200.0, 1000.0):
        rule = _seal_rule(pair.delta, pair.rho, c, t)
        for tau, got in zip(t - rule.s[::8], rule.phi0[::8]):
            osc = 1.0 - ruin_ultimate_exp(pair, 0.0, c) + _oscillatory_integral(pair, 0.0, c, tau)
            assert got == pytest.approx(osc, abs=1e-12)


@pytest.mark.parametrize("pair", [UNIT, ExpPair(0.8, 0.6)], ids=["unit", "model_I"])
def test_finite_ruin_near_critical_rate_matches_seal(pair):
    # within a few percent of c* the oscillatory route loses up to 2.5e-3
    # (3.3e-5 at u = 0), so the dispatcher must agree with Seal on both sides
    c_star = pair.delta / pair.rho
    us = [0.0, *np.linspace(1.0, 200.0, 12)]
    for k in range(1, 7):
        for c in (c_star * (1.0 - 10.0**-k), c_star * (1.0 + 10.0**-k)):
            for u in us:
                assert ruin_finite_exp(pair, u, c, 200.0) == pytest.approx(
                    _ruin_finite_seal(pair, u, c, 200.0), abs=1e-10
                )


def test_aggregate_cdf_atom_and_tail():
    # P{V_t <= 0} equals the no-claim probability e^{-delta t}
    assert aggregate_cdf_exp(UNIT, 3.0, 0.0) == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert aggregate_cdf_exp(UNIT, 3.0, 200.0) == pytest.approx(1.0, abs=1e-14)


def test_aggregate_pdf_integrates_to_continuous_mass():
    t = 4.0
    val, _ = integrate.quad(lambda x: aggregate_pdf_exp(UNIT, t, x), 0.0, 120.0, limit=300)
    assert val == pytest.approx(1.0 - math.exp(-t), rel=1e-10)


def test_aggregate_pdf_is_cdf_derivative():
    t, x, h = 6.0, 5.0, 1e-6
    num = (aggregate_cdf_exp(UNIT, t, x + h) - aggregate_cdf_exp(UNIT, t, x - h)) / (2 * h)
    assert aggregate_pdf_exp(UNIT, t, x) == pytest.approx(num, rel=1e-7)


def test_ultimate_ruin_closed_form():
    # psi(u) = (delta / (c rho)) exp(-(rho - delta/c) u) above the equilibrium rate
    p = ExpPair(1.0, 1.0)
    c, u = 1.2, 10.0
    expect = (1.0 / 1.2) * math.exp(-(1.0 - 1.0 / 1.2) * u)
    assert ruin_ultimate_exp(p, u, c) == pytest.approx(expect, rel=1e-12)
    # at or below c* ruin is certain
    assert ruin_ultimate_exp(p, 10.0, 1.0) == 1.0
    assert ruin_ultimate_exp(p, 10.0, 0.5) == 1.0
    assert ruin_ultimate_exp(p, 0.0, 2.0) == pytest.approx(0.5, rel=1e-12)


def test_finite_ruin_routes_agree():
    # the oscillatory-integral and renewal-recursion evaluations are
    # independent derivations and must coincide
    cases = [
        (UNIT, 10.0, 1.0, 50.0),
        (UNIT, 40.0, 1.0, 200.0),
        (UNIT, 5.0, 0.8, 30.0),
        (ExpPair(0.8, 0.6), 20.0, 1.2, 100.0),
    ]
    for p, u, c, t in cases:
        osc = ruin_ultimate_exp(p, u, c) - _oscillatory_integral(p, u, c, t)
        seal = _ruin_finite_seal(p, u, c, t)
        assert osc == pytest.approx(seal, abs=1e-10)


@pytest.mark.parametrize(
    "p,u,c,t,ref",
    [
        # 128- and 256-panel uniform rules and an adaptive quad at 1e-14
        (UNIT, 400.0, 0.55, 1000.0, 0.875167282716719),
        # a long horizon: 4096 uniform panels and a 1152-panel graded rule
        (ExpPair(0.8, 0.6), 3000.0, 1.2, 20000.0, 0.1419517745468408),
    ],
    ids=["t1000", "t20000"],
)
def test_seal_route_converged_value(p, u, c, t, ref):
    assert _ruin_finite_seal(p, u, c, t) == pytest.approx(ref, abs=1e-12)


def test_finite_ruin_monotone_in_horizon_and_capital():
    ts = [10.0, 50.0, 200.0, 1000.0]
    vals = [ruin_finite_exp(UNIT, 20.0, 1.0, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    us = [0.0, 5.0, 20.0, 60.0]
    vals = [ruin_finite_exp(UNIT, u, 1.0, 100.0) for u in us]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_finite_ruin_approaches_ultimate():
    p = ExpPair(1.0, 1.0)
    u, c = 5.0, 1.3
    assert ruin_finite_exp(p, u, c, 4000.0) == pytest.approx(
        ruin_ultimate_exp(p, u, c), abs=1e-6
    )


def test_finite_ruin_small_probability_dispatch():
    # large capital with a cheap premium puts the oscillatory integrand's
    # envelope far above the result, so the dispatcher must switch to the
    # recursion, which has no exponential cancellation
    p = ExpPair(1.0, 1.0)
    assert _log_envelope(p, 200.0, 0.5, 50.0) > 14.0
    val = ruin_finite_exp(p, 200.0, 0.5, 50.0)
    assert 0.0 <= val < 1e-6


def test_finite_ruin_monte_carlo_oracle():
    # crude simulation oracle with a generator independent of the library
    rng = np.random.default_rng(12345)
    p, u, c, t, n = UNIT, 5.0, 1.0, 30.0, 40_000
    ruined = 0
    for _ in range(n):
        s = rng.exponential(1.0)
        v = 0.0
        while s <= t:
            v += rng.exponential(1.0)
            if v - c * s > u:
                ruined += 1
                break
            s += rng.exponential(1.0)
    phat = ruined / n
    pexact = ruin_finite_exp(p, u, c, t)
    se = math.sqrt(pexact * (1 - pexact) / n)
    assert abs(phat - pexact) <= 4.0 * se


def test_domain_errors():
    with pytest.raises(DomainError):
        ExpPair(-1.0, 1.0)
    with pytest.raises(DomainError):
        ExpPair(math.inf, 1.0)
    with pytest.raises(DomainError):
        ruin_finite_exp(UNIT, -1.0, 1.0, 10.0)
    with pytest.raises(DomainError):
        ruin_finite_exp(UNIT, 1.0, -0.1, 10.0)
    with pytest.raises(DomainError):
        ruin_finite_exp(UNIT, 1.0, 1.0, 0.0)
    # non-finite inputs are typed errors, not bare ValueErrors or a silent 1.0
    for u, c, t in [(math.nan, 1.0, 10.0), (1.0, math.nan, 10.0), (1.0, 1.0, math.inf)]:
        with pytest.raises(DomainError):
            ruin_finite_exp(UNIT, u, c, t)
    with pytest.raises(DomainError):
        aggregate_cdf_exp(UNIT, 5.0, math.nan)
    # the ultimate ruin probability takes the same finite u >= 0 and c >= 0
    for u, c in [(1.0, math.nan), (1.0, math.inf), (math.nan, 2.0), (math.inf, 2.0),
                 (-1.0, 2.0), (1.0, -0.1)]:
        with pytest.raises(DomainError):
            ruin_ultimate_exp(UNIT, u, c)


def test_zero_capital_zero_horizon_limits():
    # at u = 0 and c = 0 ruin happens at the first claim before t
    val = ruin_finite_exp(UNIT, 0.0, 0.0, 2.0)
    assert val == pytest.approx(1.0 - math.exp(-2.0), rel=1e-9)


def _oscillatory_oracle(p: ExpPair, u: float, c: float, t: float) -> float:
    # the oscillatory sum as one expression, every array built per call:
    # the cached per-rate rule must reproduce it bit for bit.  The sum runs
    # over [0, x_cut], past which every term is below 2**-60 of the
    # integrand's bound at any u, in panels at most pi/n wide
    delta, rho = p.delta, p.rho
    q = delta / (c * rho)
    sq = math.sqrt(q)
    freq = u * rho * sq
    n = max(64, int(1.0 + freq))
    a0, cut_log = 2.0 * t * c * rho * sq, 60.0 * math.log(2.0)
    x_cut = 2.0 * math.asin(math.sqrt(cut_log / max(cut_log, 2.0 * a0)))  # pi once L >= 2 a0
    x, w = _composite_gl(np.linspace(0.0, x_cut, max(1, math.ceil(n * (x_cut / math.pi))) + 1))
    denom = 1.0 + q - 2.0 * sq * np.cos(x)
    # cos(phi) - cos(phi + 2x) = 2 sin(x) sin(phi + x)
    osc = np.sin(freq * np.sin(x) + x)
    vals = np.exp(u * rho * (sq * np.cos(x) - 1.0) - t * c * rho * denom) * osc
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("ruin_finite_exp integrand not finite")
    return float(vals @ (2.0 * q * np.sin(x) / (math.pi * denom) * w))


def _uniform_reference(p: ExpPair, u: float, c: float, t: float, panels: int) -> float:
    # the oscillatory sum over all of [0, pi] on uniform panels, in product form
    q = p.delta / (p.rho * c)
    sq = math.sqrt(q)
    freq = u * p.rho * sq
    x, w = _composite_gl(np.linspace(0.0, math.pi, max(panels, int(1.0 + freq)) + 1))
    denom = 1.0 + q - 2.0 * sq * np.cos(x)
    vals = np.exp(u * p.rho * (sq * np.cos(x) - 1.0) - t * c * p.rho * denom)
    vals *= np.sin(freq * np.sin(x) + x)
    return float(vals @ (2.0 * q * np.sin(x) / denom * w)) / math.pi


def _in_oscillatory_domain(
    p: ExpPair, u: float, c: float, t: float, max_log_envelope: float = _OSC_MAX_LOG_ENVELOPE
) -> bool:
    q = p.delta / (c * p.rho)
    return abs(q - 1.0) >= 0.03 and _log_envelope(p, u, c, t) <= max_log_envelope


# c from c*/4 to 4 c*, as a multiple of c* = delta / rho
rate_factors = st.floats(0.25, 4.0)


@given(
    delta=st.floats(0.1, 10.0),
    rho=st.floats(0.1, 10.0),
    rates=st.lists(st.tuples(rate_factors, st.floats(0.5, 2000.0)), min_size=2, max_size=2),
    # (which rate, u rho sqrt(q), repeat the previous u at that rate):
    # below 63 every call takes the 64-panel rule, above it up to 2001 panels
    steps=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.one_of(st.floats(0.01, 63.0), st.floats(63.0, 2000.0)),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_oscillatory_integral_equals_the_oracle_bit_for_bit(delta, rho, rates, steps):
    p = ExpPair(delta, rho)
    last = {}
    for which, freq, repeat in steps:
        f, t = rates[which]
        c = f * delta / rho
        u = last[which] if repeat and which in last else freq / (rho * math.sqrt(delta / (c * rho)))
        last[which] = u
        # the sum itself, also between exp(10) and exp(14) where Seal answers
        if _in_oscillatory_domain(p, u, c, t, max_log_envelope=14.0):
            assert _oscillatory_integral(p, u, c, t) == _oscillatory_oracle(p, u, c, t)


def test_oscillatory_rule_is_built_once_per_rate():
    # two rules are kept: a third rate evicts the one used least recently
    a, b, d = (1.5, 200.0), (2.0, 200.0), (0.5, 50.0)
    calls = [(a, 10.0), (a, 20.0), (b, 10.0), (a, 30.0), (d, 5.0), (b, 10.0), (a, 800.0)]
    _oscillatory_rule.cache_clear()
    for (c, t), u in calls:
        assert _oscillatory_integral(UNIT, u, c, t) == _oscillatory_oracle(UNIT, u, c, t)
    info = _oscillatory_rule.cache_info()
    # a, a (hit), b, a (hit), d (evicts b), b (evicts a), a at 654 panels
    assert (info.hits, info.misses, info.currsize) == (2, 5, 2)
    # every call at a rate shares its arrays, so none may be written
    assert not any(a.flags.writeable for a in _oscillatory_rule(1.0, 1.0, 1.5, 200.0, 64))


@given(
    delta=st.floats(0.1, 10.0),
    rho=st.floats(0.1, 10.0),
    # ln(c / c*), log-uniform in size from 0.03 to ln 4, of either sign: at
    # long horizons only rates near c* keep the envelope above exp(-600)
    log_f=st.tuples(st.floats(math.log(0.03), math.log(math.log(4.0))), st.sampled_from([-1, 1]))
    .map(lambda a: a[1] * math.exp(a[0])),
    v=st.floats(math.log(1e-3), math.log(2000.0)).map(math.exp),  # u rho
    t=st.floats(math.log(0.5), math.log(1e5)).map(math.exp),
)
@example(delta=4.303, rho=1.0, log_f=-0.03683, v=32.18, t=74910.0)
@example(delta=5.475, rho=1.0, log_f=0.04449, v=39.29, t=87470.0)
def test_oscillatory_sum_matches_a_fine_uniform_rule(delta, rho, log_f, v, t):
    # the sum over [0, x_cut] against 8,192 uniform panels over [0, pi], to
    # 1e-12 of the integrand's bound 2q/(1 - sqrt(q))**2 e^E(0); 64 uniform
    # panels over [0, pi] miss the narrow peak at x = 0 of long horizons,
    # by 6.1e-10 and 2.2e-10 of the bound at the examples (c below and above c*)
    p = ExpPair(delta, rho)
    u, c = v / rho, math.exp(log_f) * delta / rho
    q = delta / (c * rho)
    log_envelope = _log_envelope(p, u, c, t)
    assume(abs(q - 1.0) >= 0.03 and -600.0 < log_envelope <= 10.0)
    bound = 2.0 * q / (1.0 - math.sqrt(q)) ** 2 * math.exp(log_envelope)
    reference = _uniform_reference(p, u, c, t, 8192)
    assert abs(_oscillatory_integral(p, u, c, t) - reference) <= 1e-12 * bound


def test_a_long_horizon_oscillatory_cell_is_cheap():
    # unit pair, c = c*/2, u = 0.207 t, t = 1e6 (an envelope of exp(-44)): the
    # panels stay at most pi/292,743 wide, but the sum runs over [0, 7.7e-3]
    # in 715 of them, where all of [0, pi] took 0.85 s and a 412 MB peak
    _oscillatory_rule.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value = ruin_finite_exp(UNIT, 0.207e6, 0.5, 1e6)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0  # psi(u, infinity) = 1 below c*, less a term near e^-44
    assert elapsed < 0.1 and peak < 50e6, (elapsed, peak)


@pytest.mark.parametrize("u", [1e9, 1e15, 1e300])
def test_far_tail_returns_the_ultimate_term_without_building_a_rule(u):
    # the panel count grows as u rho sqrt(q): at u = 1e15 the rule would
    # need petabytes, at 1e300 more nodes than an array can hold
    assert _log_envelope(UNIT, u, 2.0, 10.0) < -746.0
    _oscillatory_rule.cache_clear()
    assert ruin_finite_exp(UNIT, u, 2.0, 10.0) == 0.0
    assert _oscillatory_rule.cache_info().misses == 0


@given(
    pair=st.sampled_from([UNIT, MODEL_I, ExpPair(5.0, 0.2)]),
    f=rate_factors,
    t=st.floats(0.5, 2000.0),
    log_envelope=st.floats(-1000.0, -746.0),
)
def test_far_tail_exit_equals_the_full_sum(pair, f, t, log_envelope):
    # place u where the envelope exponent is in [-1000, -746]: every term
    # of the sum underflows to 0.0, so the exit changes no bit
    c = f * pair.delta / pair.rho
    q = pair.delta / (c * pair.rho)
    assume(abs(q - 1.0) >= 0.03)
    decay = t * (math.sqrt(c * pair.rho) - math.sqrt(pair.delta)) ** 2
    u = (log_envelope + decay) / (pair.rho * (math.sqrt(q) - 1.0))
    assume(u > 0.0 and -1000.0 <= _log_envelope(pair, u, c, t) < -746.0)
    full = ruin_ultimate_exp(pair, u, c) - _oscillatory_oracle(pair, u, c, t)
    assert ruin_finite_exp(pair, u, c, t) == _clamp_probability(full, "oracle")


@given(
    pair=st.sampled_from([UNIT, MODEL_I]),
    u=st.floats(0.5, 400.0),
    f=rate_factors,
    t=st.floats(5.0, 2000.0),
)
@example(pair=MODEL_I, u=146.5, f=0.994 * 0.6 / 0.8, t=88.5)
@example(pair=UNIT, u=335.16702717850296, f=0.9125324152302732, t=1157.0019334212998)
@example(pair=MODEL_I, u=322.45516777502604, f=0.8210429457835469, t=881.4684935767486)
def test_oscillatory_and_seal_routes_agree(pair, u, f, t):
    # Both routes subtract O(1) terms.  Over 10,000 uniform draws of this
    # domain the largest gap was 5.3e-11 up to an envelope exponent of 10;
    # between 10 and 14, where Seal answers, the oscillatory sum's
    # cancellation costs up to 3.1e-9 (2.0e-9 at the last two examples), so
    # there the sum itself is held to Seal
    c = f * pair.delta / pair.rho
    assume(_in_oscillatory_domain(pair, u, c, t, max_log_envelope=14.0))
    if _log_envelope(pair, u, c, t) <= 10.0:
        got, bound = ruin_finite_exp(pair, u, c, t), 5e-10
    else:
        got, bound = ruin_ultimate_exp(pair, u, c) - _oscillatory_integral(pair, u, c, t), 5e-9
    assert abs(got - _ruin_finite_seal(pair, u, c, t)) <= bound


@given(
    delta=st.floats(0.1, 10.0),
    rho=st.floats(0.1, 10.0),
    f=rate_factors,
    v=st.floats(0.01, 2000.0),  # u rho
    t=st.floats(math.log(5.0), math.log(1e5)).map(math.exp),
)
@example(delta=5.1592, rho=2.1324, f=2.5635 * 2.1324 / 5.1592, v=3.640 * 2.1324, t=69486.7)
def test_seal_agrees_with_the_oscillatory_sum_at_long_horizons(delta, rho, f, v, t):
    # Seal's graded rule against the oscillatory sum wherever the sum is
    # accurate, out to t = 1e5; a uniform middle of 32 panels misses the
    # example by 1.06e-4
    p = ExpPair(delta, rho)
    u, c = v / rho, f * delta / rho
    assume(_in_oscillatory_domain(p, u, c, t))
    osc = ruin_ultimate_exp(p, u, c) - _oscillatory_integral(p, u, c, t)
    assert abs(_ruin_finite_seal(p, u, c, t) - _clamp_probability(osc, "oscillatory")) <= 5e-10


def test_seal_route_at_a_long_horizon():
    # near c*, where Seal answers alone: 128-panel end layers and a middle
    # ratio of 1.07, and an adaptive quad of the same integral, give
    # 0.99225180752516 to within 4e-15; a uniform middle of 32 panels gives 0.99221632
    p = ExpPair(2.2535, 1.6053)
    assert ruin_finite_exp(p, 0.1484, 1.4126, 89426.7) == pytest.approx(0.99225180752516, abs=1e-12)


def test_finite_ruin_at_c_star_follows_the_inverse_square_root_law():
    # at c = c* the survival probability falls as t**-0.5 (the reflection
    # principle), so a hundredfold horizon divides it by ten; with a uniform
    # middle of 32 panels psi(3, 1, t) falls past t = 1e7 and this reads 3.07
    survival = [1.0 - ruin_finite_exp(UNIT, 3.0, 1.0, t) for t in (1e5, 1e7)]
    assert survival[0] / survival[1] == pytest.approx(10.0, rel=0.01)


def _survival_zero_oracle(p: ExpPair, c: float, tau):
    # Takacs' formula as the plain two-call sum P{N <= K} - q P{K >= N + 2}
    lam, mu = 2.0 * p.delta * tau, 2.0 * p.rho * c * tau
    q = p.delta / (c * p.rho)
    return 1.0 - sp.chndtr(lam, 2.0, mu) - q * sp.chndtr(mu, 4.0, lam)


def _survival_zero_50_digits(p: ExpPair, c: float, tau: float) -> float:
    # sum over n of P{N = n} (P{K >= n} - q P{K >= n + 2}) in 50-digit
    # arithmetic, with N ~ Poisson(delta tau), K ~ Poisson(rho c tau), until
    # P{N = n} is far below 1e-40
    with mpmath.workdps(50):
        delta, rho, c_, tau_ = map(mpmath.mpf, (p.delta, p.rho, c, tau))
        b, a, q = delta * tau_, rho * c_ * tau_, delta / (c_ * rho)
        n_max = int(b + 15 * mpmath.sqrt(b) + 100)
        tail, pk = [mpmath.mpf(1)], mpmath.exp(-a)
        for k in range(n_max + 2):
            tail.append(tail[-1] - pk)
            pk *= a / (k + 1)
        pn, total = mpmath.exp(-b), mpmath.mpf(0)
        for n in range(n_max + 1):
            total += pn * (tail[n] - q * tail[n + 2])
            pn *= b / (n + 1)
        return float(total)


@given(
    pair=st.sampled_from([UNIT, MODEL_I, ExpPair(5.0, 0.2)]),
    log_q=st.floats(-3.0, 6.0),
    taus=st.lists(st.floats(math.log(1e-2), math.log(2e3)).map(math.exp), min_size=1, max_size=8),
)
def test_survival_zero_equals_the_two_call_oracle(pair, log_q, taus):
    # q log-uniform over [1e-3, 1e6] crosses all three regimes of the kernel
    c = pair.delta / (10.0**log_q * pair.rho)
    got = _survival_zero(pair, c, np.array(taus))
    assert np.max(np.abs(got - _survival_zero_oracle(pair, c, np.array(taus)))) <= 1e-13
    # the u = 0 dispatch calls it on one float: the same bits as the array
    assert float(_survival_zero(pair, c, taus[0])) == got[0]


@pytest.mark.parametrize(
    "q", [1e-3, 0.5, 1.0, 2.0, pytest.param(0.999 * _TAKACS_MAX_Q, id="Q"), 1e6]
)
@pytest.mark.parametrize("pair", [UNIT, ExpPair(5.0, 0.2)], ids=["unit", "5_0.2"])
def test_survival_zero_against_50_digits(pair, q):
    # just below _TAKACS_MAX_Q the one-call form for q > 1 loses the most
    c = pair.delta / (q * pair.rho)
    taus = [0.01, 0.3, 4.0, 60.0, 700.0]
    got = _survival_zero(pair, c, np.array(taus))
    for tau, value in zip(taus, got):
        assert abs(value - _survival_zero_50_digits(pair, c, tau)) <= 1e-13


@pytest.mark.parametrize(
    "q,df", [(0.5, 4.0), (1.0, 4.0), (2.0, 2.0), (50.0, 2.0), (1e3, 4.0)]
)
def test_a_seal_rule_build_makes_one_chi_square_call(monkeypatch, q, df):
    # the one call's noncentrality is the smaller of lam and mu (4 degrees of
    # freedom take lam, 2 take mu), except above _TAKACS_MAX_Q
    calls = []
    real = exact._ncx2_cdf
    monkeypatch.setattr(exact, "_ncx2_cdf", lambda *args: calls.append(args) or real(*args))
    _seal_rule.cache_clear()
    _seal_rule(1.0, 1.0, 1.0 / q, 200.0)
    assert [args[1] for args in calls] == [df]


def test_a_seal_evaluation_on_a_built_rule_checks_no_array(monkeypatch):
    # the density's one i1e call and the terminal term's one chndtr call, on
    # the rule's arrays: no i0e or chndtr per node and no array check again
    _seal_rule(1.0, 1.0, 1.0, 200.0)
    special, calls = exact._scipy_special(), []

    def counted(name):
        return lambda *args: calls.append(name) or getattr(special, name)(*args)

    names = ("i0e", "i1e", "chndtr")
    monkeypatch.setattr(exact, "_scipy_special", lambda: SimpleNamespace(**{n: counted(n) for n in names}))
    monkeypatch.setattr(exact, "check_real_array", lambda *args, **kw: calls.append("check"))
    ruin_finite_exp(UNIT, 30.0, 1.0, 200.0)
    assert sorted(calls) == ["chndtr", "i1e"]


def _seal_oracle(p: ExpPair, u: float, c: float, t: float) -> float:
    # Seal's sum through the public density and distribution function, each
    # checking its arguments, on the same rule
    rule = _seal_rule(p.delta, p.rho, c, t)
    corr = float(rule.w @ (aggregate_pdf_exp(p, rule.s, u + c * rule.s) * rule.phi0))
    phi = aggregate_cdf_exp(p, t, u + c * t) - c * corr
    return _clamp_probability(1.0 - phi, "oracle")


@given(
    delta=st.floats(0.1, 10.0),
    rho=st.floats(0.1, 10.0),
    # Seal's band within 3% of c*, or a rate below it whose envelope passes exp(10)
    f_envelope=st.one_of(
        st.tuples(st.floats(0.97, 1.03), st.just(None)),
        st.tuples(st.floats(0.25, 0.97), st.floats(10.0, 300.0)),
    ),
    v=st.floats(1e-3, 2000.0),  # u rho, in the band
    t=st.floats(0.0, math.log(1e4)).map(math.exp),
)
def test_seal_equals_the_public_density_and_distribution_function_bit_for_bit(
    delta, rho, f_envelope, v, t
):
    p = ExpPair(delta, rho)
    f, log_envelope = f_envelope
    c, u = f * delta / rho, v / rho
    if log_envelope is not None:  # u where the oscillatory envelope is exp(log_envelope)
        decay = t * (math.sqrt(c * rho) - math.sqrt(delta)) ** 2
        u = (log_envelope + decay) / (rho * (math.sqrt(delta / (c * rho)) - 1.0))
    assume(u > 0.0 and (abs(f - 1.0) < 0.03 or _log_envelope(p, u, c, t) > _OSC_MAX_LOG_ENVELOPE))
    want = _seal_oracle(p, u, c, t)
    assert _ruin_finite_seal(p, u, c, t) == want
    assert ruin_finite_exp(p, u, c, t) == want


@pytest.mark.parametrize("field,k,value", [(2, 5, math.nan), (3, 7, -math.inf), (4, 0, math.nan)],
                         ids=["drift_nan", "decay_minus_inf", "coef_nan"])
def test_a_nan_or_inf_in_an_oscillatory_rule_is_an_integration_error(monkeypatch, field, k, value):
    # the sum is checked once: any NaN or infinite term makes it not finite
    rule = [a.copy() for a in _oscillatory_rule(1.0, 1.0, 1.5, 200.0, 64)]
    rule[field][k] = value
    monkeypatch.setattr(exact, "_oscillatory_rule", lambda *args: tuple(rule))
    with pytest.raises(IntegrationError):
        _oscillatory_integral(UNIT, 10.0, 1.5, 200.0)


def test_a_seal_cell_whose_u_plus_ct_overflows_is_a_domain_error():
    # c = c* = 1e300: u + c t passes the float range, though u, c and t are finite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError):
            ruin_finite_exp(ExpPair(1.0, 1e-300), 1.7976931348623157e308, 1e300, 1e-7)


@pytest.mark.parametrize("u", [0.0, 3.0])
@pytest.mark.parametrize(
    "pair,c,t,want",
    [
        (ExpPair(1e-300, 1.0), 1.0, 1e-30, 0.0),  # lam underflows to 0, so z = 0
        (ExpPair(1.0, 1e-300), 1.0, 1e-30, 0.0),  # mu underflows to 0
        (ExpPair(5e-324, 1.0), 1.0, 3.0, 0.0),  # lam subnormal: chndtr errs by 7e-2
        (UNIT, 1.0, 1e11, IntegrationError),  # chndtr gives NaN
        # q = inf, and the envelope inf - inf: no oscillatory panel count
        (ExpPair(1.7e308, 5e-324), 1.0, 2.0, IntegrationError),
    ],
    ids=["lam_underflows", "mu_underflows", "lam_subnormal", "chndtr_nan", "q_overflows"],
)
def test_survival_zero_is_finite_or_a_typed_error(pair, c, t, want, u):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clamp of a wrong phi(0, .) warns
        if want is IntegrationError:
            with pytest.raises(IntegrationError):
                ruin_finite_exp(pair, u, c, t)
            return
        assert ruin_finite_exp(pair, u, c, t) == pytest.approx(want, abs=1e-15)
        phi0 = _seal_rule(pair.delta, pair.rho, c, t).phi0
    assert np.all((phi0 >= 0.0) & (phi0 <= 1.0 + 1e-15))


@pytest.mark.parametrize("t", [1e11, 1e12, 1e13])
def test_a_seal_rule_past_the_chi_square_range_fails_on_one_node(monkeypatch, t):
    # near its NaN range chndtr takes milliseconds an element, so the rule
    # evaluates its largest tau alone first and raises before the full call
    sizes = []
    real = exact._ncx2_cdf
    monkeypatch.setattr(exact, "_ncx2_cdf", lambda x, *a: sizes.append(np.size(x)) or real(x, *a))
    _seal_rule.cache_clear()
    with pytest.raises(IntegrationError):
        ruin_finite_exp(UNIT, 3.0, 1.0, t)
    assert sizes == [1]


@pytest.mark.parametrize(
    "pair,t,expected",
    [(UNIT, 5e-324, 0.0), (UNIT, 1e-320, 0.0), (ExpPair(1e300, 1e300), 1e300, None)],
    ids=["t_over_3_underflows", "nodes_round_to_0", "t_over_2a_overflows"],
)
def test_a_seal_rule_at_an_extreme_horizon_is_a_typed_error(pair, t, expected):
    # the rule counts its middle panels as log2(t / 2a), with a =
    # min(t/3, 64/max(delta, c rho)): a may underflow to 0 and t / 2a may
    # overflow, so the count is taken in logs.  Below t of about 1e-320 nodes
    # s round to 0, where the aggregate density f_V(., s) is 0; ruin needs a
    # claim by t, whose probability, about delta t, is 0.0 in doubles there
    # (expected None: a RuinCapitalError)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        if expected is None:
            with pytest.raises(RuinCapitalError):
                ruin_finite_exp(pair, 3.0, pair.delta / pair.rho, t)
        else:
            assert ruin_finite_exp(pair, 3.0, pair.delta / pair.rho, t) == expected


def test_survival_zero_overflow_is_a_typed_error():
    # mu = 2 rho c tau overflows to inf, and the Skellam masses to inf * 0
    with pytest.raises(IntegrationError):
        ruin_finite_exp(ExpPair(1.0, 1.7e308), 0.0, 1.0, 2.0)


def test_aggregate_cdf_at_a_subnormal_claim_total():
    # 2 rho x subnormal: the atom e^{-delta t}, not chndtr's error there
    assert aggregate_cdf_exp(UNIT, 3.0, 1.5e-323) == pytest.approx(math.exp(-3.0), abs=1e-15)


@given(
    delta=st.floats(0.1, 10.0),
    rho=st.floats(0.1, 10.0),
    # c/c*, with the band |q - 1| < 0.03 where Seal answers drawn on its own
    f=st.one_of(rate_factors, st.floats(0.97, 1.03)),
    v=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),  # u rho
    s=st.floats(0.5, 2000.0),  # t delta
    step=st.one_of(st.floats(1e-6, 1e-3), st.floats(0.0, 0.5)),
)
def test_finite_ruin_is_monotone_in_capital_rate_and_horizon(delta, rho, f, v, s, step):
    # psi(u, t) falls as u or c grows and rises with t.  Both routes are
    # accurate to the bounds of test_oscillatory_and_seal_routes_agree, and
    # a step may cross from one route to the other
    p = ExpPair(delta, rho)
    u, c, t = v / rho, f * delta / rho, s / delta
    base = ruin_finite_exp(p, u, c, t)
    for (u2, c2, t2), sign in [
        ((u * (1.0 + step) + step / rho, c, t), 1.0),
        ((u, c * (1.0 + step), t), 1.0),
        ((u, c, t * (1.0 + step)), -1.0),
    ]:
        worst = max(_log_envelope(p, u, c, t), _log_envelope(p, u2, c2, t2))
        bound = 5e-10 if worst <= 10.0 else 5e-9
        assert sign * (ruin_finite_exp(p, u2, c2, t2) - base) <= bound
