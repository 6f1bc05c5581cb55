import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from ruincapital.dist import (
    Distribution,
    Erlang,
    Exponential,
    Kummer,
    MixtureExp2,
    Pareto,
    cdf,
    distribution_from_config,
    mgf,
    pdf,
    sample,
)
from ruincapital.errors import DomainError, MomentUndefinedError, UnsupportedDistributionError

# the Kummer family is moments-only and is covered separately
DENSITY_LAWS = [
    Exponential(0.8),
    Erlang(1.6, 2),
    MixtureExp2(1.0, 2.0, 2.0 / 3.0),
    Pareto(4.0, 0.35),
]
# one law of each family
LAWS = DENSITY_LAWS + [Kummer(5.0, 7.0)]


@pytest.mark.parametrize("d", DENSITY_LAWS, ids=lambda d: type(d).__name__)
def test_pdf_integrates_to_one(d):
    val, err = integrate.quad(lambda x: pdf(d, x), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=max(1e-9, 10 * err))


@pytest.mark.parametrize("d", DENSITY_LAWS, ids=lambda d: type(d).__name__)
def test_cdf_is_integral_of_pdf(d):
    for x in (0.3, 1.0, 4.0):
        val, _ = integrate.quad(lambda s: pdf(d, s), 0.0, x, limit=200)
        assert cdf(d, x) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("d", DENSITY_LAWS, ids=lambda d: type(d).__name__)
def test_moments_match_quadrature(d):
    m = d.moments()
    m1, _ = integrate.quad(lambda x: x * pdf(d, x), 0.0, np.inf, limit=400)
    m2, _ = integrate.quad(lambda x: x * x * pdf(d, x), 0.0, np.inf, limit=400)
    assert m.mean == pytest.approx(m1, rel=1e-7)
    assert m.variance == pytest.approx(m2 - m1 * m1, rel=1e-6)


def test_third_moment_flags():
    assert Pareto(3.0, 0.3).moments().third_moment is None
    assert Pareto(2.5, 0.35).moments().third_moment is None
    assert Pareto(4.0, 0.35).moments().third_moment is not None
    assert Kummer(5.0, 7.0).moments().third_moment is not None
    assert Kummer(5.0, 5.0).moments().third_moment is None


def test_undefined_low_moments_raise():
    with pytest.raises(MomentUndefinedError):
        Pareto(1.5, 1.0).moments()
    with pytest.raises(MomentUndefinedError):
        Kummer(5.0, 3.0).moments()


@pytest.mark.parametrize("d", DENSITY_LAWS, ids=lambda d: type(d).__name__)
def test_sample_mean_and_variance(d):
    rng = np.random.Generator(np.random.Philox(key=42))
    x = sample(d, rng, 200_000)
    m = d.moments()
    assert np.all(x > 0.0)
    assert float(np.mean(x)) == pytest.approx(m.mean, abs=5.0 * math.sqrt(m.variance / x.size))
    assert float(np.var(x)) == pytest.approx(m.variance, rel=0.05)


def test_sample_scalar_form():
    rng = np.random.Generator(np.random.Philox(key=0))
    v = sample(Exponential(1.0), rng)
    assert np.isscalar(v) or np.ndim(v) == 0


def test_erlang_float_shape_samples_as_int():
    # an integral float shape is stored as an int, so it draws the same stream
    draws = [sample(law, np.random.Generator(np.random.Philox(key=3)), 100)
             for law in (Erlang(1.6, 2.0), Erlang(1.6, 2))]
    assert type(Erlang(1.6, 2.0).shape) is int
    assert np.array_equal(draws[0], draws[1])


def test_erlang_draw_sums_one_row_at_a_time():
    # the same stream and the same sums as drawing a (shape, n) block; at
    # n = 1 numpy sums a block of 9 or more rows in a different order, so
    # that case may differ in the last bit
    for k in range(1, 10):
        for n in (0, 2, 7, 4001):
            block = np.random.Generator(np.random.Philox(key=k)).random((k, n))
            old = -np.log1p(-block).sum(axis=0) / 1.6
            new = sample(Erlang(1.6, k), np.random.Generator(np.random.Philox(key=k)), n)
            assert np.array_equal(new, old)
    # and memory stays O(n) for any shape
    rng = np.random.Generator(np.random.Philox(key=0))
    tracemalloc.start()
    try:
        sample(Erlang(1.0, 20_000), rng, 100)
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def _textbook_draws(law, rng, n):
    """Each sampler's stream, written as the plain expression of its inversion."""
    if isinstance(law, Exponential):
        return -np.log1p(-rng.random(n)) / law.rate
    if isinstance(law, MixtureExp2):
        branch = rng.random(n) < law.weight  # the branch uniforms come first
        u = rng.random(n)
        return -np.log1p(-u) / np.where(branch, law.rate1, law.rate2)
    u = rng.random(n)
    return ((1.0 - u) ** (-1.0 / law.shape) - 1.0) / law.scale


@pytest.mark.parametrize(
    "law",
    [
        Exponential(0.8),
        Exponential(3.0),
        MixtureExp2(1.0, 2.0, 2.0 / 3.0),
        MixtureExp2(0.3, 7.0, 0.1),
        Pareto(4.0, 0.35),
        Pareto(1.0, 2.0),  # an exponent of exactly -1
        Pareto(2.0, 1.0),
    ],
    ids=str,
)
def test_sampler_streams_are_the_textbook_expressions(law):
    for n in (0, 1, 4001):
        for key in (0, 9):
            rng_a, rng_b = (np.random.Generator(np.random.Philox(key=key)) for _ in "ab")
            textbook = _textbook_draws(law, rng_a, n)
            drawn = sample(law, rng_b, n)
            assert drawn.shape == (n,)
            assert np.array_equal(drawn, textbook)
            assert rng_a.random() == rng_b.random()  # and the same uniforms used


def test_mixture_sample_matches_cdf():
    d = MixtureExp2(1.0, 2.0, 2.0 / 3.0)
    rng = np.random.Generator(np.random.Philox(key=7))
    x = sample(d, rng, 100_000)
    for q in (0.5, 1.0, 2.0):
        emp = float(np.mean(x <= q))
        assert emp == pytest.approx(cdf(d, q), abs=0.006)


def test_mgf_light_tailed():
    d = Exponential(2.0)
    assert d.mgf_abscissa == pytest.approx(2.0)
    assert mgf(d, 1.0) == pytest.approx(2.0)
    e = Erlang(3.0, 2)
    assert mgf(e, 1.0) == pytest.approx((3.0 / 2.0) ** 2)
    mix = MixtureExp2(1.0, 2.0, 0.25)
    assert mix.mgf_abscissa == pytest.approx(1.0)
    assert mgf(mix, 0.5) == pytest.approx(0.25 * 2.0 + 0.75 * (2.0 / 1.5))
    # a non-finite or non-numeric argument is a typed error, not an infinite or zero mgf
    for law in (d, e, mix):
        for r in (math.nan, math.inf, -math.inf, "x", None):
            with pytest.raises(DomainError):
                mgf(law, r)


def test_heavy_tail_flags():
    assert Pareto(4.0, 0.4).mgf_abscissa == 0.0
    assert Kummer(5.0, 5.0).mgf_abscissa == 0.0
    assert Exponential(1.0).mgf_abscissa > 0.0
    assert Erlang(1.0, 3).mgf_abscissa > 0.0
    assert MixtureExp2(1.0, 2.0, 0.5).mgf_abscissa > 0.0


def test_heavy_tail_mgf_diverges():
    assert mgf(Pareto(4.0, 0.4), 0.1) == math.inf
    assert mgf(Kummer(5.0, 5.0), 0.1) == math.inf
    assert mgf(Exponential(1.0), 1.5) == math.inf
    with pytest.raises(DomainError):
        mgf(Pareto(4.0, 0.4), math.nan)
    # below the abscissa the heavy-tailed Pareto mgf is a finite quadrature
    assert 0.0 < mgf(Pareto(4.0, 0.4), -0.5) < 1.0


def test_kummer_is_moments_only():
    d = Kummer(5.0, 7.0)
    rng = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(UnsupportedDistributionError):
        pdf(d, 1.0)
    with pytest.raises(UnsupportedDistributionError):
        cdf(d, 1.0)
    with pytest.raises(UnsupportedDistributionError):
        sample(d, rng, 10)
    with pytest.raises(UnsupportedDistributionError):
        mgf(d, -0.5)
    # gamma-ratio moments: E X^j = (l/k)^j Gamma(k/2+j) Gamma(l/2-j) /
    # (Gamma(k/2) Gamma(l/2)), here k=5, l=7
    m = d.moments()
    assert m.mean == pytest.approx(7.0 / 5.0, rel=1e-12)
    assert m.variance == pytest.approx(
        (7.0 / 5.0) ** 2 * (3.5 / 1.5) - m.mean**2, rel=1e-12
    )


def test_bounded_density_flags():
    assert Exponential(1.0).bounded_density
    assert Pareto(4.0, 0.4).bounded_density
    # the Kummer density behaves like x^{k/2-1} near 0
    assert Kummer(2.0, 5.0).bounded_density
    assert not Kummer(1.9, 5.0).bounded_density


def test_config_round_trip():
    # every family is built from its name and its fields
    assert {type(law) for law in LAWS} == set(Distribution.__subclasses__())
    for law in LAWS:
        assert distribution_from_config({"family": law.family, **dataclasses.asdict(law)}) == law
    for family in ("cauchy", ["exponential"]):
        with pytest.raises(DomainError):
            distribution_from_config({"family": family})
    with pytest.raises(DomainError):
        distribution_from_config({"family": "exponential"})
    for bad in ({"family": "exponential", "rate": "one"},
                {"family": "pareto", "shape": None, "scale": 0.4},
                {"family": "erlang", "rate": 1.6, "shape": 2.5}):
        with pytest.raises(DomainError):
            distribution_from_config(bad)
    with pytest.raises(DomainError):
        Exponential(math.inf)
    with pytest.raises(DomainError):
        Erlang(1.0, math.inf)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Exponential("1"),
        lambda: Erlang(1.0, "2"),
        lambda: MixtureExp2(1.0, None, 0.5),
        lambda: Pareto(4.0, [0.35]),
        lambda: Kummer(5.0, 1j),
        # real but outside the family's own constraints
        lambda: Erlang(1.0, 0.5),
        lambda: MixtureExp2(1.0, 2.0, 1.0),
    ],
    ids=["Exponential", "Erlang", "MixtureExp2", "Pareto", "Kummer", "erlang_shape", "weight"],
)
def test_bad_parameters_are_domain_errors(make):
    with pytest.raises(DomainError):
        make()


def test_valid_laws_unchanged_by_parameter_check():
    # an int and a float parameter give equal laws that hash alike and draw alike
    for a, b in ((Exponential(2), Exponential(2.0)), (Pareto(4, 1), Pareto(4.0, 1.0)),
                 (MixtureExp2(1, 2, 0.5), MixtureExp2(1.0, 2.0, 0.5))):
        assert a == b and hash(a) == hash(b)
        draws = [sample(law, np.random.Generator(np.random.Philox(key=5)), 50) for law in (a, b)]
        assert np.array_equal(draws[0], draws[1])


def test_sample_size_must_be_a_nonnegative_integer():
    law = Exponential(1.0)
    for size in (-1, 2.5, math.nan, math.inf, "3"):
        with pytest.raises(DomainError):
            sample(law, np.random.Generator(np.random.Philox(key=1)), size)
    # an integral float size draws the same variates as the int
    draws = [sample(law, np.random.Generator(np.random.Philox(key=1)), size)
             for size in (4000, 4000.0)]
    assert draws[0].shape == (4000,)
    assert np.array_equal(draws[0], draws[1])
    assert sample(law, np.random.Generator(np.random.Philox(key=1)), 0).shape == (0,)
