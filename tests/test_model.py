import dataclasses
import tracemalloc

import pytest

from ruincapital.dist import Erlang, Exponential, Kummer, MixtureExp2, Pareto
from ruincapital.errors import ConstantsUnavailableError, DomainError
from ruincapital.model import (
    RiskModel,
    c_grid_range,
    derived_constants,
    theorem_preconditions,
)


def test_unit_exponential_pair():
    k = derived_constants(RiskModel(Exponential(1.0), Exponential(1.0)))
    assert k.c_star == pytest.approx(1.0)
    assert k.m_big == pytest.approx(1.0)
    assert k.d2_big == pytest.approx(2.0)
    assert k.m_v == pytest.approx(1.0)
    assert k.d2_v == pytest.approx(2.0)
    assert k.m_n == pytest.approx(1.0)
    assert k.d2_n == pytest.approx(1.0)
    assert k.capital_scale == pytest.approx(2.0**0.5)


def test_exponential_pair_general_rates():
    # T ~ Exp(4/5), Y ~ Exp(3/5): ET=5/4, EY=5/3
    k = derived_constants(RiskModel(Exponential(0.8), Exponential(0.6)))
    assert k.c_star == pytest.approx(4.0 / 3.0)
    assert k.m_big == pytest.approx(0.75)
    assert k.d2_big == pytest.approx(1.875)
    # D_V^2 shares the numerator of D^2 with (ET)^3 in place of (EY)^3
    assert k.d2_v == pytest.approx(k.d2_big * (5.0 / 3.0) ** 3 / (5.0 / 4.0) ** 3)


def test_erlang_arrivals():
    # T ~ Erlang(8/5, 2) has the same mean as Exp(4/5) but half the relative
    # variance, which shrinks D^2 from 1.875 to 1.40625
    k = derived_constants(RiskModel(Erlang(1.6, 2), Exponential(0.6)))
    assert k.c_star == pytest.approx(4.0 / 3.0)
    assert k.m_big == pytest.approx(0.75)
    assert k.d2_big == pytest.approx(1.40625)


def test_heavy_tailed_claims_constants():
    k = derived_constants(
        RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
    )
    # ET = 2/3 + 1/6 = 5/6, EY = 1/(0.35*3)
    assert k.c_star == pytest.approx((1.0 / 1.05) / (5.0 / 6.0))
    assert k.m_big == pytest.approx((5.0 / 6.0) * 1.05)


def test_missing_variance_raises():
    with pytest.raises(ConstantsUnavailableError):
        derived_constants(RiskModel(Exponential(1.0), Pareto(1.5, 1.0)))
    with pytest.raises(ConstantsUnavailableError):
        derived_constants(RiskModel(Pareto(2.0, 1.0), Exponential(1.0)))


def test_preconditions_light_tailed():
    rep = theorem_preconditions(RiskModel(Exponential(1.0), Exponential(1.0)))
    assert rep.capital_asymptotics_ok
    # one name per fact: five flags and the one property approx and presets read
    assert [f.name for f in dataclasses.fields(rep)] == [
        "bounded_density_t", "bounded_density_y", "third_moment_t_finite",
        "third_moment_y_finite", "d2_positive",
    ]
    for gone in ("inverse_gaussian_ok", "cramer_ok", "light_tailed_y"):
        assert not hasattr(rep, gone)


def test_preconditions_heavy_tailed():
    rep = theorem_preconditions(
        RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
    )
    # heavy-tailed claims, but the third Y moment exists (shape 4 > 3), so
    # the hypotheses of the capital asymptotics hold
    assert rep.third_moment_y_finite
    assert rep.capital_asymptotics_ok


def test_preconditions_missing_third_moment():
    rep = theorem_preconditions(RiskModel(Exponential(0.8), Pareto(3.0, 0.3)))
    assert not rep.third_moment_y_finite
    assert not rep.capital_asymptotics_ok


def test_exponential_pair_flag():
    assert RiskModel(Exponential(1.0), Exponential(2.0)).is_exponential_pair()
    assert not RiskModel(Erlang(1.0, 2), Exponential(2.0)).is_exponential_pair()


def test_laws_must_be_distributions():
    for t_law, y_law in (("x", Exponential(1.0)), (Exponential(1.0), {"family": "exponential"})):
        with pytest.raises(DomainError):
            RiskModel(t_law, y_law)


def test_kummer_constants_available():
    # moments exist for l > 4 even though the density is not implemented
    k = derived_constants(RiskModel(Exponential(0.8), Kummer(5.0, 5.0)))
    assert k.c_star > 0.0


def test_c_grid_range_names_its_decimals():
    grid = c_grid_range(0.0, 2.5, 0.05)
    assert len(grid) == 51 and grid[-1] == 2.5
    assert grid[3] == 0.15 and grid[6] == 0.3 and grid[14] == 0.7
    assert c_grid_range(1.0, 1.0, 0.5) == [1.0]
    for bad in ((0.0, 1.0, 0.0), (1.0, 0.5, 0.1), (float("nan"), 1.0, 0.1),
                (0.0, float("inf"), 0.1)):
        with pytest.raises(DomainError):
            c_grid_range(*bad)


def test_c_grid_range_rejects_a_grid_of_too_many_rates():
    tracemalloc.start()
    try:
        for bad in ((0.0, 1e300, 1e-300), (0.0, 1e7, 1.0)):
            with pytest.raises(DomainError, match="more than 1000000 rates"):
                c_grid_range(*bad)
        # rejected before the list is built
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()
    assert len(c_grid_range(0.0, 999_999.0, 1.0)) == 10**6
