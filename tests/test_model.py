import dataclasses
import json
import math
import re
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from ruincapital.approx import var_clt
from ruincapital.cli import main
from ruincapital.dist import Erlang, Exponential, Kummer, MixtureExp2, Pareto
from ruincapital.errors import ConstantsUnavailableError, DomainError, MomentRangeError
from ruincapital.model import (
    RiskModel,
    _constants,
    c_grid_range,
    derived_constants,
    theorem_preconditions,
)
from ruincapital.presets import TABLE1_MODELS
from ruincapital.table import CurveTable


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


# laws of every family with a moment outside the float range; in the first
# four only the third moment is, so their models keep their constants
THIRD_ONLY = [
    Exponential(1e-110),
    Exponential(1e103),
    Erlang(1e-110, 2),
    MixtureExp2(1e-110, 1.0, 0.5),
]
OUT_OF_RANGE = [
    *THIRD_ONLY,
    Pareto(4.0, 1e-200),
    Pareto(4.0, 1e200),
    Kummer(1e-300, 7.0),
    Kummer(5.0, 1e300),
]


@pytest.mark.parametrize("law", OUT_OF_RANGE, ids=repr)
def test_moments_past_the_float_range_are_typed_errors_naming_the_law(law, tmp_path, capsys):
    name = re.escape(repr(law))
    with pytest.raises(MomentRangeError, match=name):
        law.moments()
    unit = Exponential(1.0)
    for m, side in ((RiskModel(law, unit), "T law"), (RiskModel(unit, law), "Y law")):
        if law in THIRD_ONLY:  # the constants read the means and variances alone
            assert all(map(math.isfinite, vars(derived_constants(m)).values()))
        else:
            with pytest.raises(ConstantsUnavailableError, match=f"{side}: {name}"):
                derived_constants(m)
        with pytest.raises(MomentRangeError, match=name):
            theorem_preconditions(m)
    # the command line: one stderr line and exit 4, or NA cells that give the reason
    cfg, out = tmp_path / "model.json", tmp_path / "cap.csv"
    y_law = {"family": law.family, **dataclasses.asdict(law)}
    cfg.write_text(json.dumps({"model": {"t_law": {"family": "exponential", "rate": 1.0},
                                         "y_law": y_law}}))
    capsys.readouterr()
    if law in THIRD_ONLY:
        assert main(["constants", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
    else:
        assert main(["constants", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err == f"model incompatibility: Y law: {law!r} has a moment outside the float range\n"
    grid = ["--c-start", "1", "--c-stop", "1.5", "--c-step", "0.5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["capital", "--config", str(cfg), "--method", "ig", *grid, "--out", str(out)]) == 0
    assert caught == []
    table = CurveTable.read_csv(out)
    cells, reasons = table.column("nonruin_ig"), table.metadata["warnings"]
    if law in THIRD_ONLY:  # the IG solve runs on extreme constants: finite, or NA with its reason
        assert all(v is None or math.isfinite(v) for v in cells)
        assert len(reasons) == cells.count(None)
    else:
        assert cells == [None, None]
        assert [repr(law) in w for w in reasons] == [True, True]
    assert capsys.readouterr().err == ""


def test_a_third_moment_past_the_float_range_leaves_the_constants():
    # the claims' third moment, 6/b^3 over (a-1)(a-2)(a-3), is about 2e309
    m = RiskModel(Exponential(1.0), Pareto(4.0, 1e-103))
    k = derived_constants(m)
    assert (k.c_star, k.d2_big, k.d2_v) == pytest.approx((1e103 / 3, 9e-103, 1e206 / 3), rel=1e-12)
    with pytest.raises(MomentRangeError, match="Pareto"):
        theorem_preconditions(m)


def _sweep_law(rng):
    # a law of one of four families, its rates and scales log-uniform on 1e+-115
    def p():
        return float(10.0 ** rng.uniform(-115.0, 115.0))

    family = rng.integers(4)
    if family == 0:
        return Exponential(p())
    if family == 1:
        return Erlang(p(), int(rng.integers(1, 5)))
    if family == 2:
        return MixtureExp2(p(), p(), float(rng.uniform(0.05, 0.95)))
    return Pareto(float(rng.uniform(2.2, 6.0)), p())


def _exact_mean_variance(law):
    # 60-digit mean and variance from each family's closed form
    mp = mpmath.mpf
    if isinstance(law, (Exponential, Erlang)):
        k, r = mp(getattr(law, "shape", 1)), mp(law.rate)
        return k / r, k / r**2
    if isinstance(law, MixtureExp2):
        w, r1, r2 = mp(law.weight), mp(law.rate1), mp(law.rate2)
        m1 = w / r1 + (1 - w) / r2
        return m1, 2 * w / r1**2 + 2 * (1 - w) / r2**2 - m1**2
    a, b = mp(law.shape), mp(law.scale)
    m1 = 1 / (b * (a - 1))
    return m1, 2 / (b**2 * (a - 1) * (a - 2)) - m1**2


def test_the_constants_need_only_means_and_variances_in_range():
    # 3,000 models whose means and variances all lie in the float range (rates
    # and scales within 1e+-115), many with a third moment past it: none is
    # refused for a moment, and a constant is refused only where its exact
    # value lies outside the normal float range.  Where a law's moments() is
    # finite, the constants read the same mean and variance, bit for bit
    rng = np.random.default_rng(115)
    normal = (sys.float_info.min, sys.float_info.max)
    with mpmath.workdps(60):
        for _ in range(3000):
            m = RiskModel(_sweep_law(rng), _sweep_law(rng))
            for law in (m.t_law, m.y_law):
                try:
                    full = law.moments()
                except MomentRangeError:
                    continue
                assert law._mean_variance() == (full.mean, full.variance), law
            try:
                derived_constants(m)
            except ConstantsUnavailableError as exc:
                (et, dt), (ey, dy) = map(_exact_mean_variance, (m.t_law, m.y_law))
                num = et**2 * dy + ey**2 * dt
                exact = (ey / et, et / ey, num / ey**3, num / et**3, 1 / et, dt / et**3)
                assert not all(normal[0] <= v <= normal[1] for v in exact), exc


def test_spreads_stay_finite_where_the_plain_sums_overflow():
    # et^2 DY + ey^2 DT is about 2e404 here, though D^2 and D_V^2 are in range
    m = RiskModel(Exponential(1e-100), Exponential(1e-102))
    k = derived_constants(m)
    assert k.d2_big == pytest.approx(2e98, rel=1e-12)
    assert k.d2_v == pytest.approx(2e104, rel=1e-12)
    assert k.d2_n == pytest.approx(1e-100, rel=1e-12)
    assert math.isfinite(var_clt(m, 0.05, 1.0, 0.0))


def test_a_power_of_two_scale_keeps_the_bits_of_the_plain_formulas():
    for _, m in TABLE1_MODELS:
        mt, my = m.t_law.moments(), m.y_law.moments()
        moments = (mt.mean, mt.variance, my.mean, my.variance)
        plain = _constants(*moments, 0)
        assert plain == derived_constants(m)
        for k in (-60, -1, 3, 90):
            assert _constants(*moments, k) == plain, k


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
