import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ruincapital import dist
from ruincapital.dist import Erlang, Exponential, MixtureExp2, Pareto
from ruincapital.errors import DomainError
from ruincapital.exact import ExpPair, ruin_finite_exp
from ruincapital.model import RiskModel
from ruincapital.montecarlo import (
    Estimate,
    SimConfig,
    simulate_curve,
    simulate_paths,
)

UNIT = RiskModel(Exponential(1.0), Exponential(1.0))
HEAVY = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))


def test_deterministic_replay():
    cfg = SimConfig(n_paths=2000, seed=31337, t=50.0)
    a = simulate_paths(UNIT, [1.0], cfg)
    b = simulate_paths(UNIT, [1.0], cfg)
    assert np.array_equal(a.sup, b.sup)
    assert np.array_equal(a.term, b.term)


def test_sup_dominates_terminal_pathwise():
    cfg = SimConfig(n_paths=5000, seed=11, t=100.0)
    sample = simulate_paths(UNIT, [0.9], cfg)
    assert np.all(sample.sup >= sample.term - 1e-12)
    assert np.all(sample.sup >= 0.0)


def _per_rate_reference(m, c, cfg):
    """One rate at a time, updating only the paths still inside [0, t].

    The stream key (seed << 64) is the key earlier versions gave their
    first block of paths, so the draws stay theirs; a change of key fails
    here.  Also returns the claim epoch (1, 2, ...) at which each path
    first arrives past t.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed << 64))
    n = cfg.n_paths
    arrival, total, sup = np.zeros(n), np.zeros(n), np.zeros(n)
    exits = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    epoch = 0
    while active.any():
        epoch += 1
        idx = np.nonzero(active)[0]
        gaps = dist.sample(m.t_law, rng, idx.size)
        sizes = dist.sample(m.y_law, rng, idx.size)
        arrival[idx] += gaps
        alive = arrival[idx] <= cfg.t
        j = idx[alive]
        total[j] += sizes[alive]
        sup[j] = np.maximum(sup[j], total[j] - c * arrival[j])
        active[idx[~alive]] = False
        exits[idx[~alive]] = epoch
    return sup, total - c * cfg.t, exits


# every sampled family as the T law and as the Y law
EXP_ERLANG = RiskModel(Exponential(1.0), Erlang(3.0, 3))
ERLANG_MIX = RiskModel(Erlang(3.0, 3), MixtureExp2(1.0, 2.0, 2.0 / 3.0))
PARETO_EXP = RiskModel(Pareto(3.5, 2.5), Exponential(1.0))


@pytest.mark.parametrize(
    "m, n_paths, seed, t, cs, exits_at",
    [
        (UNIT, 2000, 3, 50.0, [0.0, 0.5, 1.0, 1.5], None),
        (UNIT, 1001, 4, 50.0, [0.8, 1.0, 1.2], None),
        (HEAVY, 1000, 6, 300.0, [0.0, 0.9, 1.2, 1.6], None),
        # 25 rates fold 8 epochs at a time, the cap; 51 would fold 17 without it
        (EXP_ERLANG, 300, 12, 30.0, np.linspace(0.0, 2.4, 25).tolist(), None),
        (ERLANG_MIX, 200, 13, 20.0, np.linspace(0.0, 2.5, 51).tolist(), None),
        (PARETO_EXP, 1, 14, 40.0, [0.0, 1.0, 5.0], None),
        # every path arrives past t at its first claim
        (PARETO_EXP, 500, 15, 1e-7, np.linspace(0.0, 2.4, 25).tolist(), (1, 1)),
        # the first path leaves at epoch 5, inside the first block of 8; the last at 13
        (ERLANG_MIX, 400, 16, 8.0, np.linspace(0.0, 2.4, 25).tolist(), (5, 13)),
    ],
    ids=[
        "unit-with-zero",
        "odd-count",
        "heavy",
        "exp-erlang-25-rates",
        "erlang-mix-51-rates",
        "pareto-exp-one-path",
        "all-leave-at-first-claim",
        "first-exit-in-first-block",
    ],
)
@pytest.mark.filterwarnings("ignore:.*(fewer than 100 paths|expected tail paths):RuntimeWarning")
def test_grid_sweep_equals_per_rate_calls(m, n_paths, seed, t, cs, exits_at):
    cfg = SimConfig(n_paths=n_paths, seed=seed, t=t)
    sample = simulate_paths(m, cs, cfg)
    assert sample.sup.shape == sample.term.shape == (len(cs), cfg.n_paths)
    assert sample.c.tolist() == cs
    singles = [simulate_paths(m, [c], cfg) for c in cs]
    for c, sup_row, term_row, single in zip(cs, sample.sup, sample.term, singles):
        assert single.sup.shape == single.term.shape == (1, cfg.n_paths)
        assert np.array_equal(sup_row, single.sup[0])
        assert np.array_equal(term_row, single.term[0])
        ref_sup, ref_term, exits = _per_rate_reference(m, c, cfg)
        assert np.array_equal(sup_row, ref_sup)
        assert np.array_equal(term_row, ref_term)
    if exits_at is not None:  # the case's geometry: epochs of the first and last exits
        assert (exits.min(), exits.max()) == exits_at
    for estimates in (
        lambda s: s.quantile("var", 0.05),
        lambda s: s.quantile("nonruin", 0.05),
        lambda s: s.ruin_prob(5.0),
    ):
        assert estimates(sample) == [estimates(single)[0] for single in singles]


def test_sweep_memory_stays_below_the_earlier_engine():
    # tracemalloc peaks of the epoch-by-epoch engine this one replaced, on
    # these calls after the same warm-up: 2,442,568 bytes at (3 rates,
    # 20,000 paths) and 3,562,432 at (51 rates, 4,000 paths), against sup
    # and term's 960,000 and 3,264,000.  From three rates on the blocks of
    # epochs live in term's memory, so they add nothing to the peak.
    iv = RiskModel(Erlang(1.6, 2), Exponential(0.6))
    for cs, cfg, earlier_peak in (
        ([0.8, 1.0, 1.2], SimConfig(n_paths=20_000, seed=5, t=100.0), 2_442_568),
        (np.linspace(0.0, 2.5, 51), SimConfig(n_paths=4000, seed=5, t=200.0), 3_562_432),
    ):
        # a first call allocates a few hundred bytes of caches once
        simulate_paths(iv, cs, dataclasses.replace(cfg, n_paths=100))
        tracemalloc.start()
        try:
            simulate_paths(iv, cs, cfg)
            assert tracemalloc.get_traced_memory()[1] <= earlier_peak
        finally:
            tracemalloc.stop()


def test_ruin_probability_matches_exact():
    cfg = SimConfig(n_paths=50_000, seed=2024, t=100.0)
    u, c = 10.0, 1.0
    (est,) = simulate_paths(UNIT, [c], cfg).ruin_prob(u)
    exact_p = ruin_finite_exp(ExpPair(1.0, 1.0), u, c, 100.0)
    se = math.sqrt(exact_p * (1.0 - exact_p) / cfg.n_paths)
    assert abs(est.point - exact_p) <= 4.0 * se
    assert est.ci95[0] <= est.point <= est.ci95[1]


def test_capital_quantiles_bracket_exact_value():
    from ruincapital.capital import SolveSpec, nonruin_capital

    cfg = SimConfig(n_paths=50_000, seed=77, t=200.0)
    sample = simulate_paths(UNIT, [1.0, 3.0], cfg)
    var, var_rich = sample.quantile("var", 0.05)
    nonruin, _ = sample.quantile("nonruin", 0.05)
    # at c = 3 every terminal deficit is negative: the capital clamps at 0
    assert var_rich == Estimate(point=0.0, stderr=0.0, ci95=(0.0, 0.0))
    exact_u = nonruin_capital(
        UNIT, 0.05, 200.0, 1.0, SolveSpec(backend="exact_exp")
    ).value
    lo, hi = nonruin.ci95
    assert lo <= exact_u <= hi
    assert nonruin.stderr == (hi - lo) / (2.0 * 1.96)
    # the order statistic of the sup deficits, not of the terminal ones
    k = math.ceil(0.95 * cfg.n_paths)
    assert nonruin.point == max(0.0, np.sort(sample.sup[0])[k - 1])
    assert var.point == max(0.0, np.sort(sample.term[0])[k - 1])
    assert var.point <= nonruin.point


def test_common_random_numbers_make_curves_monotone():
    cfg = SimConfig(n_paths=4000, seed=8, t=100.0)
    table = simulate_curve(UNIT, 0.05, [0.6, 0.8, 1.0, 1.2], cfg, u=20.0)
    inr = table.columns.index("nonruin_cap")
    ip = table.columns.index("ruin_prob")
    caps = [row[inr] for row in table.rows]
    probs = [row[ip] for row in table.rows]
    # identical claim scenarios priced at rising premium rates can only
    # lower both the needed capital and the ruin indicator
    assert all(b <= a for a, b in zip(caps, caps[1:]))
    assert all(b <= a for a, b in zip(probs, probs[1:]))


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(n_paths=0, seed=1, t=10.0)
    with pytest.raises(DomainError):
        SimConfig(n_paths=100, seed=1, t=0.0)
    with pytest.raises(DomainError):
        SimConfig(n_paths=100, seed=1, t=math.inf)
    with pytest.raises(DomainError):
        SimConfig(n_paths=100, seed=1, t=math.nan)
    with pytest.raises(DomainError):
        SimConfig(n_paths=200, seed=1, t="x")
    # a NumPy integer horizon is kept as given and simulates the same paths
    int_t = SimConfig(n_paths=200, seed=1, t=np.int64(10))
    assert type(int_t.t) is np.int64
    assert np.array_equal(
        simulate_paths(UNIT, [1.0], int_t).sup,
        simulate_paths(UNIT, [1.0], SimConfig(n_paths=200, seed=1, t=10.0)).sup,
    )
    with pytest.raises(DomainError):
        SimConfig(n_paths=100, seed=2**64, t=10.0)
    with pytest.warns(RuntimeWarning):
        SimConfig(n_paths=10, seed=1, t=10.0)
    for bad in ({"n_paths": 1e4}, {"n_paths": 1500.7}, {"n_paths": "many"},
                {"seed": 1.5}):
        with pytest.raises(DomainError):
            SimConfig(**{"n_paths": 100, "seed": 1, "t": 10.0, **bad})
    # one random stream: size, seed and horizon are the only settings
    assert [f.name for f in dataclasses.fields(SimConfig)] == ["n_paths", "seed", "t"]
    # a NumPy integer seed keys the same stream as the equal Python int
    numpy_cfg = SimConfig(n_paths=np.int64(200), seed=np.uint64(5), t=10.0)
    int_cfg = SimConfig(n_paths=200, seed=5, t=10.0)
    assert np.array_equal(
        simulate_paths(UNIT, [1.0], numpy_cfg).sup, simulate_paths(UNIT, [1.0], int_cfg).sup
    )


def test_small_tail_sample_warns():
    cfg = SimConfig(n_paths=200, seed=1, t=10.0)
    sample = simulate_paths(UNIT, [1.0], cfg)
    for kind in ("var", "nonruin"):
        with pytest.warns(RuntimeWarning):
            sample.quantile(kind, 0.05)


def test_domain_checks():
    cfg = SimConfig(n_paths=2000, seed=1, t=10.0)
    sample = simulate_paths(UNIT, [0.5, 1.0], cfg)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            simulate_paths(UNIT, [bad], cfg)
        with pytest.raises(DomainError):
            simulate_paths(UNIT, [0.5, bad], cfg)
        with pytest.raises(DomainError):
            simulate_curve(UNIT, 0.05, [0.5, 1.0, bad], cfg)
        with pytest.raises(DomainError):
            sample.ruin_prob(bad)
        with pytest.raises(DomainError):
            simulate_curve(UNIT, 0.05, [0.5, 1.0], cfg, u=bad)
    for bad_alpha in (1.0, 0.7, math.nan):
        with pytest.raises(DomainError):
            simulate_curve(UNIT, bad_alpha, [0.5, 1.0], cfg)
        with pytest.raises(DomainError):
            sample.quantile("nonruin", bad_alpha)
    # one shape: a 1-D grid of rates, not a scalar and not a 2-D array
    for bad_c in (1.0, [[0.5, 1.0]]):
        with pytest.raises(DomainError):
            simulate_paths(UNIT, bad_c, cfg)
    # rates and capitals that are not numbers
    with pytest.raises(DomainError):
        simulate_paths(UNIT, ["x"], cfg)
    with pytest.raises(DomainError):
        sample.ruin_prob("x")
    for bad_kind in ("sup", "ultimate", None):
        with pytest.raises(DomainError):
            sample.quantile(bad_kind, 0.05)
