"""Acceptance gate: one test per published reference criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
failure output) before asserting, so the gate reads as a checklist.  The
reference values are published figure captions, grid lines and table rows;
tolerances are stated per criterion.  A published value that is itself a
simulation estimate is compared together with its own sampling error.
Criteria 02 and 03 fail today; the comments at their failing assertions
say what the program gives and why it is not settled here.
"""

import math
import time

import numpy as np

from ig_oracle import ig_integral
from ruincapital.approx import capital_asymptotic_bounds, ig_ruin_probability
from ruincapital.capital import SolveSpec, capital_curve, nonruin_capital, ultimate_capital
from ruincapital.dist import Erlang, Exponential, Kummer, MixtureExp2, Pareto
from ruincapital.exact import ExpPair, ruin_finite_exp
from ruincapital.model import RiskModel, derived_constants
from ruincapital.montecarlo import SimConfig, simulate_paths
from ruincapital.presets import TABLE1_MODELS, run_preset
from ruincapital.special import std_normal_quantile
from ultimate_oracle import ultimate_capital_exp

SEED = 20240817

UNIT = RiskModel(Exponential(1.0), Exponential(1.0))
UNIT_PAIR = ExpPair(1.0, 1.0)
MODEL_I = RiskModel(Exponential(0.8), Exponential(0.6))
MODEL_IV = RiskModel(Erlang(1.6, 2), Exponential(0.6))
HEAVY = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_nonruin_capital_point_value():
    start = time.perf_counter()
    value = nonruin_capital(UNIT, 0.05, 200.0, 1.0, SolveSpec(backend="exact_exp")).value
    elapsed = time.perf_counter() - start
    ok = abs(value - 40.0844) <= 0.05 and elapsed < 10.0
    _report("1 exact non-ruin capital 40.0844±0.05", ok, f"value={value:.5f}, {elapsed:.1f}s")
    assert abs(value - 40.0844) <= 0.05
    assert elapsed < 10.0


def test_criterion_02_finite_ruin_probability_exact_and_ig():
    start = time.perf_counter()
    exact = ruin_finite_exp(UNIT_PAIR, 50.0, 1.0, 1000.0)
    ig = ig_ruin_probability(UNIT, 50.0, 1.0, 1000.0)
    elapsed = time.perf_counter() - start
    ok_exact = abs(exact - 0.26) <= 0.005
    ok_ig = abs(ig - 0.26) <= 0.01
    ok = ok_exact and ok_ig and elapsed < 5.0
    _report(
        "2 ruin probability 0.26 (exact ±0.005, IG ±0.01)",
        ok,
        f"exact={exact:.5f}, ig={ig:.5f}, {elapsed:.1f}s",
    )
    assert elapsed < 5.0
    assert ok_exact, f"exact {exact:.5f} outside 0.26±0.005"
    # fails today: the implemented form, a Gaussian in x with mean cM(x+1)
    # and variance (c^2 D^2 / u)(x+1) integrated over [0, ct/u], gives 0.2752;
    # the Brownian first-passage form 2 Phi-bar(u / sqrt(c^3 D^2 t)) would
    # give 0.2636.  The paper's own formula is not recorded in this repository
    assert ok_ig, f"inverse Gaussian {ig:.5f} outside 0.26±0.01"


def test_criterion_03_table_constants_four_models():
    start = time.perf_counter()
    published_m = [1.0, 0.8750, 0.8, 1.0]
    published_d2 = [2.0, 2.3042, 1.2, 1.3333]
    got_m = []
    got_d2 = []
    for _, model in TABLE1_MODELS:
        k = derived_constants(model)
        got_m.append(round(k.m_big, 4))
        got_d2.append(round(k.d2_big, 4))
    elapsed = time.perf_counter() - start
    ok = got_m == published_m and got_d2 == published_d2 and elapsed < 1.0
    _report(
        "3 constants table to 4 decimals",
        ok,
        f"M={got_m}, D2={got_d2}, {elapsed:.2f}s",
    )
    assert elapsed < 1.0
    assert got_m == published_m
    # fails today on the fourth entry: the preset's row 4, T and Y both
    # Pareto(4, 0.4), gives D^2 = 10/3, while identical Pareto(4, 1) laws
    # would give the published 4/3; the table's own row-4 laws are not
    # recorded in this repository
    assert got_d2 == published_d2, f"D2 mismatch: {got_d2} vs {published_d2}"


def test_criterion_04_section_model_constants():
    ki = derived_constants(MODEL_I)
    kiv = derived_constants(MODEL_IV)
    pareto_stars = [
        round(derived_constants(RiskModel(Exponential(0.8), Pareto(10.0, 0.05))).c_star, 4),
        round(derived_constants(RiskModel(Exponential(0.8), Pareto(3.0, 0.3))).c_star, 4),
    ]
    kummer_stars = [
        round(derived_constants(RiskModel(Exponential(0.8), Kummer(5.0, 5.0))).c_star, 4),
        round(derived_constants(RiskModel(Exponential(0.8), Kummer(200.0, 200.0))).c_star, 4),
    ]
    checks = [
        round(ki.c_star, 4) == 1.3333,
        round(ki.m_big, 4) == 0.75,
        round(ki.d2_big, 4) == 1.875,
        round(kiv.c_star, 4) == 1.3333,
        round(kiv.m_big, 4) == 0.75,
        round(kiv.d2_big, 5) == 1.40625,
        pareto_stars == [1.7778, 1.3333],
        kummer_stars == [1.3333, 0.8081],
    ]
    ok = all(checks)
    _report(
        "4 worked-example constants to 4 decimals",
        ok,
        f"pareto c*={pareto_stars}, kummer c*={kummer_stars}",
    )
    assert ok, checks


def test_criterion_05_normal_quantiles():
    z05 = std_normal_quantile(0.95)
    z025 = std_normal_quantile(0.975)
    ok = abs(z05 - 1.645) < 5e-4 and abs(z025 - 1.960) < 5e-4
    _report("5 normal quantiles 1.645/1.960", ok, f"z={z05:.4f}/{z025:.4f}")
    assert ok


def test_criterion_06_ig_closed_vs_integral_grid():
    start = time.perf_counter()
    worst = 0.0
    k = derived_constants(UNIT)
    for u in (5.0, 20.0, 60.0):
        for c in (0.5, 0.8, 1.0, 1.2, 2.0):
            for t in (50.0, 200.0, 500.0, 1000.0, 5000.0):
                a = ig_integral(u, c, t, k.m_big, k.d2_big)
                b = ig_ruin_probability(UNIT, u, c, t)
                worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report("6 IG closed vs integral on 75 points", ok, f"worst={worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_07_monte_carlo_vs_exact():
    start = time.perf_counter()
    cfg = SimConfig(n_paths=100_000, seed=SEED, t=1000.0)
    worst_z = 0.0
    details = []
    cs = (0.8, 1.0, 1.2)
    sample = simulate_paths(UNIT, cs, cfg)
    for c, sup in zip(cs, sample.sup):
        for u in (10.0, 50.0):
            phat = float(np.mean(sup > u))
            exact = ruin_finite_exp(UNIT_PAIR, u, c, 1000.0)
            # the binomial scale at the true probability; the empirical
            # scale degenerates to 0 when every path is ruined
            se = math.sqrt(exact * (1.0 - exact) / cfg.n_paths)
            z = abs(phat - exact) / se if se > 0.0 else 0.0
            worst_z = max(worst_z, z)
            details.append(f"(u={u:g},c={c:g}):z={z:.2f}")
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0 and elapsed < 120.0
    _report("7 simulation within 3 stderr of exact", ok, "; ".join(details))
    assert worst_z <= 3.0, details
    assert elapsed < 120.0


def test_criterion_08_ordering_properties():
    # ties are exact at large premium rates, so the comparison slack is the
    # bisection tolerance of the capital solver on each side
    slack = 2e-6
    # (a) terminal-deficit capital never exceeds the non-ruin capital
    cs = [round(0.05 * i, 2) for i in range(51)]
    table = capital_curve(UNIT, 0.05, 200.0, cs, SolveSpec(backend="exact_exp"))
    iv = table.columns.index("var")
    inr = table.columns.index("nonruin")
    violations = sum(
        1 for row in table.rows if not row[iv] <= row[inr] + slack
    )
    # (b) finite-horizon capital never exceeds the infinite-horizon one
    for row in table.rows:
        if row[0] > 1.0:
            ult = ultimate_capital(UNIT, 0.05, row[0]).value
            if not row[inr] <= ult + slack:
                violations += 1
    # (c) the closed-form ultimate capital dominates the exact capital above c*
    for c in cs:
        if c <= 4.0 / 3.0 + 1e-9:
            continue
        bound = ultimate_capital_exp(0.8, 0.6, 0.05, c)
        exact_u = nonruin_capital(
            MODEL_I, 0.05, 200.0, c, SolveSpec(backend="exact_exp")
        ).value
        if not exact_u <= bound + slack:
            violations += 1
    ok = violations == 0
    _report("8 ordering property suite", ok, f"violations={violations}")
    assert violations == 0


def test_criterion_09_erlang_simulation_endpoint():
    start = time.perf_counter()
    c_star = derived_constants(MODEL_IV).c_star
    cfg = SimConfig(n_paths=100_000, seed=SEED, t=200.0)
    # one sample serves both the estimate and the batch spread below
    sample = simulate_paths(MODEL_IV, [c_star], cfg)
    est = sample.quantile("nonruin", 0.05)[0]
    endpoint = capital_asymptotic_bounds(MODEL_IV, 0.05, 200.0, c_star)[1]
    # the published 48 is itself a 1000-path estimate, so it is compared as
    # a second sample: its standard deviation is the spread of the same
    # order statistic over the disjoint 1000-path batches of these paths
    # (~1.75).  The test is two-sided at the 5% level, fixed in advance and
    # never tuned to a random stream; the width it allows is set by the
    # published value's own sampling error, not by this run.
    batch = 1000
    k = math.ceil(0.95 * batch)
    batch_q = np.sort(sample.sup[0].reshape(-1, batch), axis=1)[:, k - 1]
    sd_batch = float(np.std(batch_q, ddof=1))
    z = abs(est.point - 48.0) / math.hypot(est.stderr, sd_batch)
    z_ok = z <= 1.96
    formula_ok = abs(endpoint - 48.0) / 48.0 <= 0.10
    elapsed = time.perf_counter() - start
    ok = z_ok and formula_ok and elapsed < 120.0
    _report(
        "9 simulated capital vs the 1000-path 48 at the 5% level; formula within 10%",
        ok,
        f"point={est.point:.2f}, se={est.stderr:.3f}, sd1000={sd_batch:.3f}, "
        f"z={z:.3f}, formula={endpoint:.2f}, {elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert formula_ok, f"endpoint {endpoint:.3f} not within 10% of 48"
    assert z_ok, f"estimate {est.point:.2f} differs from 48 by z={z:.3f} > 1.96"


def test_criterion_10_heavy_tail_desk_check():
    start = time.perf_counter()
    cfg = SimConfig(n_paths=100_000, seed=SEED, t=1000.0)
    u = 40.0
    failures = []
    details = []

    def ig_vs_sim(at_u, c, c_cfg, sup):
        phat = float(np.mean(sup > at_u))
        se = math.sqrt(max(phat * (1.0 - phat), 1e-12) / c_cfg.n_paths)
        ig = ig_ruin_probability(HEAVY, at_u, c, c_cfg.t)
        return ig, phat, se

    # one sweep prices the three premium rates at u = 40
    sups = simulate_paths(HEAVY, (0.8, 1.0, 1.2), cfg).sup
    for c, sup in zip((0.8, 1.0), sups):
        ig, phat, se = ig_vs_sim(u, c, cfg, sup)
        tol = max(0.02, 3.0 * se)
        details.append(f"c={c:g}: ig={ig:.4f}, mc={phat:.4f}, tol={tol:.4f}")
        if abs(ig - phat) > tol:
            failures.append(c)
    # just above c* = 8/7 the IG error at u = 40 is ~0.03, and no published
    # grid line bounds it.  Under the diffusion scaling u -> 2u, t -> 4t,
    # c - c* -> (c - c*)/2 the gap must shrink by more than three combined
    # standard errors, and at u = 80 it must lie in the same band as at
    # c = 0.8 and c = 1.0.
    ig40, phat40, se40 = ig_vs_sim(u, 1.2, cfg, sups[2])
    c_star = derived_constants(HEAVY).c_star
    cfg80 = SimConfig(n_paths=40_000, seed=SEED, t=4000.0)
    c80 = c_star + (1.2 - c_star) / 2.0
    (sup80,) = simulate_paths(HEAVY, [c80], cfg80).sup
    ig80, phat80, se80 = ig_vs_sim(2.0 * u, c80, cfg80, sup80)
    gap40 = ig40 - phat40
    gap80 = ig80 - phat80
    se_diff = math.hypot(se40, se80)
    shrink_ok = gap40 - gap80 > 3.0 * se_diff
    tol80 = max(0.02, 3.0 * se80)
    band80_ok = abs(gap80) <= tol80
    details.append(
        f"c=1.2: ig={ig40:.4f}, mc={phat40:.4f}, gap(u=40)={gap40:.4f}±{se40:.4f}, "
        f"gap(u=80)={gap80:.4f}±{se80:.4f}, tol(u=80)={tol80:.4f}"
    )
    elapsed = time.perf_counter() - start
    ok = not failures and shrink_ok and band80_ok and elapsed < 600.0
    _report("10 IG vs simulation, heavy-tailed model", ok, "; ".join(details))
    assert not failures, f"IG outside tolerance at c in {failures}: {details}"
    assert shrink_ok, (
        f"IG gap does not shrink from u=40 to u=80 by more than 3 se: "
        f"{gap40:.4f} vs {gap80:.4f}, se {se_diff:.4f}"
    )
    assert band80_ok, f"IG gap {gap80:.4f} at u=80 outside {tol80:.4f}"


def test_criterion_11_kummer_limitations_recorded():
    files, sidecar = run_preset("fig10", n_paths=100, seed=SEED)
    achieved = sidecar["achieved"]
    stars_ok = (
        achieved["c_star_dots"] == 1.3333 and achieved["c_star_crosses"] == 0.8081
    )
    limits = " ".join(sidecar.get("limitations", [])).lower()
    stated = "no sampler" in limits or "cannot be reproduced" in limits
    recorded = (
        sidecar["grid_lines"].get("sim_nonruin_at_cstar_dots") == 102.0
        and sidecar["grid_lines"].get("sim_nonruin_at_cstar_crosses") == 36.0
    )
    bands = files["curve"]
    has_bands = {"dots_lower", "dots_upper", "crosses_lower", "crosses_upper"} <= set(
        bands.columns
    )
    ok = stars_ok and stated and recorded and has_bands
    _report(
        "11 gamma-ratio family: c*, bounds band, limitation statement",
        ok,
        f"c*=({achieved['c_star_dots']}, {achieved['c_star_crosses']})",
    )
    assert stars_ok
    assert stated, "sidecar must state the sampling limitation"
    assert recorded, "non-reproduced reference values must be recorded"
    assert has_bands
