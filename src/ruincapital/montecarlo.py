"""Monte Carlo engine for the compound renewal risk process.

One path sweep yields both capitals at once, at every premium rate of a
grid: for each path and rate the engine records the running maximum of the
claim-surplus deficit V_s - c s over claim epochs (the deficit only peaks
at jump instants) and its terminal value at the horizon.  Then

* P{ruin within [0, t] at capital u} = P{sup deficit > u}, and
* the two capitals are empirical (1 - alpha)-quantiles of the sup and
  terminal deficits, clamped at zero.

The claim draws do not depend on c, so ``simulate_paths(m, c_grid, cfg)``
prices a whole grid of premium rates from one sweep with common random
numbers.  It returns two (len(c_grid), n_paths) arrays, 2 * n_c * n_paths
* 8 bytes, whose row k equals the sweep at ``c_grid[k]`` alone bit for bit.

Randomness comes from counter-based Philox streams keyed by (seed, block):
paths are split into ``stream_count`` contiguous blocks, each with its own
stream, and results are merged in block order, so output is deterministic
regardless of how blocks are scheduled.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import dist
from .errors import DomainError
from .model import RiskModel, check_alpha, check_c_grid
from .table import CurveTable

__all__ = [
    "SimConfig",
    "Estimate",
    "simulate_paths",
    "estimate_ruin_prob",
    "estimate_capitals",
    "simulate_curve",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, horizon and random-stream layout."""

    n_paths: int
    seed: int
    t: float
    stream_count: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainError("n_paths must be positive")
        if self.n_paths < 100:
            warnings.warn(
                "fewer than 100 paths: confidence intervals unreliable",
                RuntimeWarning,
                stacklevel=3,
            )
        if not 0.0 < self.t < math.inf:
            raise DomainError("horizon t must be finite and positive")
        if self.stream_count < 1:
            raise DomainError("stream_count must be positive")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error and a 95% confidence interval."""

    point: float
    stderr: float
    ci95: tuple[float, float]


def _nonnegative(name: str, value) -> np.ndarray:
    """``value`` as a float array; DomainError unless every entry is finite and >= 0."""
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all() or (a < 0.0).any():
        raise DomainError(f"{name} must be finite and nonnegative")
    return a


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | block))


def _block_sizes(n: int, k: int) -> list[int]:
    q, r = divmod(n, k)
    return [q + (1 if b < r else 0) for b in range(k)]


def _sweep_block(
    m: RiskModel,
    rates: np.ndarray,
    t: float,
    rng: np.random.Generator,
    sup: np.ndarray,
    term: np.ndarray,
) -> None:
    """Simulate one block of paths into ``sup`` and ``term`` (rates x paths).

    Claims are drawn for the paths still inside [0, t] only, so the draws
    do not depend on the rates.  Each rate's running maximum is then
    updated over all paths: a path past the horizon keeps its claim total
    and gains arrival time, so for c >= 0 its deficit cannot exceed its
    running maximum, and each row equals a sweep at that rate alone.
    ``sup`` must hold zeros on entry.
    """
    n = sup.shape[1]
    arrival = np.zeros(n)
    total = np.zeros(n)
    deficit = np.empty(n)
    active = np.ones(n, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        gaps = dist.sample(m.t_law, rng, idx.size)
        sizes = dist.sample(m.y_law, rng, idx.size)
        arrival[idx] += gaps
        alive = arrival[idx] <= t
        total[idx[alive]] += sizes[alive]
        active[idx[~alive]] = False
        for c, row in zip(rates, sup):
            np.multiply(arrival, c, out=deficit)
            np.subtract(total, deficit, out=deficit)
            np.maximum(row, deficit, out=row)
    for c, row in zip(rates, term):
        np.subtract(total, c * t, out=row)


def simulate_paths(
    m: RiskModel, c: float | Sequence[float], cfg: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate all configured paths; returns (sup_deficits, terminal_deficits).

    ``c`` is one premium rate or a 1-D grid of them.  For one rate both
    arrays have shape (n_paths,); for a grid, (len(c), n_paths), and row k
    equals the result for ``c[k]`` alone, bit for bit.  The two arrays of a
    grid take 2 * len(c) * n_paths * 8 bytes.

    Deterministic for a fixed (seed, stream_count, n_paths); drawing extra
    claims for a path that has already crossed the horizon never happens,
    so the draw sequence depends only on the T law and the horizon, which
    keeps draws common across premium rates (common random numbers): one
    sweep prices every rate of the grid.
    """
    rates = _nonnegative("premium rate c", c)
    if rates.ndim > 1:
        raise DomainError("premium rate c must be a scalar or a 1-D grid")
    grid = rates.reshape(-1)
    sup = np.zeros((grid.size, cfg.n_paths))
    term = np.empty((grid.size, cfg.n_paths))
    stop = 0
    for block, size in enumerate(_block_sizes(cfg.n_paths, cfg.stream_count)):
        start, stop = stop, stop + size
        rng = _block_rng(cfg.seed, block)
        _sweep_block(m, grid, cfg.t, rng, sup[:, start:stop], term[:, start:stop])
    if rates.ndim == 0:
        return sup[0], term[0]
    return sup, term


def estimate_ruin_prob(
    m: RiskModel, u: float, c: float | Sequence[float], cfg: SimConfig
) -> Estimate | list[Estimate]:
    """Estimate P{ruin within [0, t]} at capital u from one path sweep.

    For a 1-D grid of premium rates ``c`` returns a list with one
    ``Estimate`` per rate, all from the same sweep.
    """
    u = float(_nonnegative("capital u", u))
    sup, _ = simulate_paths(m, c, cfg)
    if sup.ndim == 1:
        return _prob_estimate(sup, u, cfg.n_paths)
    return [_prob_estimate(row, u, cfg.n_paths) for row in sup]


def _prob_estimate(sup: np.ndarray, u: float, n: int) -> Estimate:
    p = float(np.count_nonzero(sup > u)) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return Estimate(point=p, stderr=se, ci95=(max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se)))


def _quantile_estimate(x: np.ndarray, alpha: float) -> Estimate:
    """Upper order statistic at ceil((1-alpha) N) with a binomial-bracket CI."""
    n = x.size
    xs = np.sort(x)
    q = 1.0 - alpha
    k = math.ceil(q * n)
    point = max(0.0, float(xs[k - 1]))
    spread = 1.96 * math.sqrt(n * q * (1.0 - q))
    k_lo = max(1, math.floor(q * n - spread))
    k_hi = min(n, math.ceil(q * n + spread))
    lo = max(0.0, float(xs[k_lo - 1]))
    hi = max(0.0, float(xs[k_hi - 1]))
    return Estimate(point=point, stderr=(hi - lo) / (2.0 * 1.96), ci95=(lo, hi))


def _check_quantile_alpha(alpha: float, n_paths: int) -> float:
    """``check_alpha``, plus a warning when fewer than 50 tail paths are expected."""
    alpha = check_alpha(alpha)
    if n_paths * alpha < 50.0:
        warnings.warn(
            f"only {n_paths * alpha:.0f} expected tail paths at alpha="
            f"{alpha}; quantile estimate noisy (want n_paths >= 50/alpha)",
            RuntimeWarning,
            stacklevel=3,
        )
    return alpha


def estimate_capitals(
    m: RiskModel, alpha: float, c: float, cfg: SimConfig
) -> dict[str, Estimate]:
    """Both capitals as empirical (1 - alpha)-quantiles of pathwise deficits.

    Returns {"var_cap": ..., "nonruin_cap": ...}; the Value-at-Risk capital
    is the quantile of terminal deficits and never exceeds the non-ruin
    capital because the terminal deficit is dominated pathwise by the sup.
    """
    alpha = _check_quantile_alpha(alpha, cfg.n_paths)
    if np.ndim(c) != 0:
        raise DomainError("estimate_capitals takes one premium rate; simulate_curve prices a grid")
    sup, term = simulate_paths(m, c, cfg)
    return {
        "var_cap": _quantile_estimate(term, alpha),
        "nonruin_cap": _quantile_estimate(sup, alpha),
    }


def simulate_curve(
    m: RiskModel,
    alpha: float,
    c_grid,
    cfg: SimConfig,
    u: float | None = None,
) -> CurveTable:
    """Per-premium-rate estimates over a grid, with common random numbers.

    One sweep prices every grid point, so the same claim scenarios are
    priced at every premium rate and the resulting curves are smooth in c.
    Each row equals ``estimate_capitals`` at its rate alone, bit for bit.
    Columns: c, var_cap, var_lo, var_hi, nonruin_cap, nonruin_lo,
    nonruin_hi, and when ``u`` is given additionally ruin_prob and
    ruin_stderr at that capital.
    """
    alpha = _check_quantile_alpha(alpha, cfg.n_paths)
    c_grid = check_c_grid(c_grid)
    if u is not None:
        u = float(_nonnegative("capital u", u))
    cols = ["c", "var_cap", "var_lo", "var_hi", "nonruin_cap", "nonruin_lo", "nonruin_hi"]
    if u is not None:
        cols += ["ruin_prob", "ruin_stderr"]
    table = CurveTable(
        columns=cols,
        metadata={
            "seed": cfg.seed,
            "n_paths": cfg.n_paths,
            "stream_count": cfg.stream_count,
            "t": cfg.t,
            "alpha": alpha,
        },
    )
    sups, terms = simulate_paths(m, c_grid, cfg)
    for c, sup, term in zip(c_grid, sups, terms):
        var_e = _quantile_estimate(term, alpha)
        non_e = _quantile_estimate(sup, alpha)
        row = [
            c,
            var_e.point,
            var_e.ci95[0],
            var_e.ci95[1],
            non_e.point,
            non_e.ci95[0],
            non_e.ci95[1],
        ]
        if u is not None:
            pe = _prob_estimate(sup, u, cfg.n_paths)
            row += [pe.point, pe.stderr]
        table.append(row)
    return table
