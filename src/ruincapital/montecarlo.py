"""Monte Carlo engine for the compound renewal risk process.

One path sweep yields both capitals at once, at every premium rate of a
grid: for each path and rate the engine records the running maximum of the
claim-surplus deficit V_s - c s over claim epochs (the deficit only peaks
at jump instants), and for each path its claims total V_t.  The claim draws
do not depend on c, so ``simulate_paths(m, c_grid, cfg)`` prices a whole
grid of premium rates from one sweep with common random numbers.  It
returns one ``PathSample``, whose methods give one ``Estimate`` per rate:

* ``ruin_prob(u)``: P{ruin within [0, t] at capital u} = P{sup deficit > u};
* ``quantile(kind, alpha)``: the Value-at-Risk ("var") and non-ruin
  ("nonruin") capitals, the empirical (1 - alpha)-quantiles of the
  terminal and sup deficits, clamped at zero.

Randomness comes from one counter-based Philox stream keyed by the seed,
so a fixed (seed, n_paths) reproduces every path bit for bit.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import dist
from .errors import DomainError, check_real, check_real_array
from .model import RiskModel, check_alpha, check_c_grid
from .table import CurveTable

__all__ = [
    "SimConfig",
    "Estimate",
    "PathSample",
    "simulate_paths",
    "simulate_curve",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, random-stream seed and horizon."""

    n_paths: int
    seed: int
    t: float

    def __post_init__(self):
        # stored as Python ints: the stream key shifts the seed by 64 bits
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if self.n_paths < 1:
            raise DomainError("n_paths must be positive")
        if self.n_paths < 100:
            warnings.warn(
                "fewer than 100 paths: confidence intervals unreliable",
                RuntimeWarning,
                stacklevel=3,
            )
        # t is stored as given: simulate_curve echoes it into its metadata
        check_real("t", self.t, above=0.0)
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error and a 95% confidence interval."""

    point: float
    stderr: float
    ci95: tuple[float, float]


@dataclass(frozen=True, eq=False)
class PathSample:
    """Simulated deficits at a grid of premium rates, one row per rate.

    ``sup[k]`` holds, for each of the ``cfg.n_paths`` paths, the running
    maximum over [0, t] of the deficit V_s - c s at the rate ``c[k]``, shape
    (len(c), n_paths); ``total`` holds each path's claims total V_t, shape
    (n_paths,), so the terminal deficit at ``c[k]`` is total - c[k] t.  The
    estimators return one ``Estimate`` per rate.
    """

    c: np.ndarray
    sup: np.ndarray
    total: np.ndarray
    cfg: SimConfig

    def quantile(self, kind: str, alpha: float) -> list[Estimate]:
        """Capital estimates: the empirical (1 - alpha)-quantile of each row.

        ``kind`` "var" takes the terminal deficits (the Value-at-Risk
        capital), "nonruin" the sup deficits (the non-ruin capital).  The
        point is the upper order statistic at ceil((1 - alpha) N), clamped
        at zero, with a binomial-bracket 95% interval; stderr is its half
        width over 1.96.  Warns when fewer than 50 tail paths are expected.
        A terminal deficit total - c t is nondecreasing in total, and so is
        its rounding, so one sort of ``total`` gives every rate's order
        statistics.
        """
        if kind not in ("var", "nonruin"):
            raise DomainError(f"quantile kind must be 'var' or 'nonruin', got {kind!r}")
        alpha = check_alpha(alpha)
        n = self.cfg.n_paths
        if n * alpha < 50.0:
            warnings.warn(
                f"only {n * alpha:.0f} expected tail paths at alpha="
                f"{alpha}; quantile estimate noisy (want n_paths >= 50/alpha)",
                RuntimeWarning,
                stacklevel=2,
            )
        q = 1.0 - alpha
        k = math.ceil(q * n)
        spread = 1.96 * math.sqrt(n * q * (1.0 - q))
        k_lo = max(1, math.floor(q * n - spread))
        k_hi = min(n, math.ceil(q * n + spread))
        if kind == "var":
            xs = np.sort(self.total)
            rows = ((xs, c * self.cfg.t) for c in self.c)
        else:  # one sorted copy at a time
            rows = ((np.sort(row), 0.0) for row in self.sup)
        out = []
        for xs, shift in rows:
            lo, point, hi = (max(0.0, float(xs[j - 1] - shift)) for j in (k_lo, k, k_hi))
            out.append(Estimate(point=point, stderr=(hi - lo) / (2.0 * 1.96), ci95=(lo, hi)))
        return out

    def ruin_prob(self, u: float) -> list[Estimate]:
        """P{ruin within [0, t]} at capital u: the share of sup deficits above u."""
        u = check_real("u", u, at_least=0.0)
        n = self.cfg.n_paths
        out = []
        for row in self.sup:
            p = float(np.count_nonzero(row > u)) / n
            se = math.sqrt(p * (1.0 - p) / n)
            ci95 = (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))
            out.append(Estimate(point=p, stderr=se, ci95=ci95))
        return out


def simulate_paths(m: RiskModel, c_grid: Sequence[float], cfg: SimConfig) -> PathSample:
    """Simulate all configured paths at every premium rate of ``c_grid``.

    ``c_grid`` is a 1-D grid of finite, nonnegative rates; row i of the
    sample equals a sweep at ``c_grid[i]`` alone, bit for bit.  ``sup``
    takes len(c_grid) * n_paths * 8 bytes, and the sweep's blocks of claim
    epochs (below) 3 * k * n_paths * 8 bytes more.

    Deterministic for a fixed (seed, n_paths).  Claims are drawn for the
    paths still inside [0, t] only, so the draw sequence depends only on
    the T law and the horizon, which keeps draws common across premium
    rates (common random numbers): one sweep prices every rate of the
    grid.  While every path is inside [0, t] a step updates whole arrays;
    after the first exit it updates the active paths by index.  Each
    claim epoch's (arrival, claim total) of all paths goes into a block
    of k = min(8, max(1, len(c_grid) // 3)) epochs, and every k epochs
    each rate's running maximum is folded over the block in one pass: the
    same deficits, so the same maxima as folding epoch by epoch.  A path
    past the horizon keeps its claim total and its first arrival past t,
    so for c >= 0 its deficit cannot exceed its running maximum.
    """
    rates = check_real_array("c_grid", c_grid, at_least=0.0)
    if rates.ndim != 1:
        raise DomainError("premium rates c must be a 1-D grid")
    rng = np.random.Generator(np.random.Philox(key=cfg.seed << 64))
    n, t = cfg.n_paths, cfg.t
    k = min(8, max(1, rates.size // 3))
    sup = np.zeros((rates.size, n))
    # epochs[:, j] is (arrival, claim total) after the block's j-th epoch,
    # and starts as a copy of epochs[:, j - 1], which for j = 0 is the last
    # epoch of the block before
    epochs = np.zeros((2, k, n))
    deficit = np.empty((k, n))
    active = np.ones(n, dtype=bool)
    inside = True  # no path has left [0, t] yet
    j = 0
    while active.any():
        if j == k:
            _fold(rates, sup, epochs, deficit)
            j = 0
        np.copyto(epochs[:, j], epochs[:, j - 1])
        arrival, total = epochs[:, j]
        j += 1
        if inside:
            gaps = dist.sample(m.t_law, rng, n)
            sizes = dist.sample(m.y_law, rng, n)
            arrival += gaps
            np.less_equal(arrival, t, out=active)
            np.add(total, sizes, out=total, where=active)
            inside = active.all()
        else:
            idx = np.nonzero(active)[0]
            gaps = dist.sample(m.t_law, rng, idx.size)
            sizes = dist.sample(m.y_law, rng, idx.size)
            arrival[idx] += gaps
            alive = arrival[idx] <= t
            total[idx[alive]] += sizes[alive]
            active[idx[~alive]] = False
    _fold(rates, sup, epochs[:, :j], deficit[:j])
    return PathSample(c=rates, sup=sup, total=total.copy(), cfg=cfg)  # frees the blocks


def _fold(rates: np.ndarray, sup: np.ndarray, epochs: np.ndarray, deficit: np.ndarray) -> None:
    """Raise each rate's running maximum to its deficits over a block of epochs."""
    arrival, total = epochs
    for c, row in zip(rates, sup):
        np.multiply(arrival, c, out=deficit)
        np.subtract(total, deficit, out=deficit)
        np.maximum(row, deficit.max(axis=0), out=row)


def simulate_curve(
    m: RiskModel,
    alpha: float,
    c_grid,
    cfg: SimConfig,
    u: float | None = None,
) -> CurveTable:
    """Per-premium-rate estimates over a grid, as a table of one ``PathSample``.

    One sweep prices every grid point, so the same claim scenarios are
    priced at every premium rate and the resulting curves are smooth in c.
    Columns: c, var_cap, var_lo, var_hi, nonruin_cap, nonruin_lo,
    nonruin_hi (the points and 95% intervals of ``quantile``), and when
    ``u`` is given additionally ruin_prob and ruin_stderr at that capital.
    """
    alpha = check_alpha(alpha)
    sample = simulate_paths(m, check_c_grid(c_grid), cfg)
    var = sample.quantile("var", alpha)
    nonruin = sample.quantile("nonruin", alpha)
    ruin = None if u is None else sample.ruin_prob(u)
    cols = ["c", "var_cap", "var_lo", "var_hi", "nonruin_cap", "nonruin_lo", "nonruin_hi"]
    if ruin is not None:
        cols += ["ruin_prob", "ruin_stderr"]
    table = CurveTable(
        columns=cols,
        metadata={
            "seed": cfg.seed,
            "n_paths": cfg.n_paths,
            "t": cfg.t,
            "alpha": alpha,
        },
    )
    for k, c in enumerate(sample.c.tolist()):
        row = [c, var[k].point, *var[k].ci95, nonruin[k].point, *nonruin[k].ci95]
        if ruin is not None:
            row += [ruin[k].point, ruin[k].stderr]
        table.append(row)
    return table
