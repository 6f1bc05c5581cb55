"""Preset grids reproducing the library's reference figures and table.

Each preset returns the CSV-ready tables for one figure plus a sidecar
dictionary listing the published grid-line values next to the values this
implementation achieves, so a reader can audit agreement point by point.
Presets use the caption parameters verbatim, with one documented exception
(the first bounds figure, whose caption and body text disagree; the body
text is used because it matches the printed c* = 4/3 and M = 0.75).
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

import numpy as np

from . import approx, bounds, capital, exact, model
from .capital import SolveSpec
from .dist import Erlang, Exponential, Kummer, MixtureExp2, Pareto
from .errors import DomainError
from .exact import ExpPair
from .model import RiskModel, c_grid_range, derived_constants
from .montecarlo import SimConfig
from .table import CurveTable

__all__ = ["PRESET_IDS", "run_preset", "constants_table", "TABLE1_MODELS"]

# the Monte Carlo size and stream of a preset or CLI run that names none
DEFAULT_PATHS = 1000
DEFAULT_SEED = 20240817

_EXP_UNIT = RiskModel(Exponential(1.0), Exponential(1.0))
_MODEL_I = RiskModel(Exponential(4.0 / 5.0), Exponential(3.0 / 5.0))
_MODEL_IV = RiskModel(Erlang(8.0 / 5.0, 2), Exponential(3.0 / 5.0))
_MIX_PARETO = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))

TABLE1_MODELS = [
    ("exponential/exponential", _EXP_UNIT),
    ("mixture2/pareto", _MIX_PARETO),
    ("erlang/pareto", RiskModel(Erlang(6.0, 4), Pareto(4.0, 0.4))),
    ("pareto/pareto", RiskModel(Pareto(4.0, 0.4), Pareto(4.0, 0.4))),
]


def constants_table(models: list[tuple[str, RiskModel]]) -> CurveTable:
    """Derived constants, one row per model, rounded to 4 decimals."""
    cols = ["c_star", "m_big", "d2_big", "m_v", "d2_v", "m_n", "d2_n"]
    table = CurveTable(
        columns=cols, metadata={"models": [name for name, _ in models]}
    )
    for _, m in models:
        k = derived_constants(m)
        table.append([round(getattr(k, c), 4) for c in cols])
    return table


def _fig1(n_paths: int, seed: int):
    cs = c_grid_range(0.0, 2.5, 0.05)
    tab = capital.capital_curve(
        _EXP_UNIT, 0.05, 200.0, cs, SolveSpec(backend="exact_exp")
    )
    tab.columns = ["c", "var_exact", "nonruin_exact"]
    at_cstar = capital.nonruin_capital(
        _EXP_UNIT, 0.05, 200.0, 1.0, SolveSpec(backend="exact_exp")
    ).value
    sidecar = {
        "grid_lines": {"nonruin_at_cstar": 40.0844, "c_star": 1.0},
        "achieved": {"nonruin_at_cstar": at_cstar},
    }
    return {"curve": tab}, sidecar


def _fig2(n_paths: int, seed: int):
    cs = c_grid_range(0.0, 2.5, 0.05)
    tab = capital.capital_curve(
        _EXP_UNIT,
        0.05,
        200.0,
        cs,
        SolveSpec(backend="exact_exp"),
        kinds=("nonruin", "ultimate"),
    )
    tab.columns = ["c", "nonruin_exact", "ultimate_exact"]
    at_cstar = capital.nonruin_capital(
        _EXP_UNIT, 0.05, 200.0, 1.0, SolveSpec(backend="exact_exp")
    ).value
    sidecar = {
        "grid_lines": {"nonruin_at_cstar": 40.08, "c_star": 1.0},
        "achieved": {"nonruin_at_cstar": at_cstar},
        "notes": ["ultimate capital is infinite for c <= c*; cells are NA there"],
    }
    return {"curve": tab}, sidecar


def _fig3(n_paths: int, seed: int):
    # profile U(x): the sqrt(t)-scale shape of the non-ruin capital,
    # recovered from the exact curve via
    # u(c) = (c* - c) t + (sqrt(2 delta)/rho) U(x) sqrt(t),
    # x = rho (c* - c) sqrt(t) / sqrt(2 delta)
    t = 200.0
    scale = math.sqrt(2.0)  # sqrt(2 delta)/rho at delta = rho = 1
    xs = np.linspace(0.0, 8.0, 81)[::-1]  # the curve needs increasing c
    cs = [float(1.0 - x * scale / math.sqrt(t)) for x in xs]
    curve = capital.capital_curve(
        _EXP_UNIT, 0.05, t, cs, SolveSpec(backend="exact_exp"), kinds=("nonruin",)
    )
    rows = [
        [float(x), (u - (1.0 - c) * t) / (scale * math.sqrt(t))]
        for x, c, u in zip(xs, cs, curve.column("nonruin"))
    ][::-1]
    tab = CurveTable(columns=["x", "profile"], rows=rows, metadata={"t": t})
    sidecar = {
        "grid_lines": {"z_alpha": 1.645, "z_half_alpha": 1.960},
        "achieved": {"profile_at_0": rows[0][1], "profile_at_8": rows[-1][1]},
        "notes": [
            "profile recovered by inverting the exact capital curve; its "
            "value at 0 approaches the alpha/2 normal quantile and its "
            "large-x limit the alpha quantile"
        ],
    }
    return {"curve": tab}, sidecar


def _ruin_table(m: RiskModel, u: float, cs, methods, n_paths: int, seed: int):
    t = 1000.0
    return capital.ruin_curve(
        m, u, t, cs, methods, SimConfig(n_paths=n_paths, seed=seed, t=t)
    )


def _ruin_figure(route: str, n_paths: int, seed: int):
    cs = c_grid_range(0.5, 1.5, 0.05)
    tab = _ruin_table(_EXP_UNIT, 50.0, cs, ("exact", route, "mc"), n_paths, seed)
    achieved = exact.ruin_finite_exp(ExpPair(1.0, 1.0), 50.0, 1.0, 1000.0)
    sidecar = {
        "grid_lines": {"ruin_at_cstar": 0.26},
        "achieved": {"ruin_at_cstar": achieved},
    }
    return {"curve": tab}, sidecar


def _fig4(n_paths: int, seed: int):
    files, sidecar = _ruin_figure("cramer", n_paths, seed)
    sidecar["notes"] = [
        "the normal approximation is undefined at c = c* = 1; that cell is NA"
    ]
    return files, sidecar


def _fig5(n_paths: int, seed: int):
    return _ruin_figure("ig", n_paths, seed)


def _fig6(n_paths: int, seed: int):
    cs = c_grid_range(0.6, 1.6, 0.05)
    tab = _ruin_table(_MIX_PARETO, 40.0, cs, ("ig", "mc"), n_paths, seed)
    k = derived_constants(_MIX_PARETO)
    sidecar = {
        "grid_lines": {},
        "achieved": {"c_star": round(k.c_star, 4), "m_big": round(k.m_big, 4)},
        "notes": ["no numeric grid line published for this figure"],
    }
    return {"curve": tab}, sidecar


def _bounds_columns(
    m: RiskModel, alpha: float, t: float, cs, upper_for_super: Optional[Callable]
):
    """Asymptotic band on [0, c*]; optional upper bound beyond c*."""
    c_star = derived_constants(m).c_star
    lower, upper = [], []
    for c in cs:
        if c <= c_star:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lo, hi = approx.capital_asymptotic_bounds(m, alpha, t, c)
            lower.append(lo)
            upper.append(hi)
        else:
            lower.append(None)
            upper.append(upper_for_super(c) if upper_for_super else None)
    return lower, upper


def _fig7(n_paths: int, seed: int):
    m = _MODEL_I
    alpha, t = 0.05, 200.0
    cs = c_grid_range(0.0, 2.5, 0.05)
    # the non-ruin capital never exceeds the ultimate capital
    lower, upper = _bounds_columns(
        m, alpha, t, cs, lambda c: capital.ultimate_capital(m, alpha, c).value
    )
    spec = SolveSpec(backend="exact_exp")
    tab = capital.capital_curve(m, alpha, t, cs, spec, kinds=("nonruin",))
    mc = SolveSpec(backend="monte_carlo", sim=SimConfig(n_paths=n_paths, seed=seed, t=t))
    sim = capital.capital_curve(m, alpha, t, cs, mc, kinds=("nonruin",)).column("nonruin")
    out = CurveTable.from_columns(
        {"c": cs, "lower_bound": lower, "upper_bound": upper,
         "nonruin_exact": tab.column("nonruin"), "sim_nonruin": sim},
        {"alpha": alpha, "t": t, "seed": seed},
    )
    at_cstar = capital.nonruin_capital(m, alpha, t, 4.0 / 3.0, spec).value
    sidecar = {
        "grid_lines": {"c_star": 4.0 / 3.0, "nonruin_at_cstar": 59.9033},
        "achieved": {"nonruin_at_cstar": at_cstar},
        "notes": [
            "the published caption swaps the two exponential rates relative "
            "to the accompanying text; this preset follows the text "
            "(rates 4/5 for inter-claim times and 3/5 for claim sizes), "
            "which matches the printed c* = 4/3 and M = 0.75"
        ],
    }
    return {"curve": out}, sidecar


def _fig8(n_paths: int, seed: int):
    m = _MODEL_IV
    alpha, t = 0.05, 200.0
    cs = c_grid_range(0.0, 2.5, 0.05)
    lower, upper = _bounds_columns(
        m, alpha, t, cs, lambda c: bounds.capital_upper_bound_lundberg(m, alpha, c)
    )
    mc = SolveSpec(backend="monte_carlo", sim=SimConfig(n_paths=n_paths, seed=seed, t=t))
    sim = capital.capital_curve(m, alpha, t, cs, mc, kinds=("nonruin",)).column("nonruin")
    out = CurveTable.from_columns(
        {"c": cs, "lower_bound": lower, "upper_bound": upper, "sim_nonruin": sim},
        {"alpha": alpha, "t": t, "seed": seed},
    )
    i_star = int(np.argmin(np.abs(np.asarray(cs) - 4.0 / 3.0)))
    at_cstar = approx.capital_asymptotic_bounds(m, alpha, t, derived_constants(m).c_star)[1]
    sidecar = {
        "grid_lines": {"c_star": 4.0 / 3.0, "nonruin_at_cstar": 48.0},
        "achieved": {
            "sim_nonruin_at_cstar": sim[i_star],
            "endpoint_formula_at_cstar": at_cstar,
        },
        "notes": [
            "the published grid value 48 came from a 1000-path simulation; "
            "large simulations of this implementation concentrate near 51.5"
        ],
    }
    return {"curve": out}, sidecar


def _fig9(n_paths: int, seed: int):
    alpha, t = 0.05, 200.0
    cs = c_grid_range(0.0, 2.5, 0.05)
    m_dots = RiskModel(Exponential(4.0 / 5.0), Pareto(10.0, 0.05))
    m_cross = RiskModel(Exponential(4.0 / 5.0), Pareto(3.0, 0.3))
    mc = SolveSpec(backend="monte_carlo", sim=SimConfig(n_paths=n_paths, seed=seed, t=t))
    columns = {"c": cs}
    notes = []
    for label, m in (("dots", m_dots), ("crosses", m_cross)):
        lower, upper = _bounds_columns(m, alpha, t, cs, None)
        sim = capital.capital_curve(m, alpha, t, cs, mc, kinds=("nonruin",)).column("nonruin")
        columns.update({f"{label}_lower": lower, f"{label}_upper": upper, f"{label}_sim": sim})
        rep = model.theorem_preconditions(m)
        if not rep.capital_asymptotics_ok:
            notes.append(
                f"{label}: third claim-size moment not finite; the bound "
                "formulas are applied outside their stated hypotheses"
            )
    out = CurveTable.from_columns(columns, {"alpha": alpha, "t": t, "seed": seed})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        at_cstar = approx.capital_asymptotic_bounds(
            m_dots, alpha, t, derived_constants(m_dots).c_star
        )[1]
    sidecar = {
        "grid_lines": {
            "c_star_dots": 1.7778,
            "c_star_crosses": 1.3333,
            "nonruin_at_cstar": 80.0,
        },
        "achieved": {
            "c_star_dots": round(derived_constants(m_dots).c_star, 4),
            "c_star_crosses": round(derived_constants(m_cross).c_star, 4),
            "endpoint_formula_dots": at_cstar,
        },
        "notes": notes,
    }
    return {"curve": out}, sidecar


def _fig10(n_paths: int, seed: int):
    alpha, t = 0.05, 200.0
    cs = c_grid_range(0.0, 2.5, 0.05)
    m_dots = RiskModel(Exponential(4.0 / 5.0), Kummer(5.0, 5.0))
    m_cross = RiskModel(Exponential(4.0 / 5.0), Kummer(200.0, 200.0))
    columns = {"c": cs}
    for label, m in (("dots", m_dots), ("crosses", m_cross)):
        columns[f"{label}_lower"], columns[f"{label}_upper"] = _bounds_columns(m, alpha, t, cs, None)
    out = CurveTable.from_columns(columns, {"alpha": alpha, "t": t})
    sidecar = {
        "grid_lines": {
            "c_star_dots": 1.3333,
            "c_star_crosses": 0.8081,
            "sim_nonruin_at_cstar_dots": 102.0,
            "sim_nonruin_at_cstar_crosses": 36.0,
        },
        "achieved": {
            "c_star_dots": round(derived_constants(m_dots).c_star, 4),
            "c_star_crosses": round(derived_constants(m_cross).c_star, 4),
        },
        "limitations": [
            "no sampler is implemented for the gamma-ratio claim-size "
            "family, so the simulated capital curves cannot be reproduced; "
            "only the equilibrium premium rates and the asymptotic bounds "
            "band are computed",
            "the published simulated values 102 (dots) and 36 (crosses) at "
            "c* are recorded here as non-reproduced reference values",
        ],
    }
    return {"curve": out}, sidecar


def _table1(n_paths: int, seed: int):
    tab = constants_table(TABLE1_MODELS)
    sidecar = {
        "grid_lines": {
            "m_big": [1.0, 0.8750, 0.8, 1.0],
            "d2_big": [2.0, 2.3042, 1.2, 1.3333],
        },
        "achieved": {
            "m_big": tab.column("m_big"),
            "d2_big": tab.column("d2_big"),
        },
        "notes": [
            "the published D^2 = 1.3333 of row 4 is not reproduced: this "
            "preset's row 4, T and Y both Pareto(4, 0.4) in Lomax form, gives "
            "D^2 = 2 DY / EY = 10/3 = 3.3333; identical Pareto(4, 1) laws "
            "would give 4/3 = 1.3333"
        ],
    }
    return {"constants": tab}, sidecar


_PRESETS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "table1": _table1,
}

PRESET_IDS = tuple(_PRESETS)


def run_preset(preset_id: str, n_paths: int = DEFAULT_PATHS, seed: int = DEFAULT_SEED):
    """Build the tables and sidecar for one preset id.

    Returns (files, sidecar) where files maps a short curve name to a
    CurveTable.
    """
    if preset_id not in _PRESETS:
        raise DomainError(
            f"unknown preset {preset_id!r}; expected one of {PRESET_IDS}"
        )
    return _PRESETS[preset_id](n_paths, seed)
