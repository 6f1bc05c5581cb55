"""The library's import path: numpy alone, with scipy.special on first use.

``scipy.special`` is half the import time of ``ruincapital.cli``, so only
the exact and inverse Gaussian kernels (and Erlang or Kummer formulas) load
it, through ``special._scipy_special``.  ``scipy.optimize`` and
``scipy.integrate`` pull in linalg, sparse and more; no solve here loads
them.  The route check runs in a fresh interpreter and reads only which
modules are loaded, never a time.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import json, sys, tempfile
from pathlib import Path
steps = []
def step(name):
    steps.append([name, sorted(m for m in ("scipy.special", "scipy.optimize", "scipy.integrate")
                               if m in sys.modules)])
import ruincapital, ruincapital.cli, ruincapital.presets
from ruincapital import (Erlang, Exponential, MixtureExp2, Pareto, RiskModel, SimConfig, SolveSpec,
                         capital_curve, nonruin_capital, ultimate_capital)
from ruincapital.montecarlo import simulate_curve
step("import")
unit = RiskModel(Exponential(1.0), Exponential(1.0))
"""

# Every route that needs no special function, then one exact solve.
ROUTES = """
iv = RiskModel(Erlang(1.6, 2), Exponential(0.6))
sim = SimConfig(n_paths=200, seed=1, t=50.0)
capital_curve(iv, 0.05, 50.0, [0.8, 1.0], SolveSpec(backend="monte_carlo", sim=sim))
step("monte_carlo capital_curve")
heavy = RiskModel(MixtureExp2(1.0, 2.0, 2.0 / 3.0), Pareto(4.0, 0.35))
simulate_curve(heavy, 0.05, [1.0, 1.2], sim, u=5.0)
step("simulate_curve")
ultimate_capital(iv, 0.05, 2.0)
step("ultimate_capital")
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "iv.json"
    cfg.write_text(json.dumps({"model": {"t_law": {"family": "erlang", "rate": 1.6, "shape": 2},
                                         "y_law": {"family": "exponential", "rate": 0.6}}}))
    out = str(Path(tmp) / "k.csv")
    assert ruincapital.cli.main(["constants", "--config", str(cfg), "--out", out]) == 0
step("cli constants")
nonruin_capital(unit, 0.05, 200.0, 0.8, SolveSpec(backend="exact_exp"))
step("exact_exp")
print(json.dumps(steps))
"""

# A fresh interpreter with one inverse Gaussian solve after the import.
IG = """
nonruin_capital(unit, 0.05, 200.0, 0.8, SolveSpec(backend="inverse_gaussian"))
step("inverse_gaussian")
print(json.dumps(steps[1:]))
"""


def _run(script: str) -> list:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def steps():
    """Which of the three scipy modules are loaded after each step."""
    return dict(_run(PRELUDE + ROUTES) + _run(PRELUDE + IG))


def test_solves_load_neither_scipy_optimize_nor_scipy_integrate(steps):
    for name, loaded in steps.items():
        assert "scipy.optimize" not in loaded and "scipy.integrate" not in loaded, name


def test_import_and_the_routes_without_special_functions_never_load_scipy_special(steps):
    for name in ("import", "monte_carlo capital_curve", "simulate_curve", "ultimate_capital",
                 "cli constants"):
        assert "scipy.special" not in steps[name], name


def test_an_exact_call_and_an_ig_call_each_load_scipy_special(steps):
    assert "scipy.special" in steps["exact_exp"]
    assert "scipy.special" in steps["inverse_gaussian"]


def test_no_module_of_the_package_imports_scipy_at_module_level():
    for path in sorted((SRC / "ruincapital").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), path.name
