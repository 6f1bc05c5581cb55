"""The library's import path: numpy and scipy.special, nothing heavier.

``scipy.optimize`` and ``scipy.integrate`` pull in linalg, sparse and more,
which would double the start-up time of every process that imports the
package.  The check runs in a fresh interpreter and reads only which
modules are loaded, never a time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import ruincapital, ruincapital.cli, ruincapital.presets
from ruincapital import Erlang, Exponential, RiskModel, SolveSpec, nonruin_capital, ultimate_capital
unit = RiskModel(Exponential(1.0), Exponential(1.0))
for backend in ("exact_exp", "inverse_gaussian"):
    nonruin_capital(unit, 0.05, 200.0, 0.8, SolveSpec(backend=backend))
ultimate_capital(RiskModel(Erlang(1.6, 2), Exponential(0.6)), 0.05, 2.0)
print(" ".join(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
"""


def test_solves_load_neither_scipy_optimize_nor_scipy_integrate():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
