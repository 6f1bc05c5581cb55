import math
import warnings

import pytest

from ruincapital import presets
from ruincapital.capital import SolveSpec, nonruin_capital
from ruincapital.dist import Exponential
from ruincapital.model import RiskModel
from ruincapital.table import CurveTable

UNIT = RiskModel(Exponential(1.0), Exponential(1.0))


@pytest.mark.parametrize("preset", presets.PRESET_IDS)
def test_preset_runs_and_round_trips(preset):
    with warnings.catch_warnings():
        # few simulated tail paths at this path count
        warnings.simplefilter("ignore", RuntimeWarning)
        files, sidecar = presets.run_preset(preset, n_paths=200, seed=3)
    assert files
    for table in files.values():
        assert len(table) > 0
        back = CurveTable.from_text(table.to_text())
        assert back.columns == table.columns
        assert back.rows == table.rows
        assert back.to_text() == table.to_text()
    assert "grid_lines" in sidecar and "achieved" in sidecar


def test_fig3_profile_equals_cold_solves():
    # fig3 reads its profile off one warm-started curve; each value must
    # match an independent solve at its own rate to the solver's tolerance
    # in u (1e-6), scaled by the profile's sqrt(2 t) denominator
    t, scale = 200.0, math.sqrt(2.0)
    files, sidecar = presets.run_preset("fig3", n_paths=200, seed=3)
    xs = files["curve"].column("x")
    assert xs == sorted(xs)
    profile = dict(files["curve"].rows)
    assert sidecar["achieved"]["profile_at_0"] == profile[0.0]
    for x in (0.0, 4.0, 8.0):
        c = 1.0 - x * scale / math.sqrt(t)
        u = nonruin_capital(UNIT, 0.05, t, c, SolveSpec(backend="exact_exp")).value
        cold = (u - (1.0 - c) * t) / (scale * math.sqrt(t))
        assert profile[x] == pytest.approx(cold, abs=1e-6 / (scale * math.sqrt(t)))
