import warnings

import pytest

from ruincapital import presets
from ruincapital.table import CurveTable


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
