"""The fast demos run in-process and print exactly their recorded stdout.

Each stdout is compared in full with its file in ``tests/golden/demos``.
Demos 02 and 04 spend about a second each in 20k-path simulations;
``tests/golden_outputs.py --check`` compares them with the other three.
"""

from pathlib import Path

import pytest

from golden_outputs import GOLDEN, compare, demo_stdout, version_note


@pytest.mark.parametrize("name, expected", [
    (name, GOLDEN / "demos" / f"{Path(name).stem}.txt")
    for name in ("01_capital_curves.py", "03_bounds_and_ultimate.py", "05_reference_figures.py")
])
def test_demo_runs_and_prints(name, expected):
    report = compare(name, expected, demo_stdout(name))
    assert not report, "\n".join(report + version_note())
