"""Smoke test of the fast demos: each runs in-process and prints its story.

Demos 02 and 04 spend seconds each in 20k-path simulations and are run by
hand.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name, expected", [
    ("01_capital_curves.py", ["equilibrium premium rate c* = 1"]),
    # exponential claims: the enclosure is one point, the exact capital
    ("03_bounds_and_ultimate.py", ["exact capital 7.7708, bound interval [7.7708, 7.7708]",
                                   "prefactors b- = 0.1850, b+ = 0.2819"]),
    ("05_reference_figures.py", ["--- fig1 (", "--- table1 (", "--- fig10 ("]),
])
def test_demo_runs_and_prints(name, expected):
    printed = _run(name)
    for line in expected:
        assert line in printed
