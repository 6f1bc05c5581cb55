"""Record reference.json: every cell under the default seed, plus converged
Monte Carlo values.

Run from the repository root at the commit whose values are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

It runs each workload once under the default seed and stores every cell
and the reason of every NA cell.  For the Monte Carlo cells it adds a run
with ``CONVERGED_FACTOR`` times the paths on an independent seed, whose
values and half-widths the statistical check compares against.  Takes a
few minutes, mostly in the converged run.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

import workloads
from run import source_sha256

CONVERGED_SEED = 1
CONVERGED_FACTOR = 40

HERE = Path(__file__).resolve().parent


def _cells(output) -> tuple[dict, dict]:
    cells, na = {}, {}
    for cv in output.curves:
        for i, v in enumerate(cv.values):
            key = f"{cv.id}[{i}]"
            cells[key] = v
            if v is None:
                if i not in cv.reasons:
                    raise SystemExit(f"{key} is NA without a recorded reason")
                na[key] = cv.reasons[i]
    return cells, na


def _output(make, seed: int, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        prepared = make(seed, Path(tmp), **kwargs)
        output = prepared.curves(prepared.run())
    if output.errors:
        raise SystemExit(f"errors at the reference commit: {output.errors}")
    return output


def main() -> int:
    warnings.simplefilter("ignore")
    seed = workloads.DEFAULT_SEED
    ref = {
        "seed": seed,
        "source_sha256": source_sha256(),
        "converged_seed": CONVERGED_SEED,
        "converged_factor": CONVERGED_FACTOR,
        "workloads": {},
    }
    for name, make in workloads.WORKLOADS.items():
        print(f"recording {name}", file=sys.stderr)
        cells, na = _cells(_output(make, seed))
        ref["workloads"][name] = {"cells": cells, "na": na}
    paths = (workloads.MC_PATHS_IV * CONVERGED_FACTOR,
             workloads.MC_PATHS_HEAVY * CONVERGED_FACTOR)
    print(f"recording converged mc_grid at {paths} paths", file=sys.stderr)
    big = _output(workloads.mc_grid, CONVERGED_SEED, paths=paths)
    ref["workloads"]["mc_grid"]["converged"] = {
        f"{cv.id}[{i}]": [v, (cv.hi[i] - cv.lo[i]) / 2.0, cv.n_paths]
        for cv in big.curves
        for i, v in enumerate(cv.values)
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
