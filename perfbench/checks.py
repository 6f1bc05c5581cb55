"""Value checks of one pass against the recorded reference.

A cell is named ``<curve id>[<index>]``.  The reference, recorded at the
commit that introduced the benchmark under the default seed, holds

* ``cells``: every cell's value (None for a cell that was NA);
* ``na``: the reason each NA cell gave; these expected NA cells are left
  out of both the attempted and the failed count;
* ``converged``: for every Monte Carlo cell, ``[value, half-width,
  n_paths]`` of a run with many more paths.

A deterministic cell fails when it is NA or off its reference by more than
its kind's tolerance.  A Monte Carlo cell fails when it is further from its
converged value than ``MC_K`` times its 95% half-width (at least the
half-width a plain estimator would have at this path count), so a changed
draw order or a variance-reduction estimator passes while a biased one
fails.  On every seed the checks also require capitals nonincreasing in c,
VaR capital at most the non-ruin capital, every Monte Carlo interval to
contain its point, and the three published anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from workloads import ANCHORS

# Absolute tolerances of deterministic cells: capitals are solved to
# u_tolerance 1e-6, probabilities and constants are closed forms.
TOLERANCE = {"capital": 1e-4, "prob": 1e-6, "const": 1e-9}

# Half-widths are 1.96 sigma, so 3 half-widths is about 6 sigma: a false
# failure is then unlikely across thousands of Monte Carlo cells and runs.
MC_K = 3.0


@dataclass
class Report:
    attempted: int = 0
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    mc_identical: int = 0
    mc_cells: int = 0

    def fail(self, cell: str, message: str) -> None:
        if cell not in self.failed:
            self.failed.add(cell)
            if len(self.messages) < 20:
                self.messages.append(f"{cell}: {message}")


def check(output, reference: dict) -> Report:
    """Check every cell of ``output`` (a workloads.Output) against ``reference``."""
    rep = Report()
    cells, na, converged = reference["cells"], reference["na"], reference.get("converged", {})
    for msg in output.errors:
        rep.messages.append(msg)
    seen = set()
    for cv in output.curves:
        for i, v in enumerate(cv.values):
            key = f"{cv.id}[{i}]"
            seen.add(key)
            if key in na:
                continue
            rep.attempted += 1
            if key not in cells:
                rep.fail(key, "cell not in the reference")
            elif v is None:
                rep.fail(key, f"NA ({cv.reasons.get(i, 'no reason given')})")
            elif not math.isfinite(v):
                rep.fail(key, f"not finite: {v!r}")
            elif cv.n_paths is not None:
                rep.mc_cells += 1
                rep.mc_identical += v == cells[key]
                _check_mc(rep, key, v, cv.lo[i], cv.hi[i], cv.n_paths, converged.get(key))
            elif abs(v - cells[key]) > TOLERANCE[cv.kind]:
                rep.fail(key, f"{v!r} differs from reference {cells[key]!r}")
    for key in set(cells) - seen:
        if key not in na:
            rep.attempted += 1
            rep.fail(key, "cell missing from the output")
    _check_invariants(rep, output)
    return rep


def _check_mc(rep, key, v, lo, hi, n_paths, ref) -> None:
    if lo is None or hi is None or not lo <= v <= hi:
        rep.fail(key, f"95% interval [{lo}, {hi}] does not contain {v}")
        return
    if ref is None:
        rep.fail(key, "no converged reference")
        return
    ref_value, ref_hw, ref_paths = ref
    hw = max((hi - lo) / 2.0, ref_hw * math.sqrt(ref_paths / n_paths))
    if abs(v - ref_value) > MC_K * hw + ref_hw:
        rep.fail(key, f"{v!r} is {abs(v - ref_value) / hw:.1f} half-widths "
                      f"from converged {ref_value!r}")


def _mc_slack(cv, i) -> float:
    if cv.n_paths is None or cv.lo[i] is None or cv.hi[i] is None:
        return TOLERANCE["capital"]
    return TOLERANCE["capital"] + (cv.hi[i] - cv.lo[i]) / 2.0


def _check_invariants(rep, output) -> None:
    by_id = {cv.id: cv for cv in output.curves}
    for cv in output.curves:
        if not cv.monotone:
            continue
        prev = None
        for i, v in enumerate(cv.values):
            if v is None or i < cv.monotone_from:
                continue
            if prev is not None and v > cv.values[prev] + max(_mc_slack(cv, i), _mc_slack(cv, prev)):
                rep.fail(f"{cv.id}[{i}]", f"capital rises with c: {cv.values[prev]!r} -> {v!r}")
            prev = i
    for var_id, non_id in output.pairs:
        var, non = by_id[var_id], by_id[non_id]
        for i, (a, b) in enumerate(zip(var.values, non.values)):
            if a is not None and b is not None and a > b + max(_mc_slack(var, i), _mc_slack(non, i)):
                rep.fail(f"{var_id}[{i}]", f"VaR capital {a!r} exceeds non-ruin capital {b!r}")
    for cid, published, tol in ANCHORS:
        cv = by_id.get(cid)
        if cv is None:
            continue
        v = cv.values[0]
        if v is None or abs(v - published) > tol:
            rep.fail(f"{cid}[0]", f"{v!r} outside published {published} +- {tol}")
