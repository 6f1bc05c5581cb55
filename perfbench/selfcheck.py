"""Self-check of the benchmark: trace counters, their repeatability, checks.

    python3 perfbench/selfcheck.py        # about a minute

* every per-layer counter is nonzero on the workloads layers.json names
  in ``on`` and zero on those in ``zero_on``;
* counts repeat exactly between two traced passes, so they can be quoted
  as counts;
* the value checks pass on the recorded reference and fail when it is
  perturbed, and the invariant checks catch a violating output;
* BENCHMARK.json names the metrics and workloads this runner prints.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
import warnings
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED
COUNTS = (".calls", ".variates", "capital.evals_per_cell")


def reference(workload: str) -> dict:
    ref = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    return ref["workloads"][workload]


def one_pass(workload: str):
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore")
        prepared = workloads.WORKLOADS[workload](SEED, Path(tmp))
        return prepared.curves(prepared.run())


class BenchmarkFile(unittest.TestCase):
    def test_names_match_runner(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            bench["per_layer"],
            [{k: m[k] for k in ("name", "unit", "better")} for m in run.load_layers()],
        )


class TraceCounters(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.passes = {w: [run.spawn(w, SEED, "trace") for _ in range(2)] for w in run.WORKLOADS}

    def values(self, workload: str, name: str) -> list:
        if name in run.RUN_LEVEL:
            return run.run_level_values(name, self.passes[workload], self.passes[workload])
        return [run.layer_value(name, r) for r in self.passes[workload]]

    def test_nonzero_and_zero_where_predicted(self):
        for spec in run.load_layers():
            for w in spec["on"]:
                with self.subTest(metric=spec["name"], workload=w):
                    self.assertTrue(all(v > 0 for v in self.values(w, spec["name"])))
            for w in spec["zero_on"]:
                with self.subTest(metric=spec["name"], workload=w):
                    self.assertEqual(self.values(w, spec["name"]), [0, 0])

    def test_counts_repeat_exactly(self):
        for spec in run.load_layers():
            if not spec["name"].endswith(COUNTS):
                continue
            for w in run.WORKLOADS:
                with self.subTest(metric=spec["name"], workload=w):
                    a, b = self.values(w, spec["name"])
                    self.assertEqual(a, b)

    def test_traced_passes_are_correct(self):
        for w, results in self.passes.items():
            for r in results:
                self.assertEqual(r["failed"], 0, (w, r["messages"]))
                self.assertGreater(r["attempted"], 0)


class ValueChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = one_pass("cli_approx")
        cls.mc = one_pass("mc_grid")

    def test_reference_passes(self):
        for output, w in ((self.cli, "cli_approx"), (self.mc, "mc_grid")):
            rep = checks.check(output, reference(w))
            self.assertEqual(rep.failed, set(), rep.messages)
            self.assertGreater(rep.attempted, 0)

    def test_perturbed_deterministic_reference_fails(self):
        ref = copy.deepcopy(reference("cli_approx"))
        key = "iv/a0.05/t200/nonruin/nonruin_ig[20]"
        ref["cells"][key] += 1e-3
        self.assertEqual(checks.check(self.cli, ref).failed, {key})

    def test_perturbed_converged_reference_fails(self):
        ref = copy.deepcopy(reference("mc_grid"))
        key = "iv/nonruin[20]"
        value, hw, paths = ref["converged"][key]
        ref["converged"][key] = [value + 0.1 * value, hw, paths]
        self.assertIn(key, checks.check(self.mc, ref).failed)

    def test_expected_na_is_not_attempted(self):
        ref = reference("cli_approx")
        rep = checks.check(self.cli, ref)
        self.assertEqual(rep.attempted, len(ref["cells"]) - len(ref["na"]))

    def test_invariants_catch_violations(self):
        Curve = workloads.Curve
        out = workloads.Output(
            [Curve("a/var", "capital", [3.0, 2.0, 2.5], monotone=True),
             Curve("a/nonruin", "capital", [4.0, 1.0, 0.5], monotone=True),
             Curve("anchor/unit_nonruin_c1", "capital", [40.2])],
            pairs=[("a/var", "a/nonruin")],
        )
        rep = checks.Report()
        checks._check_invariants(rep, out)
        # a rise at [2], VaR above non-ruin at [1] and [2], an anchor off by 0.12
        self.assertEqual(rep.failed, {"a/var[1]", "a/var[2]", "anchor/unit_nonruin_c1[0]"})
        rep = checks.Report()
        checks._check_mc(rep, "x", 5.0, 6.0, 7.0, 100, [5.0, 0.1, 4000])
        self.assertEqual(rep.failed, {"x"})  # the interval misses its point

    def test_missing_cell_fails(self):
        out = copy.deepcopy(self.cli)
        out.curves[0].values[3] = None
        key = f"{out.curves[0].id}[3]"
        self.assertIn(key, checks.check(out, reference("cli_approx")).failed)


if __name__ == "__main__":
    unittest.main(verbosity=2)
