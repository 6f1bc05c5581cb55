"""Benchmark of ruincapital: three workloads, end to end and layer by layer.

Run from the repository root (standard library only; the workloads run in
child interpreters that import ``src/ruincapital``):

    python3 perfbench/run.py --workload exact_grid --seed 20240817 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Each pass runs in a fresh interpreter (worker.py), so it starts with the
library's caches empty, as a new CLI process would.  Passes repeat until
``--seconds`` have gone by; the figures are medians over passes.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a fresh
interpreter imports ruincapital and builds the workload's inputs; the
median of at least ``MIN_SETUPS`` set-ups), ``run_s`` (one pass) and
``peak_rss_mb`` (peak resident memory of the pass's process).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics listed in layers.json.

Times are in reference seconds: wall seconds times ``CAL_REF_S`` over the
mean time of a fixed calibration kernel (worker.calibrate) run twice in
the same process right after set-up and, for a pass, twice right after
the pass.  The speed of a shared host drifts by a fifth or more within
minutes, which moves raw times run to run by more than any useful bound;
the ratio cancels the drift.  The raw wall times are the per-layer
metrics ``setup_wall_s`` and ``run_wall_s``.

Every pass checks every output cell (checks.py).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (cells checked and failed, over all passes) and ``metrics``.
The line before it holds the samples, the failure fraction, the failures
and the machine.  The exit code is 1 when a check fails and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_grid", "mc_grid", "cli_approx")
DEFAULT_SEED = 20240817
MIN_SETUPS = 7
CHILD_TIMEOUT_S = 150.0
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics read from a whole run rather than from one traced pass.
RUN_LEVEL = ("setup_wall_s", "run_wall_s", "mc_ineff", "trace_overhead_frac")
# Calibration kernel time that defines a reference second.
CAL_REF_S = 0.25
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run worker.py once; returns its result with set-up and pass times."""
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    # bytecode caches are written on the warm-up, so set-up does not compile
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_wall_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    result = json.loads(rest.splitlines()[-1])
    result["setup_wall_s"] = setup_wall_s
    result["setup_s"] = setup_wall_s * CAL_REF_S / statistics.fmean(result["cal_before"])
    if mode != "setup":
        cal = result["cal_before"] + result["cal_after"]
        result["run_s"] = result["run_wall_s"] * CAL_REF_S / statistics.fmean(cal)
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Repeat passes for ``seconds``; returns (result line, info line)."""
    spawn(workload, seed, "setup")  # unmeasured: warms the file and bytecode caches
    plain, spans, rounds = [], [], []
    start = time.monotonic()
    # Stop before a round that would end past ``seconds``, so a run lasts
    # about ``seconds`` whatever the pass time.
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
        t0 = time.monotonic()
        plain.append(spawn(workload, seed, "pass"))
        if traced:
            spans.append(spawn(workload, seed, "trace"))
        rounds.append(time.monotonic() - t0)
    passes = plain + spans
    setups = list(passes)
    if not traced:
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(workload, seed, "setup"))
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        metrics = layer_metrics(plain, spans)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "passes": len(plain),
        "traced_passes": len(spans),
        "run_s_samples": [r["run_s"] for r in plain],
        "run_wall_s_samples": [r["run_wall_s"] for r in plain],
        "traced_run_s_samples": [r["run_s"] for r in spans],
        "traced_run_wall_s_samples": [r["run_wall_s"] for r in spans],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "setup_wall_s_samples": [r["setup_wall_s"] for r in setups],
        "calibration_s": [r["cal_before"] + r.get("cal_after", []) for r in plain],
        "failed_frac": failed / attempted if attempted else 0.0,
        "mc_cells_identical_to_reference": passes[0]["mc_identical"],
        "mc_cells": passes[0]["mc_cells"],
        "failures": [m for r in passes for m in r["messages"]][:20],
        "machine": machine(passes[0]["versions"], seed),
    }
    return result, info


def load_layers() -> list:
    return json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]


def layer_metrics(plain: list, spans: list) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    out = {}
    for spec in load_layers():
        name = spec["name"]
        if name in RUN_LEVEL:
            values = run_level_values(name, plain, spans)
        else:
            values = [layer_value(name, r) for r in spans]
            if name.endswith((".calls", ".variates")) and len(set(values)) > 1:
                print(f"warning: {name} differs between traced passes: {values}",
                      file=sys.stderr)
        out[name] = {"value": statistics.median(values), "unit": spec["unit"]}
    return out


def run_level_values(name: str, plain: list, spans: list) -> list:
    """Samples of a run-level metric from untraced and traced passes."""
    if name in ("setup_wall_s", "run_wall_s"):
        return [r[name] for r in plain]
    if name == "mc_ineff":
        return [r["run_s"] * r["mc_hw2"] for r in plain]
    return [statistics.median(r["run_s"] for r in spans)
            / statistics.median(r["run_s"] for r in plain) - 1.0]


def layer_value(name: str, traced: dict) -> float:
    """One per-layer metric of one traced pass."""
    stats = traced["stats"]
    if name == "capital.evals_per_cell":
        cells = traced["inverted_cells"]
        return traced["capital_evals"] / cells if cells else 0.0
    fn, field = name.rsplit(".", 1)
    st = stats.get(fn, {"calls": 0, "self_s": 0.0, "units": 0})
    if field == "ns_per_variate":
        return st["self_s"] / st["units"] * 1e9 if st["units"] else 0.0
    if field == "variates":
        return st["units"]
    return st[field]


def source_sha256() -> str:
    """SHA-256 over the library's source files, in name order."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ruincapital").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine(versions: dict, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "source_sha256": source_sha256(),
        "seed": seed,
        "threads": SINGLE_THREAD,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, as a table; 1 if a check failed."""
    summary, ok = {}, True
    print(f"{'workload':<11} {'setup_s':>8} {'run_s':>8} {'run_wall_s':>10} "
          f"{'peak_rss_mb':>11} {'failed_frac':>11} {'mc_ineff':>9}")
    for w in WORKLOADS:
        plain, info = measure(w, seed, seconds, traced=False)
        layers, _ = measure(w, seed, seconds, traced=True)
        ok = ok and plain["correct"] and layers["correct"]
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        lm = {k: v["value"] for k, v in layers["metrics"].items()}
        ineff = f"{lm['mc_ineff']:9.3f}" if w == "mc_grid" else f"{'-':>9}"
        print(f"{w:<11} {m['setup_s']:8.3f} {m['run_s']:8.3f} {lm['run_wall_s']:10.3f} "
              f"{m['peak_rss_mb']:11.1f} {info['failed_frac']:11.4f} {ineff}")
        for msg in info["failures"]:
            print(f"  FAIL {msg}")
        summary[w] = {"end_to_end": m, "failed_frac": info["failed_frac"], "per_layer": lm}
    print("per-layer metrics (traced pass):")
    for spec in load_layers():
        row = "  ".join(f"{summary[w]['per_layer'][spec['name']]:12.6g}" for w in WORKLOADS)
        print(f"  {spec['name']:<40} {row}  {spec['unit']}")
    print(json.dumps({"correct": ok, "machine": info["machine"], "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ruincapital" / "__init__.py").is_file():
        print(f"error: no ruincapital source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
