"""One benchmark process: set up a workload, optionally run one pass.

Started by run.py, one fresh interpreter per pass, so every pass begins
with the library's caches empty, as a new CLI process would.  The protocol
is two lines on standard output: ``ready`` once the library is imported
and the inputs are built (run.py times set-up up to that line), then one
JSON object with the calibration kernel's times and, unless only set-up
is asked for, the pass's wall time, peak memory, check report and, when
traced, the layer statistics.

    python3 perfbench/worker.py --root . --workload exact_grid --seed 1 --mode pass
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

# Calibration kernels timed after set-up (before the pass), and after the pass.
CALIBRATIONS = 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    import ruincapital
    import workloads

    src = root / "src"
    if src not in Path(ruincapital.__file__).resolve().parents:
        print(f"error: ruincapital imported from {ruincapital.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    workdir = root / ".bench_work"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        prepared = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        print("ready", flush=True)
        cal_before = [calibrate() for _ in range(CALIBRATIONS)]
        if args.mode == "setup":
            result = {"cal_before": cal_before}
        else:
            result = run_pass(prepared, args.workload, args.mode == "trace", cal_before)
        print(json.dumps(result), flush=True)
    return 0


def calibrate() -> float:
    """Seconds a fixed mix of interpreter, numpy and scipy work takes.

    The speed of a shared host drifts by a fifth or more within minutes;
    run.py scales set-up and pass times by this kernel's time, measured in
    the same process right after set-up and right after the pass, which
    cancels the drift.  The arrays are small so the kernel does not raise
    the peak memory.  Changing this kernel changes every reported time.
    """
    import numpy as np
    from scipy import special

    x = np.linspace(0.1, 1.0, 64)
    a = np.arange(16384.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10000):
        acc += float(special.i1e(x * (i % 7)).sum())
    for _ in range(3000):
        acc += float(np.sqrt(a).sum())
    k = 0
    for j in range(2_000_000):
        k += j % 13
    return time.perf_counter() - t0


def run_pass(prepared, workload: str, traced: bool, cal_before: list) -> dict:
    """Run and check one pass; returns the JSON-ready result."""
    import numpy
    import scipy

    import checks
    import workloads
    from layertrace import Trace

    tr = Trace().install() if traced else None
    t0 = time.perf_counter()
    try:
        raw = prepared.run()
    finally:
        run_s = time.perf_counter() - t0
        if tr is not None:
            tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_after = [calibrate() for _ in range(CALIBRATIONS)]
    output = prepared.curves(raw)
    reference = json.loads(
        (Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8")
    )["workloads"][workload]
    rep = checks.check(output, reference)
    result = {
        "run_wall_s": run_s,
        "cal_before": cal_before,
        "cal_after": cal_after,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rep.attempted,
        "failed": len(rep.failed),
        "messages": rep.messages,
        "mc_cells": rep.mc_cells,
        "mc_identical": rep.mc_identical,
        "mc_hw2": workloads.mean_nonruin_halfwidth2(output),
        "inverted_cells": output.inverted_cells(),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tr is not None:
        result["stats"] = tr.snapshot()
        result["capital_evals"] = tr.capital_evals()
    return result


if __name__ == "__main__":
    sys.exit(main())
