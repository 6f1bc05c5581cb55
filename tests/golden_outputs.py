"""Record or check the golden outputs: every ``reproduce`` preset and every demo's stdout.

Run from the repository root at the commit whose outputs are the reference:

    python3 tests/golden_outputs.py           # re-record
    python3 tests/golden_outputs.py --check   # compare only

The script puts the repository's ``src`` first on ``sys.path`` itself.

Recording writes ``tests/golden/``:

* ``presets/``: the 22 files of the 11 presets, as ``ruincapital reproduce
  <preset> --paths 500`` writes them under the default seed;
* ``demos/``: the stdout of the five demos, one ``.txt`` each;
* ``versions.json``: the Python, numpy and scipy versions they were
  recorded with, so a mismatch after an environment change explains itself.

``--check`` regenerates everything, writes nothing, and reports every file
that differs, with the column and the largest absolute and relative
difference.  Tier-1 compares the presets and demos 01, 03 and 05; demos 02
and 04 spend about a second each in simulations and are compared only here.  A change
that moves outputs on purpose re-records and lists every moved file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
GOLDEN = ROOT / "tests" / "golden"
DEMOS = ROOT / "demos"
PRESET_PATHS = 500


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def write_presets(outdir: Path) -> None:
    """Every preset into ``outdir`` through the CLI, at the default seed."""
    from ruincapital import cli
    from ruincapital.presets import PRESET_IDS

    with contextlib.redirect_stdout(io.StringIO()):
        for preset in PRESET_IDS:
            argv = ["reproduce", preset, "--paths", str(PRESET_PATHS), "--out", str(outdir)]
            status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"reproduce {preset} exited with {status}")


def demo_stdout(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


def _columns(name: str, text: str) -> dict[str, list[str]]:
    """The file cut into named columns of value strings: a CSV's metadata
    lines and columns, a JSON file's leaves by key path, a text's lines."""
    cols: dict[str, list[str]] = {}
    if name.endswith(".csv"):
        lines = text.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        for ln in meta:
            key, _, value = ln.partition(":")
            cols[key] = [value.strip()]
        rows = list(csv.reader(lines[len(meta):]))
        for j, head in enumerate(rows[0] if rows else []):
            cols[head] = [row[j] if j < len(row) else "" for row in rows[1:]]
    elif name.endswith(".json"):
        def walk(path: str, node) -> None:
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(f"{path}.{k}" if path else k, v)
            elif isinstance(node, list):
                for v in node:
                    walk(path, v)
            else:
                cols.setdefault(path, []).append(json.dumps(node))
        walk("", json.loads(text))
    else:
        for i, ln in enumerate(text.splitlines(), 1):
            cols[f"line {i}"] = ln.split()
    return cols


def _float(s: str):
    try:
        return float(s)
    except ValueError:
        return None


def describe(name: str, want: str, got: str) -> list[str]:
    """One line per column of ``name`` that differs: the largest absolute and
    relative difference over its numbers, or the first differing text."""
    a, b = _columns(name, want), _columns(name, got)
    out = []
    for col in list(a) + [c for c in b if c not in a]:
        x, y = a.get(col), b.get(col)
        if x == y:
            continue
        if x is None or y is None or len(x) != len(y):
            out.append(f"{name}: column {col!r}: {len(x or [])} values recorded, "
                       f"{len(y or [])} now")
            continue
        pairs = [(_float(p), _float(q), p, q) for p, q in zip(x, y) if p != q]
        nums = [(p, q) for p, q, _, _ in pairs if p is not None and q is not None]
        if len(nums) < len(pairs):
            _, _, p, q = next(t for t in pairs if t[0] is None or t[1] is None)
            out.append(f"{name}: column {col!r}: {p!r} recorded, {q!r} now")
            continue
        abs_d = max(abs(p - q) for p, q in nums)
        rel_d = max(abs(p - q) / max(abs(p), abs(q)) for p, q in nums)
        out.append(f"{name}: column {col!r}: {len(nums)} cells differ, largest absolute "
                   f"difference {abs_d:.3g}, largest relative {rel_d:.3g}")
    return out or [f"{name}: the bytes differ but no column does (line endings or layout)"]


def compare(name: str, golden: Path, got: str) -> list[str]:
    """Empty when ``got`` is byte-identical to the golden file, else why not."""
    if not golden.exists():
        return [f"{name}: no golden file {golden.relative_to(ROOT)}"]
    want = golden.read_text(encoding="utf-8")
    return [] if want == got else describe(name, want, got)


def version_note() -> list[str]:
    """A line naming the recorded and running versions when they differ."""
    recorded = json.loads((GOLDEN / "versions.json").read_text(encoding="utf-8"))
    return [] if recorded == versions() else [f"recorded with {recorded}, running {versions()}"]


def compare_presets(outdir: Path) -> list[str]:
    """Every difference between the presets written to ``outdir`` and the goldens."""
    recorded = {p.name for p in (GOLDEN / "presets").iterdir()}
    made = {p.name for p in outdir.iterdir()}
    report = [f"{n}: recorded but not written now" for n in sorted(recorded - made)]
    for n in sorted(made):
        report += compare(n, GOLDEN / "presets" / n, (outdir / n).read_text(encoding="utf-8"))
    return report


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__, file=sys.stderr)
        return 2
    demos = sorted(p.name for p in DEMOS.glob("*.py"))
    if check:
        with tempfile.TemporaryDirectory() as tmp:
            write_presets(Path(tmp))
            report = compare_presets(Path(tmp))
        for name in demos:
            report += compare(name, GOLDEN / "demos" / f"{Path(name).stem}.txt", demo_stdout(name))
        report += version_note() if report else []
        print("\n".join(report) or "every golden output is byte-identical")
        return 1 if report else 0
    for sub in ("presets", "demos"):
        (GOLDEN / sub).mkdir(parents=True, exist_ok=True)
        for old in (GOLDEN / sub).iterdir():
            old.unlink()
    write_presets(GOLDEN / "presets")
    for name in demos:
        golden = GOLDEN / "demos" / f"{Path(name).stem}.txt"
        golden.write_text(demo_stdout(name), encoding="utf-8")
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
