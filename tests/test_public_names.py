"""Every public name resolves, and every function the benchmark traces exists.

``perfbench/layers.json`` names its per-layer metrics
``<module>.<function>.<field>``.  The tracer wraps the functions it finds,
so a metric whose function has been deleted reads 0 on every run; this
test makes such a deletion fail here instead of quietly emptying a layer.
The file is only read.
"""

import importlib
import json
import pkgutil
from pathlib import Path

import ruincapital

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"
# named by layers.json though the library deleted it; the benchmark's next
# change re-points its two metrics at the inverse Gaussian kernel that runs
GONE = {"special.inverse_gaussian_cdf"}
MODULES = {
    info.name: importlib.import_module(f"ruincapital.{info.name}")
    for info in pkgutil.iter_modules(ruincapital.__path__)
}


def _defined(path: str) -> bool:
    """Whether ``<module>.<attribute>...`` names a callable of the library."""
    module, *attrs = path.split(".")
    obj = MODULES.get(module)
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_traced_function_is_defined_but_the_one_known_gone():
    names = [metric["name"] for metric in json.loads(LAYERS.read_text())["metrics"]]
    # names with fewer than three parts are whole-run metrics, not functions
    traced = {name.rsplit(".", 1)[0] for name in names if name.count(".") >= 2}
    assert "bounds.ultimate_capital_interval" in traced
    assert {path for path in traced if not _defined(path)} == GONE


def test_every_name_in_every_all_resolves():
    unresolved = [
        f"{mod.__name__}.{name}"
        for mod in [ruincapital, *MODULES.values()]
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert unresolved == []
