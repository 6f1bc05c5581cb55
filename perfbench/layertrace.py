"""Outside-in layer trace: wrap the library's public functions in spans.

Every public function of the traced modules is replaced, at every name a
ruincapital module binds it to, by a wrapper that records a span.  Several
modules bind functions of other modules through ``from ... import``
(``approx``, ``capital`` and ``bounds`` bind ``model.derived_constants``),
so wrapping only the defining module would miss those calls.  The library
itself is not changed; ``uninstall`` restores every binding.

Per function the trace keeps the call count, the self time (a span's time
minus that of the wrapped spans inside it) and, for ``dist.sample``, the
number of variates drawn.  It also counts calls per (parent, child) pair of
span names, from which the capital layer's backend evaluations are read.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter

TRACED_MODULES = (
    "exact", "capital", "approx", "special", "model",
    "bounds", "montecarlo", "dist", "cli", "table",
)

# Probability backends a capital solve inverts.
BACKENDS = (
    "exact.ruin_finite_exp",
    "exact.aggregate_cdf_exp",
    "approx.ig_ruin_probability",
)


def _sample_size(args, kwargs) -> int:
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(size)


# Units of work per call, for functions whose call count hides it.
UNITS = {"dist.sample": _sample_size}


class Stat:
    __slots__ = ("calls", "self_s", "units")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.units = 0


class Trace:
    """Span statistics of one process; ``install`` starts recording."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple, int] = {}
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        edges = self.edges
        units = UNITS.get(name)

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stat.calls += 1
                stat.self_s += dt - frame[1]
                if units is not None:
                    stat.units += units(args, kwargs)
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1

        span.__wrapped__ = fn
        return span

    def install(self) -> "Trace":
        pkg = importlib.import_module("ruincapital")
        loaded = [pkg] + [
            m for n, m in sorted(sys.modules.items())
            if n.startswith("ruincapital.") and m is not None
        ]
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"ruincapital.{short}")
            for attr, fn in _public_functions(mod):
                targets[id(fn)] = (f"{short}.{attr}", fn)
        cls = importlib.import_module("ruincapital.table").CurveTable
        for attr, fn in vars(cls).items():
            if isinstance(fn, types.FunctionType) and not attr.startswith("_"):
                self._patch(cls, attr, fn, self._wrap(f"table.CurveTable.{attr}", fn))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)][1]:
                    self._patch(mod, attr, value, wrappers[id(value)])
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def capital_evals(self) -> int:
        """Backend evaluations whose caller span is a capital function."""
        return sum(
            n for (parent, child), n in self.edges.items()
            if child in BACKENDS and parent is not None and parent.startswith("capital.")
        )

    def snapshot(self) -> dict:
        """JSON-ready statistics: {function: {calls, self_s, units}}."""
        return {
            name: {"calls": s.calls, "self_s": s.self_s, "units": s.units}
            for name, s in sorted(self.stats.items())
        }


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        fn = getattr(mod, attr)
        if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
            yield attr, fn
