"""Every function cache in the package is bounded.

A ``functools.cache`` or ``lru_cache`` either wraps a function with no
parameters, so it holds one value, or names a finite integer ``maxsize``.
A per-rate cache such as the exact route's rules can then not grow with
the number of rates a process sees.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ruincapital"
CACHES = {"cache", "lru_cache"}


def _factories(tree: ast.Module) -> set:
    """Local names bound to functools.cache or functools.lru_cache."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHES
    }


def _is_factory(node, local: set) -> bool:
    if isinstance(node, ast.Name):
        return node.id in local
    return (
        isinstance(node, ast.Attribute)
        and node.attr in CACHES
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def _finite_maxsize(call: ast.Call) -> bool:
    args = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return len(args) == 1 and isinstance(args[0], ast.Constant) and type(args[0].value) is int


def unbounded_caches(source: str) -> list:
    """Line numbers of cache uses that are neither parameterless nor bounded."""
    tree = ast.parse(source)
    local = _factories(tree)
    uses = {id(n): n.lineno for n in ast.walk(tree) if _is_factory(n, local)}
    bad = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        no_params = not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if id(target) not in uses:
                continue
            del uses[id(target)]
            if not (no_params or (isinstance(dec, ast.Call) and _finite_maxsize(dec))):
                bad.append(dec.lineno)
    # a cache applied other than as a decorator is not checked, so not allowed
    return sorted(bad + list(uses.values()))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_parameterless_or_bounded(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import functools\n@functools.cache\ndef f(x): pass",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass",
        "from functools import lru_cache\n@lru_cache\ndef f(x): pass",
        "from functools import lru_cache as memo\n@memo(None)\ndef f(*x): pass",
        "import functools\ng = functools.lru_cache(maxsize=4)(len)",
    ],
    ids=["cache", "maxsize_none", "bare_lru_cache", "alias", "not_a_decorator"],
)
def test_the_guard_flags_unbounded_caches(source):
    assert unbounded_caches(source) != []


def test_the_guard_passes_bounded_caches():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.cache\ndef f(): pass\n"
        "@lru_cache(maxsize=2)\ndef g(a, b): pass\n"
        "@functools.lru_cache(8)\ndef h(a): pass\n"
    )
    assert unbounded_caches(source) == []
