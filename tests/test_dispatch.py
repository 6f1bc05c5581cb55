"""The backend names are dispatched on in one place.

``capital._BACKENDS`` maps each backend name to the function that prices
its capital columns, and ``SolveSpec`` accepts exactly its keys.  No
module in the package compares a string with a backend name: such a
branch would be a second dispatch, next to the table.
"""

import ast
from pathlib import Path

import pytest

from ruincapital import capital
from ruincapital.capital import SolveSpec
from ruincapital.errors import DomainError

SRC = Path(__file__).resolve().parents[1] / "src" / "ruincapital"
NAMES = frozenset(capital._BACKENDS)


def _is_name(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in NAMES


def backend_comparisons(source: str) -> list:
    """Line numbers of comparisons, and match cases, against a backend name,
    alone or inside a literal tuple, list or set."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            literals = [e for o in operands if isinstance(o, (ast.Tuple, ast.List, ast.Set)) for e in o.elts]
            if any(_is_name(o) for o in operands + literals):
                bad.append(node.lineno)
        elif isinstance(node, ast.MatchValue) and _is_name(node.value):
            bad.append(node.lineno)
    return sorted(bad)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_compares_with_a_backend_name(path):
    assert backend_comparisons(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "spec.backend == 'clt'",
        "'monte_carlo' != backend",
        "backend in ('exact_exp', 'inverse_gaussian')",
        "backend not in ['clt']",
        "match backend:\n    case 'exact_exp':\n        pass",
    ],
    ids=["eq", "ne_reversed", "in_tuple", "not_in_list", "match"],
)
def test_the_guard_flags_backend_comparisons(source):
    assert backend_comparisons(source) != []


def test_the_guard_passes_dispatch_and_kinds():
    source = (
        "column = _BACKENDS['clt'](m, alpha, t, cs, kinds, sim)\n"
        "redirect = _BACKENDS['exact_exp' if exp else 'clt']\n"
        "ok = kind == 'var' and mth != 'mc' and backend in _BACKENDS\n"
    )
    assert backend_comparisons(source) == []


def test_solve_spec_accepts_exactly_the_dispatch_tables_keys(monkeypatch):
    for name in NAMES:
        assert SolveSpec(backend=name).backend == name
    monkeypatch.setitem(capital._BACKENDS, "probe", capital._BACKENDS["clt"])
    assert SolveSpec(backend="probe").backend == "probe"
    monkeypatch.delitem(capital._BACKENDS, "clt")
    with pytest.raises(DomainError, match="unknown backend 'clt'"):
        SolveSpec(backend="clt")
