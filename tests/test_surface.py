"""The exhaustive oracles stay off the production surface: no module but
`selfcheck` names one, and the top-level package exports none.  The tests
and `selfcheck` import them from their own modules."""

import ast
from pathlib import Path

import chipfire

ORACLES = {"BernardiReducer", "enumerate_coset_representatives_bruteforce",
           "check_base_change_injectivity", "psi_map",
           "enumerate_subweightings"}


def _oracles_named(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names if a.name in ORACLES)
        elif isinstance(node, ast.Attribute) and node.attr in ORACLES:
            yield node.attr


def test_no_production_module_imports_an_oracle():
    modules = sorted(Path(chipfire.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    named = {p.name: sorted(set(_oracles_named(p))) for p in modules
             if p.name != "selfcheck.py"}
    assert {name: found for name, found in named.items() if found} == {}


def test_the_package_exports_no_oracle():
    assert ORACLES.isdisjoint(chipfire.__all__)
    assert ORACLES.isdisjoint(vars(chipfire))
