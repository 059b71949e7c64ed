"""The exhaustive oracles stay off the production surface: no module but
`selfcheck` names one, and the top-level package exports none.  The tests
and `selfcheck` import them from their own modules.  The class-key format
stays in `divisors`: no other module names its packing or reads its
layout.  Each input condition is checked in one function, the only one
whose code holds its error message."""

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


# the attributes that lay out a key: the inverse, the kept vertices, and
# the packing's fields
KEY_ATTRIBUTES = {"X", "keep", "high", "bias", "width", "mask", "full"}


def _key_internals_named(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias) and node.name == "_PackedResidues":
            yield node.name
        elif isinstance(node, ast.Name) and node.id == "_PackedResidues":
            yield node.id
        elif isinstance(node, ast.Attribute) and (
                node.attr in KEY_ATTRIBUTES or node.attr == "_PackedResidues"):
            yield node.attr


def test_only_divisors_knows_the_key_format():
    modules = sorted(Path(chipfire.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    named = {p.name: sorted(set(_key_internals_named(p))) for p in modules
             if p.name != "divisors.py"}
    assert {name: found for name, found in named.items() if found} == {}


# each input condition's message -> the one (module, function) that holds it
CONDITIONS = {
    "positive integer": {("graphs.py", "_positive_weight")},
    "is not a maximal spanning forest": {("bernardi.py", "_require_maximal")},
    "coefficients must be integers": {("divisors.py", "check_on_graph")},
}


def _messages_written(path):
    """(phrase, module, innermost function) for each string in the module's
    code, docstrings aside, that holds a phrase of CONDITIONS."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, child.name)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                yield from ((phrase, path.name, where) for phrase in CONDITIONS
                            if phrase in child.value)
            elif not (isinstance(child, ast.Expr)  # a docstring
                      and isinstance(child.value, ast.Constant)):
                yield from visit(child, where)

    return visit(ast.parse(path.read_text(encoding="utf-8")), None)


def test_each_input_condition_is_checked_in_one_function():
    modules = sorted(Path(chipfire.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = {phrase: set() for phrase in CONDITIONS}
    for path in modules:
        for phrase, module, function in _messages_written(path):
            found[phrase].add((module, function))
    assert found == CONDITIONS
