import ast
import json
import os
import pathlib
import subprocess
import sys

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (Divisor, GraphInputError, SubweightedTree,
                      WeightedMultigraph, chip_fire, degree, equivalent,
                      is_balanced, laplacian, serialize, torsor_act,
                      unbalancing_class)
from chipfire.bernardi import reduce as bernardi_reduce
from chipfire.divisors import LaplacianSystem, _PackedResidues
from chipfire.selfcheck import triangle_tw
from test_bernardi import _random_pleasant


def test_degree(tw):
    assert degree(Divisor({"v1": -2, "v2": -3, "v3": 5})) == 0
    assert degree(Divisor.zero(tw)) == 0
    assert degree(Divisor({"v1": 0, "v2": -1, "v3": 2})) == 1


def test_is_balanced(four_edge_pleasant, tw):
    g = four_edge_pleasant
    assert is_balanced(g, Divisor({"v1": 2, "v2": 7, "v3": -5}))
    assert not is_balanced(g, Divisor({"v1": 1, "v2": 0, "v3": 0}))
    assert not is_balanced(tw, Divisor({"v1": 1, "v2": -1, "v3": 1}))
    assert is_balanced(tw, Divisor({"v1": 0, "v2": 0, "v3": 1}))


def test_unbalancing_class(four_edge_pleasant, tw):
    g = four_edge_pleasant
    classes = {tuple(sorted(unbalancing_class(g, Divisor({"v1": a})).items()))
               for a in range(-4, 5)}
    assert len(classes) == 2
    assert unbalancing_class(tw, Divisor({"v1": 4, "v2": 2, "v3": -1})) \
        == {"v1": 0, "v2": 0, "v3": 0}
    assert unbalancing_class(tw, Divisor({"v1": 1, "v2": 5, "v3": -2})) \
        == {"v1": 1, "v2": 0, "v3": 0}


def test_laplacian(four_edge_pleasant, triangle):
    D = laplacian(four_edge_pleasant, {"v1": 0, "v2": 0, "v3": 1})
    assert D.vector(four_edge_pleasant) == [-2, -3, 5]
    assert laplacian(triangle, {"v1": 7, "v2": 7, "v3": 7}).vector(triangle) \
        == [0, 0, 0]
    assert laplacian(triangle, {"v1": 1, "v2": 0, "v3": 0}).vector(triangle) \
        == [2, -1, -1]


def test_laplacian_needs_exactly_the_vertices(triangle):
    f = {"v1": 1, "v2": 0, "v3": 0}
    with pytest.raises(GraphInputError, match="undefined"):
        laplacian(triangle, {"v1": 1, "v2": 0})
    with pytest.raises(GraphInputError, match="potential mentions unknown"):
        laplacian(triangle, {**f, "zz": 7})


def test_chip_fire_matches_indicator(tw):
    for v in tw.vertices:
        f = {u: 1 if u == v else 0 for u in tw.vertices}
        assert chip_fire(tw, v).vector(tw) == laplacian(tw, f).vector(tw)


@pytest.mark.parametrize("v", ["zz", 0, None, ["v1"], {"v1": 1}],
                         ids=["unknown", "int", "none", "list", "dict"])
def test_chip_fire_rejects_a_vertex_not_in_the_graph(tw, v):
    with pytest.raises(GraphInputError, match="unknown vertex"):
        chip_fire(tw, v)


def test_loops_contribute_nothing():
    from chipfire import WeightedMultigraph
    g = WeightedMultigraph.build(["u", "v"],
                                 [("e", ("u", "v")), ("l", ("u", "u"))])
    assert laplacian(g, {"u": 1, "v": 0}).vector(g) == [1, -1]


def test_equivalent_with_certificate(tw):
    D1 = Divisor({"v1": 2, "v2": -2, "v3": 1})
    D2 = Divisor({"v1": 0, "v2": 1, "v3": 0})
    cert = equivalent(tw, D1, D2)
    assert cert is not None
    f = cert.potential
    # certificate value is 0 at the first vertex of the component
    assert f["v1"] == 0
    assert laplacian(tw, f).vector(tw) == (D1 - D2).vector(tw)


def test_equivalent_reflexive(tw):
    D = Divisor({"v1": 1, "v2": 2, "v3": 3})
    cert = equivalent(tw, D, D)
    assert cert is not None and set(cert.potential.values()) == {0}


def test_inequivalent_representatives(tw):
    assert equivalent(tw, Divisor({"v1": 0, "v2": 0, "v3": 1}),
                      Divisor({"v1": 0, "v2": -1, "v3": 2})) is None


def test_degree_mismatch_is_not_equivalent(tw):
    assert equivalent(tw, Divisor.zero(tw), Divisor({"v1": 1})) is None


def test_class_key_separates_classes(tw):
    sys = LaplacianSystem(tw)
    D1 = Divisor({"v1": 2, "v2": -2, "v3": 1})
    D2 = Divisor({"v1": 0, "v2": 1, "v3": 0})
    D3 = Divisor({"v1": 0, "v2": 0, "v3": 1})
    assert sys.class_key(D1) == sys.class_key(D2)
    assert sys.class_key(D1) != sys.class_key(D3)


def _two_component_graphs():
    rng = random.Random(29)
    return [_random_pleasant(rng, n, parts=2) for n in (4, 5, 6, 7)]


@pytest.mark.parametrize("g", [
    *_two_component_graphs(), WeightedMultigraph.build(["v"], [])],
    ids=["two-parts-n4", "two-parts-n5", "two-parts-n6", "two-parts-n7",
         "one-vertex"])
def test_packed_keys_separate_classes_as_equivalent_does(g):
    rng = random.Random(g.n)
    sys = LaplacianSystem(g)
    if g.n == 1:
        assert (sys.packed.k, sys.e) == (0, 1)
    divisors = []
    for _ in range(12):
        D = Divisor({v: rng.randint(-3, 3) for v in g.vertices})
        f = {v: rng.randint(-2, 2) for v in g.vertices}
        divisors += [D, D + laplacian(g, f)]
    for D1 in divisors:
        degrees, residue = sys.class_key(D1)
        assert isinstance(residue, int)
        for D2 in divisors:
            assert ((sys.class_key(D1) == sys.class_key(D2))
                    == (equivalent(g, D1, D2) is not None))


@st.composite
def _packed_cases(draw):
    """(k, e, terms, xs, steps, c): reduced vectors in (Z/e)^k, packed as
    wide as a system of len(g.edges) + g.n + 1 = terms packs them."""
    k = draw(st.integers(0, 3))
    e = draw(st.sampled_from([1, 2, 6, 40, 10 ** 5]))
    vec = st.lists(st.integers(0, e - 1), min_size=k, max_size=k)
    return (k, e, draw(st.integers(2, 60)),
            draw(st.lists(vec, min_size=1, max_size=5)),
            draw(st.lists(vec, max_size=5)), draw(st.integers(-10 ** 6, 10 ** 6)))


@settings(max_examples=200, deadline=None)
@given(_packed_cases())
def test_packed_arithmetic_is_coordinatewise_mod_e(case):
    k, e, terms, xs, steps, c = case
    packed = _PackedResidues(k, e, terms)
    px = [packed.pack(x) for x in xs]
    assert [packed.unpack(y) for y in px] == xs
    assert [packed.unpack(y) for y in packed.shift(
        px, [packed.pack(s) for s in steps])] == [
            [(a + b) % e for a, b in zip(x, s)] for x in xs for s in steps]
    assert [packed.unpack(packed.scale(y, c)) for y in px] == [
        [c * a % e for a in x] for x in xs]
    assert packed.unpack(packed.canonical(sum(px[:terms]))) == [
        sum(col) % e for col in zip(*xs[:terms])]


def _tw_tree(g):
    return SubweightedTree.build(g, ["a", "c"])


@pytest.mark.parametrize("call", [
    lambda g, D: equivalent(g, D, Divisor.zero(g)),
    lambda g, D: bernardi_reduce(g, D),
    lambda g, D: torsor_act(g, D, _tw_tree(g)),
    is_balanced,
    lambda g, D: laplacian(g, D.coefficients),
], ids=["equivalent", "reduce", "torsor_act", "is_balanced", "laplacian"])
@pytest.mark.parametrize("coefficients", [
    {"v1": 0.5, "v2": -0.5, "v3": 0}, {"v1": 1.5, "v2": -1.5, "v3": 0},
    {"v1": 1.0, "v2": 0, "v3": -1}, {"v1": True, "v2": -1, "v3": 0}],
    ids=["half", "three-halves", "float-one", "true"])
def test_coefficients_that_are_not_ints_are_input_errors(call, coefficients):
    with pytest.raises(GraphInputError, match="coefficients must be integers"):
        call(triangle_tw(), Divisor(coefficients))


# Run under `python -O`, which strips `assert` statements: the checks that
# certify a certificate must still fire, and the CLI must report them with
# exit code 3.
_OPTIMIZED_CHECKS = r"""
import sys
from chipfire import cli, divisors, intlinalg
from chipfire.divisors import Divisor
from chipfire.errors import InternalError
from chipfire.selfcheck import triangle_tw

if not sys.flags.optimize:
    sys.exit("not running under -O")
g = triangle_tw()
# equivalent's solver returns the zero potential, which certifies nothing
solve = intlinalg.solve
intlinalg.solve = lambda A, b: ([0] * len(b), 1)
try:
    divisors.equivalent(g, Divisor({"v1": 2, "v2": -2, "v3": 0}), Divisor.zero(g))
    print("equivalent accepted a wrong certificate")
except InternalError:
    print("equivalent raised")
# reduce's certificate comes from equivalent: a solve that is off by one
# off the roots leaves the walk's answer alone and breaks the certificate
def off_by_one(A, b):
    y, d = solve(A, b)
    return [c + d for c in y], d
intlinalg.solve = off_by_one
print("reduce exit", cli.main(["reduce", "--graph", sys.argv[1],
                               "--divisor", sys.argv[2]]))
"""


def test_certificate_checks_survive_optimize(tw, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(serialize.graph_to_obj(tw)))
    divisor = tmp_path / "d.json"
    divisor.write_text(json.dumps({"coefficients": {"v1": 2, "v2": -2, "v3": 1}}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS, str(graph), str(divisor)],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["equivalent raised", "reduce exit 3"]


def test_no_bare_assert_in_src():
    # `python -O` strips assert statements, so no check may rely on one
    package = pathlib.Path(__file__).parent.parent / "src" / "chipfire"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
