import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from chipfire import (Divisor, GraphInputError, chip_fire,
                      degree, equivalent, is_balanced, laplacian, serialize,
                      unbalancing_class)
from chipfire.divisors import LaplacianSystem


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
