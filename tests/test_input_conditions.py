"""One check per input condition.  A weight that is not a positive int, a
forest that is not a maximal spanning forest of distinct edges, and a
divisor coefficient that is not an int are each rejected by one function
(`graphs._positive_weight`, `bernardi._require_maximal`,
`divisors.check_on_graph`).  So every entry point that takes such a value
raises the same GraphInputError with the same message, and the CLI exits
1 with that message."""

import json

import pytest

from chipfire import (Divisor, GraphInputError, SubweightedTree,
                      WeightedMultigraph, add_leaf, equivalent, is_balanced,
                      reduce, shrink_vertex_weight, split_edge, split_vertex,
                      tour_forest, tree_divisor)
from chipfire.bernardi import enumerate_subweightings
from chipfire.cli import main
from chipfire.divisors import check_on_graph


FOREST_MESSAGE = "is not a maximal spanning forest of distinct edges of the graph"
COEFFICIENT_MESSAGE = "divisor coefficients must be integers"


def _weight_message(what, x):
    return f"{what} weight at {x!r} must be a positive integer"


def _edges(g):
    return [(e.id, e.ends) for e in g.edges]


# entry point -> (call with the weight w on tw, what and where the message
# names); w(v1) = 2 and the edges a and b at v1 have weight 2
WEIGHT_CALLS = {
    "build-vertex": (lambda g, w: WeightedMultigraph.build(
        g.vertices, _edges(g), {"v1": w}), "vertex", "v1"),
    "build-edge": (lambda g, w: WeightedMultigraph.build(
        g.vertices, _edges(g), {"v1": 2}, {"a": w, "b": 2}), "edge", "a"),
    "add_leaf": (lambda g, w: add_leaf(g, "v1", leaf_weight=w, edge_weight=2),
                 "vertex", "v1_leaf"),
    "split_edge": (lambda g, w: split_edge(g, "a", [w, 2]), "part", "a"),
    "split_vertex": (lambda g, w: split_vertex(
        g, "v1", 2, {"a": [(0, w), (1, 2)], "b": [(0, 1), (1, 1)]}),
        "part", "a"),
    "shrink_vertex_weight": (lambda g, w: shrink_vertex_weight(g, "v1", w),
                             "vertex", "v1"),
}


@pytest.mark.parametrize("entry", WEIGHT_CALLS)
@pytest.mark.parametrize("weight", [0, -2, True, 1.0, "2", None],
                         ids=["zero", "negative", "true", "float", "string",
                              "null"])
def test_a_weight_that_is_not_a_positive_int(tw, entry, weight):
    call, what, x = WEIGHT_CALLS[entry]
    with pytest.raises(GraphInputError) as info:
        call(tw, weight)
    assert str(info.value) == _weight_message(what, x)


def _tree_divisor(g, forest):
    # the plain constructor trusts its forest; tree_divisor checks it
    return tree_divisor(g, SubweightedTree(
        tuple(forest), dict(g.edge_weight), ("v1",), {"v1": g.ribbon["v1"][0]}))


FOREST_CALLS = {
    "SubweightedTree.build": SubweightedTree.build,
    "tour_forest": tour_forest,
    "tree_divisor": _tree_divisor,
    "enumerate_subweightings": enumerate_subweightings,
}


@pytest.mark.parametrize("entry", FOREST_CALLS)
@pytest.mark.parametrize("forest", [
    ["a"], ["a", "b", "c"], ["a", "a"], ["a", "zz"], [["a"], "b"],
    ["a", {"b": 1}]], ids=["short", "cycle", "repeat", "unknown",
                           "unhashable", "unhashable-dict"])
def test_a_forest_that_is_not_maximal(tw, entry, forest):
    with pytest.raises(GraphInputError) as info:
        FOREST_CALLS[entry](tw, forest)
    assert str(info.value) == f"forest {forest!r} {FOREST_MESSAGE}"


COEFFICIENT_CALLS = {
    "check_on_graph": check_on_graph,
    "equivalent": lambda g, D: equivalent(g, D, Divisor.zero(g)),
    "reduce": reduce,
    "is_balanced": is_balanced,
}


@pytest.mark.parametrize("entry", COEFFICIENT_CALLS)
@pytest.mark.parametrize("coefficients, message", [
    ({"v1": 1, "v2": 0.5, "v3": -0.5}, COEFFICIENT_MESSAGE),
    ({"v1": True, "v2": 0, "v3": 0}, COEFFICIENT_MESSAGE),
    ({"v1": "1", "v2": 0, "v3": 0}, COEFFICIENT_MESSAGE),
    ({"v1": None, "v2": 1, "v3": 0}, COEFFICIENT_MESSAGE),
    # the vertices are checked first
    ({"v1": 0.5, "v2": 0, "zz": 1}, "divisor mentions unknown vertices ['zz']"),
], ids=["half", "true", "string", "null", "unknown-vertex-first"])
def test_a_coefficient_that_is_not_an_int(tw, entry, coefficients, message):
    with pytest.raises(GraphInputError) as info:
        COEFFICIENT_CALLS[entry](tw, Divisor(coefficients))
    assert str(info.value) == message


TW_OBJ = {
    "vertices": [{"id": "v1", "weight": 2}, {"id": "v2"}, {"id": "v3"}],
    "edges": [{"id": "a", "ends": ["v1", "v2"], "weight": 2},
              {"id": "b", "ends": ["v1", "v3"], "weight": 2},
              {"id": "c", "ends": ["v2", "v3"]}]}
TREE = {"tree": ["a", "b"], "sigma": {"a": 2, "b": 2, "c": 1}, "root": "v2"}
ZERO = {"coefficients": {"v1": 0, "v2": 0, "v3": 0}}
EDGE_PLAN = [[0, 1], [1, 1]]


def _weighted(part, key, weight):
    """TW_OBJ with the weight of its vertex or edge `key` set to weight."""
    obj = json.loads(json.dumps(TW_OBJ))
    next(x for x in obj[part] if x["id"] == key)["weight"] = weight
    return obj


@pytest.mark.parametrize("argv, files, message", [
    (["validate"], {"--graph": _weighted("vertices", "v1", 0)},
     _weight_message("vertex", "v1")),
    (["validate"], {"--graph": _weighted("edges", "a", 1.0)},
     _weight_message("edge", "a")),
    (["rewrite", "add-leaf", "--vertex", "v1", "--leaf-weight", "0"], {},
     _weight_message("vertex", "v1_leaf")),
    (["rewrite", "split-edge", "--edge", "a", "--parts", "0,2"], {},
     _weight_message("part", "a")),
    (["rewrite", "split-edge", "--edge", "a", "--parts=-1,3"], {},
     _weight_message("part", "a")),
    (["rewrite", "shrink", "--vertex", "v1", "--weight", "0"], {},
     _weight_message("vertex", "v1")),
    (["rewrite", "shrink", "--vertex", "v1", "--weight", "-2"], {},
     _weight_message("vertex", "v1")),
    *[(["rewrite", "split-vertex", "--vertex", "v1", "--copies", "2"],
       {"--plan": {"parts": {"a": EDGE_PLAN, "b": [[0, w], [1, 1]]}}},
       _weight_message("part", "b")) for w in (0, "x", 1.0, True)],
    (["act"], {"--divisor": ZERO, "--tree": {**TREE, "tree": ["a"]}},
     f"forest ['a'] {FOREST_MESSAGE}"),
    (["act"], {"--divisor": ZERO, "--tree": {**TREE, "tree": [["a"], "b"]}},
     f"forest [['a'], 'b'] {FOREST_MESSAGE}"),
    (["act"], {"--divisor": {"coefficients": {"v1": 0, "v2": 0.5, "v3": 0}},
               "--tree": TREE}, COEFFICIENT_MESSAGE),
    (["reduce"], {"--divisor": {"coefficients": {"v1": True, "v2": 0}}},
     COEFFICIENT_MESSAGE),
    (["reduce"], {"--divisor": {"coefficients": {"v1": 0.5, "zz": 1}}},
     "divisor mentions unknown vertices ['zz']"),
    (["laplacian"], {"--divisor": {"potential": {"v1": 0, "v2": "1", "v3": 0}}},
     "potential coefficients must be integers"),
], ids=["graph-vertex-weight", "graph-edge-weight", "add-leaf", "split-edge-0",
        "split-edge-negative", "shrink-0", "shrink-negative",
        "split-vertex-0", "split-vertex-string", "split-vertex-float",
        "split-vertex-true", "act-forest-short", "act-forest-unhashable",
        "act-coefficient", "reduce-coefficient",
        "reduce-unknown-vertex-first", "laplacian-potential"])
def test_the_cli_exits_1_with_the_message(tmp_path, capsys, argv, files,
                                          message):
    paths = []
    for flag, obj in {"--graph": TW_OBJ, **files}.items():
        path = tmp_path / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(obj))
        paths += [flag, str(path)]
    # --graph before a rewrite's name, the other files after its options
    code = main([argv[0], *paths[:2], *argv[1:], *paths[2:]])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")
