import dataclasses
import math
import random
import sys

import pytest

from chipfire import (GraphInputError, InternalError, PreconditionError,
                      WeightedMultigraph, bernardi, serialize,
                      add_leaf, expand_hat, pic0_structure, picb0_structure,
                      count_pic0, count_picb0, shrink_vertex_weight, split_edge,
                      split_vertex, tour_forest, validate, weighted_genus)
from chipfire.family import pleasant_family
from chipfire.graphs import forget_tables
from chipfire.selfcheck import _auto_split_plan, sweep_family
from chipfire.trees import enumerate_forests, enumerate_trees
from test_bernardi import _random_pleasant

FIELDS = {f.name for f in dataclasses.fields(WeightedMultigraph)}


def test_build_rejects_duplicates_and_unknowns():
    with pytest.raises(GraphInputError):
        WeightedMultigraph.build(["v", "v"], [])
    with pytest.raises(GraphInputError):
        WeightedMultigraph.build(["v"], [("e", ("v", "w"))])
    with pytest.raises(GraphInputError):
        WeightedMultigraph.build(["v", "w"], [("e", ("v", "w")), ("e", ("v", "w"))])
    with pytest.raises(GraphInputError):
        WeightedMultigraph.build(["v"], [], vertex_weight={"v": 0})


def test_build_rejects_ids_that_share_a_json_key():
    # JSON writes the number 1 as the key "1": output would repeat the key
    with pytest.raises(GraphInputError, match="same key"):
        WeightedMultigraph.build([1, "1"], [("e", (1, "1"))])
    with pytest.raises(GraphInputError, match="same key"):
        WeightedMultigraph.build(["u", "v"], [(3, ("u", "v")), ("3", ("u", "v"))])
    with pytest.raises(GraphInputError, match="same key"):
        WeightedMultigraph.build([True, "true"], [])
    # vertex and edge ids live in separate objects, so they may share a key
    g = WeightedMultigraph.build([7, "u"], [("7", (7, "u"))])
    assert g.vindex(7) == 0


def test_components_keep_declaration_order():
    # the components interleave in declaration order; a loop joins nothing
    g = WeightedMultigraph.build(
        ["a", "x", "b", "y", "z"],
        [("ab", ("a", "b")), ("l", ("y", "y")), ("xy", ("x", "y"))])
    assert g.components() == [("a", "b"), ("x", "y"), ("z",)]
    assert [g.vindex(v) for v in "axbyz"] == [0, 1, 2, 3, 4]
    assert enumerate_forests(g) == [("ab", "xy")]
    for bad in ("w", ["a"]):
        with pytest.raises(GraphInputError):
            g.vindex(bad)


def test_forget_tables_drops_every_table(tw):
    orientation = tour_forest(tw, ("a", "b"))
    laplacian = tw.laplacian_matrix()
    assert set(vars(tw)) > FIELDS
    forget_tables(tw)
    assert set(vars(tw)) == FIELDS
    assert tour_forest(tw, ("a", "b")) == orientation
    assert tw.laplacian_matrix() == laplacian


def test_forget_tables_leaves_a_dict_of_the_fields_alone():
    # a dict keeps the size it grew to when keys are popped from it, so
    # every graph the sweep saw would keep its tables' slots
    graphs = list(pleasant_family(max_vertices=3, max_edges=3, max_weight=2))[::50]
    sweep_family(graphs)
    fresh = sys.getsizeof({name: None for name in FIELDS})
    assert {sys.getsizeof(vars(g)) for g in graphs} == {fresh}


@pytest.mark.parametrize("reducer_fails", [False, True])
def test_sweep_forgets_the_tables_of_its_graphs(monkeypatch, reducer_fails):
    family = list(pleasant_family(max_vertices=3, max_edges=3, max_weight=2))
    if reducer_fails:
        def failing(g):
            raise InternalError("injected")
        monkeypatch.setattr(bernardi, "BernardiReducer", failing)
    results = sweep_family(family)
    assert results["completeness"].passed == (not reducer_fails)
    assert all(set(vars(g)) == FIELDS for g in family)


def test_sweep_past_the_desk_family():
    # 12 seeded random connected pleasant graphs, n = 5-7, one loop each:
    # the exact cover, the hat map and the rewrite checks on trees of more
    # vertices than the desk family has
    rng = random.Random(5)
    graphs = []
    while len(graphs) < 12:
        g = _random_pleasant(rng, rng.randint(5, 7))
        if count_pic0(g) <= 3000:
            graphs.append(g)
    results = sweep_family(graphs)
    for name in ("matrix-tree", "completeness", "hat", "invariance"):
        assert results[name].passed, results[name].detail
    stats = results["_stats"]
    assert stats.shrink_checks > 0 and stats.vertex_split_checks > 0


def _vertices(*ids, **weights):
    return [{"id": v, **({"weight": weights[v]} if v in weights else {})}
            for v in ids]


def _edges(*specs):
    return [{"id": eid, "ends": list(ends),
             **({"weight": w} if w is not None else {})}
            for eid, ends, w in specs]


UV = _vertices("u", "v")
UVW = _vertices("u", "v", "w")
PATH = _edges(("e", "uv", None), ("f", "vw", None))

# graph objects that each break two rules, and the message of the rule
# that `build` (or `graph_from_obj`, for ends and ribbon tokens) checks first
TWO_FAULTS = {
    "duplicate-vertex-and-bad-weight": (
        {"vertices": [{"id": "u", "weight": 0}, {"id": "u"}], "edges": []},
        "duplicate vertex ids"),
    "duplicate-edge-and-bad-weight": (
        {"vertices": UV, "edges": _edges(("e", "uv", 0), ("e", "uv", None))},
        "duplicate edge id 'e'"),
    "duplicate-edge-with-unknown-end": (
        {"vertices": UV, "edges": _edges(("e", "uv", None), ("e", "uz", None))},
        "duplicate edge id 'e'"),
    "three-ends-and-unknown-end": (
        {"vertices": UV, "edges": _edges(("e", "uz", None), ("f", "uvu", None))},
        "edge 'f' needs a list of two ends"),
    "unknown-end-and-bad-vertex-weight": (
        {"vertices": _vertices("u", "v", v=0), "edges": _edges(("e", "uz", None))},
        "edge 'e' has unknown endpoint"),
    "bad-vertex-weight-and-bad-edge-weight": (
        {"vertices": _vertices("u", "v", v=True), "edges": _edges(("e", "uv", 0))},
        "vertex weight at 'v' must be a positive integer"),
    "two-bad-vertex-weights": (
        {"vertices": _vertices("u", "v", u=True, v=0), "edges": []},
        "vertex weight at 'u' must be a positive integer"),
    "edge-weight-true-and-twin-vertex-keys": (
        {"vertices": _vertices(1, "1"), "edges": _edges(("e", [1, "1"], True))},
        "edge weight at 'e' must be a positive integer"),
    "twin-vertex-keys-and-twin-edge-keys": (
        {"vertices": _vertices(1, "1"),
         "edges": _edges((3, [1, "1"], None), ("3", [1, 1], None))},
        "vertex ids 1 and '1' are the same key in JSON output"),
    "twin-edge-keys-and-bad-ribbon": (
        {"vertices": UV, "edges": _edges((3, "uv", None), ("3", "uv", None)),
         "ribbon": {"u": [3], "v": []}},
        "edge ids 3 and '3' are the same key in JSON output"),
    "twin-vertex-keys-and-bad-ribbon": (
        {"vertices": _vertices(1, "1"), "edges": _edges(("e", [1, "1"], None)),
         "ribbon": {"1": []}},
        "vertex ids 1 and '1' are the same key in JSON output"),
    "unknown-ribbon-token-and-twin-edge-keys": (
        {"vertices": UV, "edges": _edges((3, "uv", None), ("3", "uv", None)),
         "ribbon": {"u": ["zz"], "v": []}},
        "ribbon mentions unknown edge 'zz'"),
    "ribbon-omits-vertex-and-bad-ribbon": (
        {"vertices": UVW, "edges": _edges(("e", "uv", None)),
         "ribbon": {"u": [], "v": ["e"]}},
        "ribbon must list every vertex exactly once"),
    "ribbon-extra-vertex-and-bad-weight": (
        {"vertices": _vertices("u", "v", u=0), "edges": _edges(("e", "uv", None)),
         "ribbon": {"u": ["e"], "v": ["e"], "w": []}},
        "vertex weight at 'u' must be a positive integer"),
    "ribbon-repeat-then-missing": (
        {"vertices": UVW, "edges": PATH,
         "ribbon": {"u": ["e", "e"], "v": ["e"], "w": ["f"]}},
        "ribbon at 'u' must contain exactly the incident half-edges"),
    "ribbon-missing-then-repeat": (
        {"vertices": UVW, "edges": PATH,
         "ribbon": {"u": ["e"], "v": ["e"], "w": ["f", "f"]}},
        "ribbon at 'v' must contain exactly the incident half-edges"),
    "ribbon-loop-half-twice": (
        {"vertices": UV, "edges": _edges(("l", "uu", None), ("e", "uv", None)),
         "ribbon": {"u": ["l:0", "l:0", "e"], "v": ["e"]}},
        "ribbon at 'u' must contain exactly the incident half-edges"),
    "ribbon-token-off-edge-and-missing": (
        {"vertices": UVW, "edges": PATH,
         "ribbon": {"u": ["e"], "v": ["f", "e"], "w": ["e"]}},
        "ribbon lists 'e' at a non-endpoint vertex"),
}


@pytest.mark.parametrize("obj, message", TWO_FAULTS.values(), ids=TWO_FAULTS)
def test_the_first_rule_a_graph_object_breaks_names_the_error(obj, message):
    with pytest.raises(GraphInputError) as info:
        serialize.graph_from_obj(obj)
    assert str(info.value) == message


E1 = [("e", ("u", "v"))]


@pytest.mark.parametrize("args, message", [
    ((["u", "v"], E1, {"zz": 1, "v": 0}),
     "vertex weight at 'v' must be a positive integer"),
    ((["u", "v"], E1, None, {"zz": 0, "e": 1}),
     "weight given for unknown edge 'zz'"),
    (([1, "1"], [("e", (1, "1"))], None, {"f": 1}),
     "weight given for unknown edge 'f'"),
    ((["u", "v"], [("e", ("u", "v", "u")), ("f", ("u", "zz"))]),
     "edge 'e' must have exactly two ends"),
    ((["u", "v"], [("e", ("u", ["v"])), ("f", ("u", "v", "u"))]),
     "edge 'e' has unknown endpoint"),
    ((["u", "v"], E1, {"u": -1}, None, {}),
     "vertex weight at 'u' must be a positive integer"),
    ((["u", "v"], E1, None, None, {"u": [("e", 0)], "zz": [("e", 1)]}),
     "ribbon must list every vertex exactly once"),
    ((["u", "v"], E1, None, None, {"u": [("e", 1)], "v": [("e", 0)]}),
     "ribbon at 'u' must contain exactly the incident half-edges"),
    ((["u", "v"], E1, None, None, {"u": [("e", 0)], "v": [("e", 2)]}),
     "ribbon at 'v' must contain exactly the incident half-edges"),
], ids=["unknown-vertex-weight-after-bad-weight", "unknown-edge-weight",
        "unknown-edge-weight-and-twin-vertex-keys", "three-ends-then-unknown-end",
        "unhashable-end-then-three-ends", "empty-ribbon-and-bad-weight",
        "ribbon-unknown-vertex", "ribbon-halves-swapped", "ribbon-side-2"])
def test_the_first_rule_a_build_breaks_names_the_error(args, message):
    with pytest.raises(GraphInputError) as info:
        WeightedMultigraph.build(*args)
    assert str(info.value) == message


def test_default_ribbon_keeps_loop_halves_adjacent():
    g = WeightedMultigraph.build(["v"], [("l", ("v", "v"))])
    assert g.ribbon["v"] == (("l", 0), ("l", 1))


def test_ribbon_must_cover_incident_half_edges():
    with pytest.raises(GraphInputError):
        WeightedMultigraph.build(["v", "w"], [("e", ("v", "w"))],
                                 ribbon={"v": (), "w": (("e", 1),)})


def test_validate_pleasant(four_edge_pleasant):
    report = validate(four_edge_pleasant)
    assert report.pleasant and report.connected and not report.issues


def test_validate_catches_violation(four_edge_pleasant):
    g = four_edge_pleasant
    bad = WeightedMultigraph.build(
        g.vertices, [(e.id, e.ends) for e in g.edges],
        dict(g.vertex_weight, v3=2), dict(g.edge_weight))
    report = validate(bad)
    assert not report.pleasant
    assert any("e4" in issue for issue in report.issues)


def test_trivial_weights_are_pleasant(triangle):
    assert validate(triangle).pleasant


def test_weighted_genus(triangle, tw, four_edge_pleasant):
    assert weighted_genus(triangle) == 1
    assert weighted_genus(tw) == 2
    assert weighted_genus(four_edge_pleasant) == 4


def test_expand_hat_tw(tw):
    hat = expand_hat(tw)
    assert len(hat.graph.vertices) == 3
    assert len(hat.graph.edges) == 5
    assert weighted_genus(hat.graph) == 3
    assert len(enumerate_trees(hat.graph)) == 8
    assert validate(hat.graph).pleasant


def test_expand_hat_trivial_is_identity(triangle):
    hat = expand_hat(triangle)
    assert [e.id for e in hat.graph.edges] == [e.id for e in triangle.edges]
    assert hat.copy_of == {"a": ("a", 1), "b": ("b", 1), "c": ("c", 1)}


def test_expand_hat_copies_consecutive(tw):
    hat = expand_hat(tw)
    ring = hat.graph.ribbon["v1"]
    ids = [h[0] for h in ring]
    assert ids == ["a#1", "a#2", "b#1", "b#2"]


def test_add_leaf_unweighted(triangle):
    g = add_leaf(triangle, "v1")
    assert len(g.vertices) == 4 and len(g.edges) == 4
    assert pic0_structure(g).invariant_factors == (3,)
    assert g.ribbon["v1"][-1] == ("v1_stem", 0)


def test_add_leaf_single_vertex():
    g = WeightedMultigraph.build(["v"], [])
    out = add_leaf(g, "v")
    assert len(out.edges) == 1
    assert pic0_structure(out).invariant_factors == ()


def test_add_leaf_weighted_edge_scales_jacobian(tw):
    # a pendant edge of weight w sits in every spanning tree, so it
    # multiplies the Jacobian order by w; the balanced Jacobian is unchanged
    g = add_leaf(tw, "v1", leaf_weight=2, edge_weight=2)
    assert pic0_structure(g).invariant_factors == (2, 8)
    assert picb0_structure(g).invariant_factors == (4,)


def test_add_leaf_rejects_unpleasant(tw):
    with pytest.raises(PreconditionError):
        add_leaf(tw, "v1", leaf_weight=1, edge_weight=1)


def test_split_edge_identity(tw):
    assert split_edge(tw, "a", [2]) is tw
    assert split_edge(tw, "c", [1]) is tw


def test_split_edge_preserves_laplacian():
    g = WeightedMultigraph.build(["u", "v"], [("e", ("u", "v"))],
                                 edge_weight={"e": 3})
    out = split_edge(g, "e", [2, 1])
    assert out.laplacian_matrix() == g.laplacian_matrix()
    assert [out.edge_weight[e.id] for e in out.edges] == [2, 1]


def test_rewrites_number_an_id_that_is_taken():
    g = WeightedMultigraph.build(["a", "b"], [("e", ("a", "b"))])
    twice = add_leaf(add_leaf(g, "a"), "a")
    assert twice.vertices == ("a", "b", "a_leaf", "a_leaf2")
    assert [e.id for e in twice.edges] == ["e", "a_stem", "a_stem2"]
    assert twice.edge("a_stem2").ends == ("a", "a_leaf2")
    # "e.1" is taken, so the first part of e gets the next free id
    g = WeightedMultigraph.build(["a", "b"], [("e", ("a", "b")),
                                              ("e.1", ("a", "b"))],
                                 edge_weight={"e": 3})
    out = split_edge(g, "e", [2, 1])
    assert [(e.id, out.edge_weight[e.id]) for e in out.edges] == \
        [("e.12", 2), ("e.2", 1), ("e.1", 1)]
    assert out.laplacian_matrix() == g.laplacian_matrix()


def test_split_edge_checks_sum_and_pleasantness(tw):
    with pytest.raises(PreconditionError):
        split_edge(tw, "a", [1, 2])
    with pytest.raises(PreconditionError):
        split_edge(tw, "a", [1, 1])  # v1 has weight 2


def test_shrink_vertex_weight(tw):
    out = shrink_vertex_weight(tw, "v1", 1)
    assert count_picb0(tw) == 4 and count_picb0(out) == 8
    assert shrink_vertex_weight(tw, "v1", 2).vertex_weight == tw.vertex_weight
    with pytest.raises(PreconditionError):
        shrink_vertex_weight(tw, "v2", 3)


def test_split_vertex_identity(tw):
    out, copies = split_vertex(tw, "v1", 1, {"a": [(0, 2)], "b": [(0, 2)]})
    assert out == tw
    assert copies["v1"] == ("v1",)


def test_split_vertex_tw():
    tw = WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("a", ("v1", "v2")), ("b", ("v1", "v3")), ("c", ("v2", "v3"))],
        {"v1": 2}, {"a": 2, "b": 2})
    plan = {"a": [(0, 1), (1, 1)], "b": [(0, 1), (1, 1)]}
    out, copies = split_vertex(tw, "v1", 2, plan)
    assert len(out.vertices) == 4 and len(out.edges) == 5
    assert all(w == 1 for w in out.vertex_weight.values())
    assert all(w == 1 for w in out.edge_weight.values())
    assert validate(out).pleasant
    assert pic0_structure(out).order == 8
    assert copies["v1"] == ("v1_1", "v1_2")


def test_split_vertex_rejects_bad_plans(tw):
    with pytest.raises(PreconditionError):
        split_vertex(tw, "v1", 2, {"a": [(0, 2)]})  # misses b
    with pytest.raises(PreconditionError):
        split_vertex(tw, "v1", 2, {"a": [(0, 1)], "b": [(0, 2)]})
    # one copy goes through the same checks
    with pytest.raises(PreconditionError, match="cover exactly"):
        split_vertex(tw, "v1", 1, {})


@pytest.mark.parametrize("parts", [
    [(0, 1, 1)], [[0]], "xy", [5], 5, [((0, 1, 1), 2)]],
    ids=["triple", "no-weight", "string", "part-5", "parts-5",
         "copy-triple"])
def test_split_vertex_rejects_malformed_parts(tw, parts):
    with pytest.raises(GraphInputError, match="malformed split plan"):
        split_vertex(tw, "v1", 2, {"a": parts, "b": [(0, 2)]})


def test_split_vertex_blames_the_graph_before_the_plan():
    # a has weight 2 and its one edge x weight 3, so g is not pleasant
    g = WeightedMultigraph.build(["a", "b"], [("x", ("a", "b"))],
                                 {"a": 2}, {"x": 3})
    with pytest.raises(PreconditionError, match=(
            "^the graph is not pleasant: edge 'x' has weight 3, "
            "not divisible by weight 2 of vertex 'a'$")):
        split_vertex(g, "a", 1, {"x": [(0, 3)]})
    # two copies of weight 1 make it pleasant
    assert validate(split_vertex(g, "a", 2, {"x": [(0, 1), (1, 2)]})[0]).pleasant
    # from a pleasant graph, the plan is to blame
    h = WeightedMultigraph.build(["v", "u"], [("e", ("v", "u"))],
                                 {"v": 4}, {"e": 4})
    with pytest.raises(PreconditionError, match="^split plan breaks pleasantness$"):
        split_vertex(h, "v", 2, {"e": [(0, 1), (1, 3)]})


# The rewrites' ribbons, pinned: pieces of an edge sit one after another at
# each old half-edge, and a split vertex's copies take theirs in the order
# of its old ribbon.

def _obj(vertices, edges, ribbon):
    return {"vertices": [{"id": v, "weight": 1} for v in vertices],
            "edges": [{"id": eid, "ends": list(ends), "weight": 1}
                      for eid, ends in edges],
            "ribbon": ribbon}


def test_split_edge_ribbon_of_a_loop():
    g = WeightedMultigraph.build(
        ["v", "u"], [("l", ("v", "v")), ("e", ("v", "u"))], None, {"l": 2},
        {"v": [("l", 0), ("e", 0), ("l", 1)], "u": [("e", 1)]})
    assert serialize.graph_to_obj(split_edge(g, "l", [1, 1])) == _obj(
        ["v", "u"], [("l.1", "vv"), ("l.2", "vv"), ("e", "vu")],
        {"v": ["l.1:0", "l.2:0", "e", "l.1:1", "l.2:1"], "u": ["e"]})


def test_split_vertex_ribbons():
    g = WeightedMultigraph.build(
        ["v", "u", "w"],
        [("l", ("v", "v")), ("e", ("v", "u")), ("f", ("u", "w")),
         ("h", ("u", "w"))],
        {"v": 2}, {"l": 2, "e": 2},
        {"v": [("l", 0), ("e", 0), ("l", 1)],
         "u": [("f", 0), ("e", 1), ("h", 0)], "w": [("f", 1), ("h", 1)]})
    plan = {"l": [((0, 1), 1), ((1, 1), 1)], "e": [(0, 1), (1, 1)]}
    out, copies = split_vertex(g, "v", 2, plan)
    assert serialize.graph_to_obj(out) == _obj(
        ["v_1", "v_2", "u", "w"],
        [("l.1", ("v_1", "v_2")), ("l.2", ("v_2", "v_2")),
         ("e.1", ("v_1", "u")), ("e.2", ("v_2", "u")), ("f", "uw"),
         ("h", "uw")],
        {"v_1": ["l.1", "e.1"], "v_2": ["l.2:0", "e.2", "l.1", "l.2:1"],
         "u": ["f", "e.1", "e.2", "h"], "w": ["f", "h"]})
    assert copies == {"v": ("v_1", "v_2"), "u": ("u",), "w": ("w",)}


def test_expand_hat_ribbon_of_a_loop():
    g = WeightedMultigraph.build(
        ["v", "u"], [("l", ("v", "v")), ("e", ("v", "u"))], None, {"l": 2})
    hat = expand_hat(g)
    assert serialize.graph_to_obj(hat.graph) == _obj(
        ["v", "u"], [("l#1", "vv"), ("l#2", "vv"), ("e", "vu")],
        {"v": ["l#1:0", "l#2:0", "l#1:1", "l#2:1", "e"], "u": ["e"]})
    assert hat.copy_of == {"l#1": ("l", 1), "l#2": ("l", 2), "e": ("e", 1)}


def test_expand_hat_ribbon_of_two_components():
    g = WeightedMultigraph.build(
        ["a", "b", "c", "x", "y"],
        [("p", "ab"), ("q", "ac"), ("r", "bc"), ("s", "xy"), ("t", "xy")],
        None, {"p": 2, "s": 3},
        {"a": [("q", 0), ("p", 0)], "b": [("p", 1), ("r", 0)],
         "c": [("r", 1), ("q", 1)], "x": [("t", 0), ("s", 0)],
         "y": [("s", 1), ("t", 1)]})
    assert serialize.graph_to_obj(expand_hat(g).graph) == _obj(
        ["a", "b", "c", "x", "y"],
        [("p#1", "ab"), ("p#2", "ab"), ("q", "ac"), ("r", "bc"),
         ("s#1", "xy"), ("s#2", "xy"), ("s#3", "xy"), ("t", "xy")],
        {"a": ["q", "p#1", "p#2"], "b": ["p#1", "p#2", "r"], "c": ["r", "q"],
         "x": ["t", "s#1", "s#2", "s#3"], "y": ["s#1", "s#2", "s#3", "t"]})


# The rewrites and the family generator call the plain constructor, which
# checks nothing; each graph they make must be one that `build` accepts
# unchanged.

def _rebuilt(g):
    return WeightedMultigraph.build(g.vertices,
                                    [(e.id, e.ends) for e in g.edges],
                                    g.vertex_weight, g.edge_weight, g.ribbon)


def _alternating_plan(g, v, r):
    """Send each edge at v wholly to one of r copies in turn; a loop joins
    two neighbouring copies."""
    plan = {}
    for k, e in enumerate(x for x in g.edges if v in x.ends):
        c = k % r
        plan[e.id] = [((c, (c + 1) % r) if e.is_loop else c,
                       g.edge_weight[e.id])]
    return plan


def _derived(g):
    yield g
    yield expand_hat(g).graph
    for v in g.vertices:
        w = g.vertex_weight[v]
        yield add_leaf(g, v, leaf_weight=1, edge_weight=w)
        if w > 1:
            yield shrink_vertex_weight(g, v, 1)
            yield split_vertex(g, v, w, _alternating_plan(g, v, w))[0]
            plan = _auto_split_plan(g, v)
            if plan is not None:
                yield split_vertex(g, v, 2, plan)[0]
        yield split_vertex(g, v, 1, _alternating_plan(g, v, 1))[0]
    for e in g.edges:
        w = g.edge_weight[e.id]
        unit = math.lcm(*(g.vertex_weight[v] for v in e.ends))
        if w >= 2 * unit:
            yield split_edge(g, e.id, [unit] * (w // unit))


# ids of three kinds whose JSON key texts the rewrites' new ids meet:
# 3 splits into "3.1" against the float 3.1, 4 into "4#1" against the
# string, and vertex 2 grows "2_leaf" against the string
VERTEX_IDS = [True, None, 0.5, 2, 3, "a", "2_leaf", "2_1"]
EDGE_IDS = [True, None, 3, 3.1, 4, "4#1", 2.5, "x", "3.2", 7]


def _random_odd_ids(rng):
    n = rng.randint(2, 5)
    vertices = rng.sample(VERTEX_IDS, n)
    vw = {v: rng.choice((1, 1, 2, 3)) for v in vertices}
    pairs = [(vertices[i], vertices[rng.randrange(i)]) for i in range(1, n)]
    pairs += [tuple(rng.choice(vertices) for _ in range(2))
              for _ in range(rng.randint(1, 3))]
    edges = list(zip(rng.sample(EDGE_IDS, len(pairs)), pairs))
    ew = {eid: math.lcm(vw[a], vw[b]) * rng.choice((1, 2, 3))
          for eid, (a, b) in edges}
    g = WeightedMultigraph.build(vertices, edges, vw, ew)
    ribbon = {v: rng.sample(hs, len(hs)) for v, hs in g.ribbon.items()}
    return WeightedMultigraph.build(vertices, edges, vw, ew, ribbon)


@pytest.mark.parametrize("source", ["desk", "random"])
def test_derived_graphs_are_what_build_makes_of_their_fields(source):
    if source == "desk":
        graphs = pleasant_family(max_vertices=3, max_edges=4, max_weight=3)
    else:
        rng = random.Random(11)
        graphs = [_random_odd_ids(rng) for _ in range(300)]
    count = 0
    for g in graphs:
        for out in _derived(g):
            assert out == _rebuilt(out)
            count += 1
    assert count > 3000
