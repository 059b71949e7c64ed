import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire import bernardi
from chipfire import (Divisor, GraphInputError, PreconditionError,
                      SubweightedTree, WeightedMultigraph, count_pic0, degree,
                      enumerate_forests, enumerate_trees, equivalent,
                      expand_hat, is_balanced, is_pleasant, laplacian,
                      orientation_divisor, torsor_act, tour_forest,
                      tree_divisor, weighted_genus)
from chipfire.bernardi import (BernardiReducer, SubweightedTree,
                               enumerate_subweightings, hat_reference_shift,
                               reduce as bernardi_reduce, resolve_roots)
from chipfire.divisors import _PackedResidues
from chipfire.family import pleasant_family

TW_ROOTS = (("v2",), {"v2": ("a", 1)})


def _tw_sub(tw, T, sigma):
    roots, starts = TW_ROOTS
    for ts in enumerate_subweightings(tw, T, roots=roots, starts=starts):
        if all(ts.sigma[e] == s for e, s in sigma.items()):
            return ts
    raise AssertionError("no such sub-weighting")


def test_tour_first_panel(triangle):
    O = tour_forest(triangle, ("a", "b"), roots=("v2",), starts={"v2": "a"})
    assert O == {"a": ("v2", "v1"), "b": ("v1", "v3"),
                           "c": ("v2", "v3")}


def test_tour_third_panel(triangle):
    O = tour_forest(triangle, ("b", "c"), roots=("v2",), starts={"v2": "a"})
    assert O == {"a": ("v1", "v2"), "b": ("v3", "v1"),
                           "c": ("v2", "v3")}


def test_tour_single_edge():
    g = WeightedMultigraph.build(["q", "v"], [("e", ("q", "v"))])
    O = tour_forest(g, ("e",), roots=("q",))
    assert O == {"e": ("q", "v")}


def test_tour_rejects_non_tree(triangle):
    with pytest.raises(GraphInputError, match="not a maximal spanning forest"):
        tour_forest(triangle, ("a",), roots=("v2",))


@pytest.mark.parametrize("forest", [[["a"], "b"], [{"a": 1}, "b"],
                                    ["a", ["b"]]])
def test_an_unhashable_forest_id_is_an_input_error(tw, forest):
    message = re.escape(f"forest {forest!r} is not a maximal spanning forest")
    with pytest.raises(GraphInputError, match=message):
        tour_forest(tw, forest)
    ts = SubweightedTree(tuple(forest), dict(tw.edge_weight), ("v1",),
                         {"v1": tw.ribbon["v1"][0]})
    with pytest.raises(GraphInputError, match=message):
        tree_divisor(tw, ts)


def test_orientation_divisors(triangle):
    roots, starts = ("v2",), {"v2": "a"}
    first = tour_forest(triangle, ("a", "b"), roots, starts)
    third = tour_forest(triangle, ("b", "c"), roots, starts)
    assert orientation_divisor(triangle, first).vector(triangle) == [0, -1, 1]
    assert orientation_divisor(triangle, third).vector(triangle) == [0, 0, 0]


def test_orientation_divisor_takes_only_an_orientation_of_the_graph(
        triangle):
    O = tour_forest(triangle, ("a", "b"))
    assert orientation_divisor(triangle, O) == Divisor(
        {"v1": -1, "v2": 1, "v3": 0})
    # either order of an edge's ends, as a tuple or a list
    assert orientation_divisor(triangle, {**O, "a": ["v2", "v1"]}) == Divisor(
        {"v1": 0, "v2": 0, "v3": 0})
    bad = [
        ({**O, "bogus": ("v1", "v2")}, "that the graph does not have"),
        ({**O, "a": ("v1", "v9")}, "not ('v1', 'v2') in either order"),
        ({**O, "a": ("v1", "v3")}, "not ('v1', 'v2') in either order"),
        ({**O, "a": ("v1", "v2", "v3")}, "in either order"),
        ({**O, "a": "v1v2"}, "in either order"),
        ({"a": O["a"], "b": O["b"]}, "missing edges ['c']"),
    ]
    for orient, message in bad:
        with pytest.raises(PreconditionError, match=re.escape(message)):
            orientation_divisor(triangle, orient)


def _every_subweighted_tree(g):
    roots, starts = resolve_roots(g)
    for forest, combos in bernardi.all_subweighting_combos(g):
        for combo in combos:
            yield bernardi._with_sigma(g, forest, combo, roots, starts)


def _tree_divisor_by_hand(g, ts):
    """D_{T,sigma} from the public tour: sigma at the head of each edge
    and w - sigma at its tail, minus the vertex weights."""
    out = {v: -g.vertex_weight[v] for v in g.vertices}
    for eid, (tail, head) in tour_forest(g, ts.forest_edges, ts.roots,
                                         ts.starts).items():
        out[head] += ts.sigma[eid]
        out[tail] += g.edge_weight[eid] - ts.sigma[eid]
    return [out[v] for v in g.vertices]


def _indegrees_by_hand(g, orient):
    heads = [head for _tail, head in orient.values()]
    return [heads.count(v) - 1 for v in g.vertices]


def _vector_core_graphs():
    rng = random.Random(27)
    return [*pleasant_family(max_vertices=3, max_edges=4, max_weight=3),
            *(_random_pleasant(rng, n, parts) for n in range(4, 8)
              for parts in (1, 2) if n >= 2 * parts + 1)]


def test_vector_cores_equal_the_public_divisors():
    graphs = _vector_core_graphs()
    assert any(len(g.components()) == 2 for g in graphs)
    assert any(e.is_loop for g in graphs for e in g.edges)
    trees = orientations = 0
    for g in graphs:
        for ts in _every_subweighted_tree(g):
            vec = bernardi._tree_vector(
                g, ts.sigma, bernardi._orient(g, ts.forest_edges, ts.starts))
            assert vec == tree_divisor(g, ts).vector(g)
            assert vec == _tree_divisor_by_hand(g, ts)
            trees += 1
        hat = expand_hat(g)
        for h, orients in (
                (g, [tour_forest(g, forest) for forest in enumerate_forests(g)]),
                (hat.graph, [O for _, O in bernardi.hat_pairs(g, hat)])):
            for orient in orients:
                vec = bernardi._indegree_vector(h, orient)
                assert vec == orientation_divisor(h, orient).vector(h)
                assert vec == _indegrees_by_hand(h, orient)
                orientations += 1
    assert trees > 10_000 and orientations > 10_000


def test_subweighting_counts(tw):
    roots, starts = TW_ROOTS
    sizes = {T: len(enumerate_subweightings(tw, T, roots=roots, starts=starts))
             for T in enumerate_trees(tw)}
    assert sizes == {("a", "b"): 4, ("a", "c"): 2, ("b", "c"): 2}


def test_balanced_subweightings(tw):
    roots, starts = TW_ROOTS
    bal = enumerate_subweightings(tw, ("a", "b"), balanced_only=True,
                                  roots=roots, starts=starts)
    assert sorted((ts.sigma["a"], ts.sigma["b"]) for ts in bal) \
        == [(1, 1), (2, 2)]


def test_sigma_balance_matches_divisor_balance(tw):
    roots, starts = TW_ROOTS
    for T in enumerate_trees(tw):
        everything = enumerate_subweightings(tw, T, roots=roots, starts=starts)
        flagged = enumerate_subweightings(tw, T, balanced_only=True,
                                          roots=roots, starts=starts)
        for ts in everything:
            assert (ts in flagged) == is_balanced(tw, tree_divisor(tw, ts))


def test_tree_divisors(tw):
    assert tree_divisor(tw, _tw_sub(tw, ("a", "b"), {"a": 2, "b": 2})) \
        .vector(tw) == [0, -1, 2]
    assert tree_divisor(tw, _tw_sub(tw, ("a", "b"), {"a": 1, "b": 1})) \
        .vector(tw) == [0, 0, 1]
    assert tree_divisor(tw, _tw_sub(tw, ("b", "c"), {"b": 2, "c": 1})) \
        .vector(tw) == [0, 1, 0]


def test_tree_divisor_degree(tw, four_edge_pleasant):
    for g in (tw, four_edge_pleasant):
        for T in enumerate_trees(g):
            for ts in enumerate_subweightings(g, T):
                assert degree(tree_divisor(g, ts)) == weighted_genus(g) - 1


def test_loop_contributes_its_weight():
    g = WeightedMultigraph.build(["v"], [("l", ("v", "v"))],
                                 edge_weight={"l": 2})
    ts = SubweightedTree.build(g, ())
    assert ts.sigma == {"l": 2} and ts.starts == {"v": ("l", 0)}
    assert tree_divisor(g, ts).vector(g) == [1]  # 2 - w(v)
    assert degree(tree_divisor(g, ts)) == weighted_genus(g) - 1


def test_hat_correspondence_tw(tw):
    hat = expand_hat(tw)
    shift = hat_reference_shift(tw)
    pairs = set()
    hat_trees = enumerate_trees(hat.graph)
    for hatT, (ts, _O) in zip(hat_trees, bernardi.hat_pairs(tw, hat)):
        pairs.add(ts.key())
        DO = orientation_divisor(hat.graph, tour_forest(hat.graph, hatT))
        assert tree_divisor(tw, ts).vector(tw) == (DO - shift).vector(tw)
    assert len(pairs) == 8


@pytest.mark.parametrize("name", ["tw", "four_edge_pleasant"])
def test_hat_pairs_share_the_tour_orientation(name, request):
    # criterion 6 reads D_O off the orientation that built the pair
    g = request.getfixturevalue(name)
    hat = expand_hat(g)
    hat_trees = enumerate_forests(hat.graph)
    pairs = bernardi.hat_pairs(g, hat)
    assert len(pairs) == len(hat_trees)
    for hatT, (ts, O) in zip(hat_trees, pairs):
        assert O == tour_forest(hat.graph, hatT)
        assert ts == SubweightedTree.build(g, ts.forest_edges, ts.sigma)


def test_hat_tree_copy_choice_sweeps_sigma(tw):
    # fixing the rest of the tree, the chosen copy of edge "a" determines sigma
    hat = expand_hat(tw)
    pairs = dict(zip(enumerate_forests(hat.graph), bernardi.hat_pairs(tw, hat)))
    sigmas = set()
    for copy in ("a#1", "a#2"):
        ts, _O = pairs[(copy, "b#1")]
        sigmas.add(ts.sigma["a"])
    assert sigmas == {1, 2}


def test_reduce_examples(tw):
    ts, cert = bernardi_reduce(tw, Divisor({"v1": 2, "v2": -2, "v3": 1}),
                               roots=("v2",), starts={"v2": "a"})
    assert ts.forest_edges == ("b", "c")
    assert ts.sigma == {"a": 2, "b": 2, "c": 1}
    assert laplacian(tw, cert.potential).vector(tw) == [2, -3, 1]


def test_reduce_fixed_point(tw):
    ts0 = _tw_sub(tw, ("a", "b"), {"a": 1, "b": 1})
    ts, cert = bernardi_reduce(tw, tree_divisor(tw, ts0), *TW_ROOTS)
    assert ts == ts0
    assert set(cert.potential.values()) == {0}


def test_reduce_unweighted_zero(triangle):
    ts, _ = bernardi_reduce(triangle, Divisor.zero(triangle),
                            roots=("v2",), starts={"v2": "a"})
    assert set(ts.forest_edges) == {"b", "c"}


def test_reduce_rejects_wrong_degree(tw):
    with pytest.raises(PreconditionError):
        bernardi_reduce(tw, Divisor.zero(tw))


def test_reduce_checks_component_degrees_before_the_walk(tw, monkeypatch):
    # tw plus a disjoint edge {u, x}: per-component genus - 1 is (1, -1)
    g = WeightedMultigraph.build(
        [*tw.vertices, "u", "x"], [*((e.id, e.ends) for e in tw.edges),
                                   ("d", ("u", "x"))],
        tw.vertex_weight, tw.edge_weight)
    roots, starts = (("v1", "u"), None)
    ts = enumerate_subweightings(g, ("a", "b", "d"), roots=roots)[0]
    off = Divisor({"v1": 1, "v2": 0, "v3": -1, "u": 0, "x": 0})
    monkeypatch.setattr(bernardi, "_subweighting_in_class", None)  # no walk

    def no_system(g):
        raise AssertionError("built a LaplacianSystem before the degree check")

    monkeypatch.setattr(bernardi, "LaplacianSystem", no_system)
    with pytest.raises(PreconditionError, match="genus - 1"):
        bernardi_reduce(g, tree_divisor(g, ts) + Divisor({"v1": 1, "u": -1}),
                        roots, starts)
    with pytest.raises(PreconditionError, match="degree 0 on each component"):
        torsor_act(g, Divisor({"v1": 1, "u": -1}), ts)
    monkeypatch.undo()
    assert torsor_act(g, off, ts) == bernardi_reduce(
        g, tree_divisor(g, ts) + off, roots, starts)[0]


def test_reduce_rejects_vertices_the_graph_lacks():
    # two components, each a pair of parallel edges: the walk and the
    # per-component degrees would ignore "ghost"
    g = WeightedMultigraph.build(
        list("abcd"), [("e1", ("a", "b")), ("e2", ("a", "b")),
                       ("e3", ("c", "d")), ("e4", ("c", "d"))])
    D = Divisor({"a": 1, "b": -1, "c": 0, "d": 0, "ghost": 7})
    with pytest.raises(GraphInputError, match="ghost"):
        bernardi_reduce(g, D)
    ts = bernardi_reduce(g, Divisor({"a": 1, "b": -1, "c": 0, "d": 0}))[0]
    with pytest.raises(GraphInputError, match="ghost"):
        torsor_act(g, Divisor({"ghost": 7}), ts)


def test_triangle_qorientable_divisors_exhaust_classes(triangle):
    divisors = [Divisor({"v1": 0, "v2": -1, "v3": 1}),
                Divisor({"v1": 1, "v2": -1, "v3": 0}),
                Divisor.zero(triangle)]
    for i, D1 in enumerate(divisors):
        for D2 in divisors[i + 1:]:
            assert equivalent(triangle, D1, D2) is None
    # three classes = whole degree-0 group of order 3
    from chipfire import pic0_structure
    assert pic0_structure(triangle).order == 3


def test_torsor_action(tw):
    ts0 = _tw_sub(tw, ("a", "b"), {"a": 2, "b": 2})
    moved = torsor_act(tw, Divisor({"v1": 2, "v2": -1, "v3": -1}), ts0)
    assert moved.forest_edges == ("b", "c")
    assert moved.sigma == {"a": 2, "b": 2, "c": 1}
    assert torsor_act(tw, Divisor.zero(tw), ts0) == ts0
    with pytest.raises(PreconditionError):
        torsor_act(tw, Divisor({"v1": 1}), ts0)


def test_tour_covers_from_root(four_edge_pleasant):
    # the tour orientation lets every vertex be reached from the root
    g = four_edge_pleasant
    for T in enumerate_trees(g):
        O = tour_forest(g, T, roots=("v1",))
        reached = {"v1"}
        frontier = ["v1"]
        while frontier:
            v = frontier.pop()
            for eid, (tail, head) in O.items():
                if tail == v and head not in reached:
                    reached.add(head)
                    frontier.append(head)
        assert reached == set(g.vertices)


def test_tour_forest_disconnected(triangle):
    # two copies of the triangle; the second is toured from a non-default
    # root and start, and matches touring it on its own
    second = [("x", ("w1", "w2")), ("y", ("w1", "w3")), ("z", ("w2", "w3"))]
    two = WeightedMultigraph.build(
        [*triangle.vertices, "w1", "w2", "w3"],
        [(e.id, e.ends) for e in triangle.edges] + second)
    O = tour_forest(two, ("a", "b", "x", "z"), roots=("w2",),
                    starts={"w2": "z"})
    alone = WeightedMultigraph.build(["w1", "w2", "w3"], second)
    assert O == {
        **tour_forest(triangle, ("a", "b")),
        **tour_forest(alone, ("x", "z"), ("w2",), {"w2": "z"})}
    assert O["z"] == ("w2", "w3")
    with pytest.raises(GraphInputError):
        tour_forest(two, ("a", "b", "x"))


def test_build_orders_forest_and_resolves_start(tw):
    ts = SubweightedTree.build(tw, ("b", "a"), roots=("v2",),
                               starts={"v2": "c"})
    assert ts.forest_edges == ("a", "b") and ts.sigma == tw.edge_weight
    assert ts.roots == ("v2",) and ts.starts == {"v2": ("c", 0)}
    assert ts.key() == SubweightedTree(
        ("a", "b"), {"c": 1, "b": 2, "a": 2}, (), {}).key()


@pytest.mark.parametrize("forest, sigma, roots, starts", [
    (("a", "zz"), None, None, None),             # unknown edge
    (("a", "a"), None, None, None),              # repeated edge
    (("a",), None, None, None),                  # not spanning
    (("a", "b"), {"a": 2, "b": 2}, None, None),  # sigma misses an edge
    (("a", "b"), {"a": 3, "b": 2, "c": 1}, None, None),  # sigma > w
    (("a", "b"), {"a": 2, "b": 2, "c": 2}, None, None),  # off-forest != w
    (("a", "b"), {"a": True, "b": 2, "c": 1}, None, None),  # bool sigma
    (("a", "b"), None, ("zz",), None),           # unknown root
    (("a", "b"), None, ("v1", "v2"), None),      # two roots in one component
    (("a", "b"), None, ("v2",), {"v2": "b"}),    # start not at the root
    (("a", "b"), None, None, {"v2": "a"}),       # start at a non-root
])
def test_build_rejects(tw, forest, sigma, roots, starts):
    with pytest.raises(GraphInputError):
        SubweightedTree.build(tw, forest, sigma, roots, starts)


def _random_pleasant(rng, n, parts=1, weights=(1, 1, 2, 3)):
    """Random pleasant graph: per part a random tree plus two more edges,
    and one loop; edge weights are multiples of the lcm of their ends."""
    vertices = [f"u{i}" for i in range(n)]
    vw = {v: rng.choice(weights) for v in vertices}
    pairs = []
    for vs in (vertices[k::parts] for k in range(parts)):
        pairs += [(vs[i], vs[rng.randrange(i)]) for i in range(1, len(vs))]
        pairs += [tuple(rng.sample(vs, 2)) for _ in range(2)]
    v = rng.choice(vertices)
    pairs.append((v, v))
    edges = [(f"e{k}", p) for k, p in enumerate(pairs)]
    ew = {eid: math.lcm(vw[a], vw[b]) * rng.choice((1, 1, 2))
          for eid, (a, b) in edges}
    return WeightedMultigraph.build(vertices, edges, vw, ew)


def _random_pleasant_graphs():
    rng = random.Random(1)
    return ([_random_pleasant(rng, n) for n in range(4, 8)]
            + [_random_pleasant(rng, 6, parts=2)])


@pytest.mark.parametrize("g", _random_pleasant_graphs(),
                         ids=["n4", "n5", "n6", "n7", "n6-two-parts"])
def test_affine_sigma_path_matches_per_tree_path(g):
    # a non-default root, with a non-default start, in one component
    q = g.vertices[-1]
    roots, starts = (q,), {q: g.ribbon[q][-1]}
    reducer = BernardiReducer(g, roots, starts)
    resolved = resolve_roots(g, roots, starts)
    everything = []
    for forest in enumerate_forests(g):
        subs = enumerate_subweightings(g, forest, roots=roots, starts=starts)
        plain = [{**g.edge_weight, **dict(zip(forest, combo))}
                 for combo in itertools.product(
                     *(range(1, g.edge_weight[e] + 1) for e in forest))]
        assert [ts.sigma for ts in subs] == plain
        assert all(ts.forest_edges == forest
                   and (ts.roots, ts.starts) == resolved for ts in subs)
        balanced = enumerate_subweightings(g, forest, balanced_only=True,
                                           roots=roots, starts=starts)
        assert balanced == [ts for ts in subs
                            if is_balanced(g, tree_divisor(g, ts))]
        everything += subs
    assert list(reducer.table.values()) == everything
    for key, ts in reducer.table.items():
        assert reducer.system.class_key(tree_divisor(g, ts)) == key
    # the walk stops at the same trees; the action keeps the tree's roots
    # and starts, the non-default root among them
    comp = next(c for c in g.components() if q in c)
    D0 = Divisor({comp[0]: 1, q: -1})
    for ts in random.Random(2).sample(everything, 20):
        assert bernardi_reduce(g, tree_divisor(g, ts), roots, starts)[0] == ts
        moved = torsor_act(g, D0, ts)
        assert (moved.roots, moved.starts) == resolved and q in moved.roots
        assert reducer.system.class_key(tree_divisor(g, moved)) \
            == reducer.system.class_key(D0 + tree_divisor(g, ts))


def _congruence_graphs():
    """Graphs for the balanced congruences: seeded random pleasant graphs
    with vertex weights in {1, 2, 3, 4, 6}, one and two parts, small
    enough to filter every sub-weighting; and hand-made cases."""
    rng = random.Random(14)
    out = []
    for n, parts in [(3, 1)] * 4 + [(4, 1)] * 6 + [(5, 1)] * 4 + [(5, 2)] * 4:
        while True:
            g = _random_pleasant(rng, n, parts, weights=(1, 2, 3, 4, 6))
            if count_pic0(g) <= 1500:
                break
        out.append(pytest.param(g, id=f"n{n}-parts{parts}-{len(out)}"))

    def build(vw, edges, id):
        g = WeightedMultigraph.build(
            list(vw), [(eid, ends) for eid, ends, _ in edges], vw,
            {eid: w for eid, _, w in edges})
        return pytest.param(g, id=id)

    # the last forest edge at both b (weight 4) and a (weight 2): its
    # congruences clash when sigma on cb is odd
    out.append(build({"c": 1, "b": 4, "a": 2},
                     [("cb", ("c", "b"), 4), ("ba", ("b", "a"), 4),
                      ("ca", ("c", "a"), 2)], "crt-clash"))
    # coprime weights 3 and 2 meet at ba: the congruences always agree
    out.append(build({"c": 1, "b": 3, "a": 2},
                     [("cb", ("c", "b"), 3), ("ba", ("b", "a"), 6),
                      ("ca", ("c", "a"), 2)], "crt-coprime"))
    # an isolated heavy vertex z: bare, with a loop of its weight, and with
    # a loop that unbalances it in every sub-weighting (not pleasant)
    path = [("xy", ("x", "y"), 4), ("yx", ("y", "x"), 2)]
    out.append(build({"x": 2, "y": 1, "z": 2}, path, "isolated-bare"))
    out.append(build({"x": 2, "y": 1, "z": 2},
                     path + [("zz", ("z", "z"), 2)], "isolated-loop"))
    out.append(build({"x": 2, "y": 1, "z": 2},
                     path + [("zz", ("z", "z"), 3)],
                     "isolated-unbalancing-loop"))
    return out


@pytest.mark.parametrize("g", _congruence_graphs())
def test_balanced_congruences_match_the_divisor_filter(g):
    # default roots and starts, and every component's last vertex at the
    # last half-edge of its ribbon; the graph's walk takes the default ones
    last = tuple(comp[-1] for comp in g.components())
    walk = dict(bernardi.all_subweighting_combos(g, True)) \
        if is_pleasant(g) else {}
    for roots, starts in [(None, None),
                          (last, {q: g.ribbon[q][-1] for q in last
                                  if g.ribbon[q]})]:
        for forest in enumerate_forests(g):
            subs = enumerate_subweightings(g, forest, roots=roots,
                                           starts=starts)
            want = [ts for ts in subs if is_balanced(g, tree_divisor(g, ts))]
            assert enumerate_subweightings(g, forest, True, roots,
                                           starts) == want
            if roots is None and walk:
                assert [dict(zip(forest, c)) for c in walk[forest]] \
                    == [{e: ts.sigma[e] for e in forest} for ts in want]
            # the clash drops every odd sigma on cb; the unbalancing loop
            # leaves nothing
            if "cb" in forest and "ba" in forest and g.vertex_weight["b"] == 4:
                assert all(ts.sigma["cb"] % 2 == 0 for ts in want)
            if g.edge_weight.get("zz") == 3:
                assert want == []


@pytest.mark.parametrize("forest", [("a",), ("a", "a"), ("a", "zz"), ("c",)])
@pytest.mark.parametrize("balanced", [False, True])
def test_per_forest_subweightings_reject_a_forest_that_is_not_maximal(
        tw, forest, balanced):
    with pytest.raises(GraphInputError):
        enumerate_subweightings(tw, forest, balanced)


def test_reduce_memory_does_not_grow_with_the_group():
    # K5 with every edge weight 3 has 10,125 classes; a table of them all
    # peaks at about 5 MiB, the walk holds one forest's half box at a time
    vs = [f"v{i}" for i in range(5)]
    edges = [(f"{a}{b}", (a, b)) for a, b in itertools.combinations(vs, 2)]
    g = WeightedMultigraph.build(vs, edges, edge_weight={e: 3 for e, _ in edges})
    D = Divisor({"v0": weighted_genus(g) - 1})
    tracemalloc.start()
    try:
        ts, cert = bernardi_reduce(g, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert laplacian(g, cert.potential).vector(g) \
        == (D - tree_divisor(g, ts)).vector(g)
    assert peak < 2 ** 20


def test_reduce_finds_every_tree_of_the_sub_family():
    # 1,774 graphs, 13,280 classes: reduce and the oracle table share no
    # walk, so each tree's divisor must lead back to that tree
    classes = 0
    for g in pleasant_family(max_vertices=3, max_edges=4, max_weight=3):
        for ts in BernardiReducer(g).table.values():
            assert bernardi_reduce(g, tree_divisor(g, ts))[0] == ts
            classes += 1
    assert classes == 13280


def _with_heavy_edge(rng, parts):
    """A seeded random pleasant graph in `parts` components with a loop,
    and one non-loop edge made heavy: weight >= 1,000, still a multiple
    of the lcm of its ends' weights."""
    g = _random_pleasant(rng, 5 + parts, parts)
    heavy = rng.choice([e for e in g.edges if not e.is_loop])
    unit = math.lcm(*(g.vertex_weight[v] for v in heavy.ends))
    ew = {**g.edge_weight, heavy.id: unit * rng.randint(1000 // unit + 1, 2000)}
    return WeightedMultigraph.build(g.vertices, [(e.id, e.ends) for e in g.edges],
                                    g.vertex_weight, ew, g.ribbon)


@pytest.mark.parametrize("seed", range(6))
def test_reduce_finds_random_trees_with_a_heavy_edge(seed):
    rng = random.Random(seed)
    g = _with_heavy_edge(rng, 1 + seed % 2)
    assert any(w >= 1000 for w in g.edge_weight.values())
    assert any(e.is_loop for e in g.edges)
    # a non-default root and start in the last component
    q = g.components()[-1][-1]
    roots, starts = (q,), {q: g.ribbon[q][-1]}
    forests = enumerate_forests(g)
    for _ in range(20):
        forest = rng.choice(forests)
        sigma = {**g.edge_weight,
                 **{e: rng.randint(1, g.edge_weight[e]) for e in forest}}
        ts = SubweightedTree.build(g, forest, sigma, roots, starts)
        got, cert = bernardi_reduce(g, tree_divisor(g, ts), roots, starts)
        assert got == ts
        assert all(v == 0 for v in cert.potential.values())


@st.composite
def _boxes(draw):
    """(k, e, steps, sizes, want): a few small sizes and one up to 10^4,
    the box at most 10^4, random steps and target in (Z/e)^k; with e =
    10^5 a target is mostly met once or never."""
    k = draw(st.integers(0, 3))
    e = draw(st.sampled_from([1, 2, 6, 40, 10 ** 5]))
    sizes = draw(st.lists(st.integers(1, 5), max_size=3))
    big = draw(st.integers(1, 10 ** 4 // math.prod(sizes)))
    sizes.insert(draw(st.integers(0, len(sizes))), big)
    vec = st.tuples(*[st.integers(0, e - 1)] * k)
    steps = [draw(vec) for _ in sizes]
    return k, e, steps, sizes, draw(vec)


@settings(max_examples=200, deadline=None)
@given(_boxes())
# 7 = 3 * 2 + 1 is past the box, the one residue that meets want
@example((1, 100, [(1,)], [7], (7,)))
def test_box_offsets_agree_with_the_whole_box(box):
    k, e, steps, sizes, want = box
    packed = _PackedResidues(k, e)
    got = bernardi._box_offsets(
        [(packed.pack(s), packed.pack([-x for x in s])) for s in steps],
        sizes, packed.pack(want), packed)
    hits = {c for c in itertools.product(*map(range, sizes))
            if all(sum(cj * s[i] for cj, s in zip(c, steps)) % e == want[i]
                   for i in range(k))}
    assert (got is None) == (not hits)
    assert got is None or tuple(got) in hits


def test_reduce_memory_is_the_root_of_the_box():
    # one edge of weight 10^6, so 10^6 classes in one box: a list of every
    # residue alone would take several MiB
    w = 10 ** 6
    g = WeightedMultigraph.build(["a", "b"], [("e", ("a", "b"))],
                                 edge_weight={"e": w})
    D = Divisor({"a": w - 2 - 765432, "b": 765432})
    tracemalloc.start()
    try:
        ts, cert = bernardi_reduce(g, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tree divisor at sigma is (w - sigma - 1) a + (sigma - 1) b
    assert ts.sigma == {"e": 765433}
    assert cert.potential == {"a": 0, "b": 0}
    assert peak < 2 ** 20
