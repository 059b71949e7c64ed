import warnings

import pytest

from chipfire import (Divisor, GraphInputError, PreconditionError,
                      SpecialFiberDescription, SplitPlan, WeightedMultigraph,
                      component_group, count_picb0, dual_graph, phi_note,
                      shrink_vertex_weight, split_edge, split_vertex,
                      tree_divisor, validate)
from chipfire.fibers import check_base_change_injectivity, psi_map
from chipfire.picard import enumerate_coset_representatives_bruteforce


def _balanced_reps(g):
    return enumerate_coset_representatives_bruteforce(g, balanced_only=True)


def _fiber(components, nodes):
    return SpecialFiberDescription(tuple(components), tuple(nodes))


def test_dual_graph_banana():
    f = _fiber([("C1", 1), ("C2", 1)],
               [("p1", ("C1", "C2"), 1), ("p2", ("C1", "C2"), 1),
                ("p3", ("C1", "C2"), 1)])
    g = dual_graph(f)
    assert g.vertices == ("C1", "C2") and len(g.edges) == 3
    assert all(w == 1 for w in g.vertex_weight.values())


def test_dual_graph_single_component():
    g = dual_graph(_fiber([("C", 1)], []))
    assert g.vertices == ("C",) and not g.edges


def test_dual_graph_weighted():
    f = _fiber([("C1", 2), ("C2", 1)],
               [("p1", ("C1", "C2"), 2), ("p2", ("C1", "C2"), 2)])
    g = dual_graph(f)
    assert g.vertex_weight == {"C1": 2, "C2": 1}
    assert g.edge_weight == {"p1": 2, "p2": 2}
    assert validate(g).pleasant


def test_dual_graph_self_node_is_loop():
    g = dual_graph(_fiber([("C", 1)], [("p", ("C", "C"), 1)]))
    assert g.edges[0].is_loop


def test_dual_graph_rejects_divisibility_violation():
    f = _fiber([("C1", 2), ("C2", 1)], [("p1", ("C1", "C2"), 1)])
    with pytest.raises(GraphInputError) as exc:
        dual_graph(f)
    assert "p1" in str(exc.value) and "C1" in str(exc.value)


def test_fiber_json_round_trip():
    f = _fiber([("C1", 2), ("C2", 1)], [("p1", ("C1", "C2"), 2)])
    assert SpecialFiberDescription.from_obj(f.to_obj()) == f


def test_component_group_banana():
    f = _fiber([("C1", 1), ("C2", 1)],
               [("p1", ("C1", "C2"), 1), ("p2", ("C1", "C2"), 1),
                ("p3", ("C1", "C2"), 1)])
    structure, reps = component_group(f)
    assert structure.invariant_factors == (3,)
    assert len(reps) == 3


def test_component_group_single_vertex():
    structure, reps = component_group(_fiber([("C", 1)], []))
    assert structure.invariant_factors == ()
    assert len(reps) == 1 and reps[0].forest_edges == ()


def test_component_group_tw_fiber():
    f = _fiber([("v1", 2), ("v2", 1), ("v3", 1)],
               [("a", ("v1", "v2"), 2), ("b", ("v1", "v3"), 2),
                ("c", ("v2", "v3"), 1)])
    g = dual_graph(f)
    structure, reps = component_group(f)
    assert structure.invariant_factors == (4,)
    expected = [Divisor({"v1": 0, "v2": -1, "v3": 2}),
                Divisor({"v1": 0, "v2": 0, "v3": 1}),
                Divisor({"v1": 2, "v2": -1, "v3": 0}),
                Divisor({"v1": 0, "v2": 1, "v3": 0})]
    from chipfire import equivalent
    for want in expected:
        assert sum(1 for ts in reps
                   if equivalent(g, tree_divisor(g, ts), want)) == 1


def test_disconnected_fiber_warns():
    f = _fiber([("C1", 1), ("C2", 1)], [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        structure, reps = component_group(f)
    assert any("disconnected" in str(w.message) for w in caught)
    assert structure.invariant_factors == ()


def test_phi_note():
    assert "geometric" in phi_note(_fiber([("C", 1)], []))
    assert "indices are 1" in phi_note(_fiber([("C", 2)], []))


def _tw():
    return WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("a", ("v1", "v2")), ("b", ("v1", "v3")), ("c", ("v2", "v3"))],
        {"v1": 2}, {"a": 2, "b": 2})


def test_psi_map():
    tw = _tw()
    plan = SplitPlan({"a": [(0, 1), (1, 1)], "b": [(0, 1), (1, 1)]})
    _, vmap = split_vertex(tw, "v1", 2, plan)
    out = psi_map(tw, vmap, Divisor({"v1": 2, "v2": -1, "v3": -1}))
    assert out.coefficients == {"v1_1": 1, "v1_2": 1, "v2": -1, "v3": -1}
    with pytest.raises(PreconditionError):
        psi_map(tw, vmap, Divisor({"v1": 1, "v2": 0, "v3": -1}))


def test_injectivity_edge_split():
    g = WeightedMultigraph.build(
        ["u", "v"], [("e", ("u", "v")), ("f", ("u", "v"))],
        edge_weight={"e": 3})
    out = split_edge(g, "e", [2, 1])
    rep = check_base_change_injectivity(g, out, None, _balanced_reps(g))
    assert rep.injective and rep.checked == 4
    assert count_picb0(out) == count_picb0(g)


def test_injectivity_shrink():
    tw = _tw()
    out = shrink_vertex_weight(tw, "v1", 1)
    rep = check_base_change_injectivity(tw, out, None, _balanced_reps(tw))
    assert rep.injective and rep.checked == 4
    assert count_picb0(out) == 8


def test_injectivity_vertex_split():
    tw = _tw()
    plan = SplitPlan({"a": [(0, 1), (1, 1)], "b": [(0, 1), (1, 1)]})
    out, vmap = split_vertex(tw, "v1", 2, plan)
    rep = check_base_change_injectivity(tw, out, vmap, _balanced_reps(tw))
    assert rep.injective and rep.checked == 4
