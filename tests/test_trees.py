import pytest

from chipfire import (GraphInputError, PreconditionError, SubweightedTree,
                      WeightedMultigraph, enumerate_forests, enumerate_trees,
                      is_maximal_forest)


def test_triangle_has_three_trees(triangle):
    assert enumerate_trees(triangle) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_tree_input_yields_itself():
    g = WeightedMultigraph.build(["u", "v", "w"],
                                 [("e1", ("u", "v")), ("e2", ("v", "w"))])
    assert enumerate_trees(g) == [("e1", "e2")]


def test_disjoint_triangles_have_nine_forests():
    verts = [f"{side}{i}" for side in "ab" for i in range(3)]
    edges = [(f"{side}e{i}", (f"{side}{i}", f"{side}{(i + 1) % 3}"))
             for side in "ab" for i in range(3)]
    g = WeightedMultigraph.build(verts, edges)
    forests = enumerate_forests(g)
    assert len(forests) == 9
    assert all(is_maximal_forest(g, f) for f in forests)
    with pytest.raises(PreconditionError):
        enumerate_trees(g)


def test_loops_never_in_trees():
    g = WeightedMultigraph.build(["u", "v"],
                                 [("l", ("u", "u")), ("e", ("u", "v"))])
    assert enumerate_trees(g) == [("e",)]
    assert not is_maximal_forest(g, ("l",))


def test_is_maximal_forest_negatives(triangle):
    assert not is_maximal_forest(triangle, ("a",))           # too small
    assert not is_maximal_forest(triangle, ("a", "b", "c"))  # cycle
    assert not is_maximal_forest(triangle, ("a", "a"))       # duplicate
    assert not is_maximal_forest(triangle, ("a", "zzz"))     # unknown edge
    assert is_maximal_forest(triangle, ("a", "b"))
    g = WeightedMultigraph.build(
        ["u", "v", "w", "x", "y"],
        [("l", ("u", "u")), ("p", ("u", "v")), ("q", ("u", "v")),
         ("r", ("v", "w")), ("s", ("x", "y"))])
    assert is_maximal_forest(g, ("p", "r", "s"))
    assert is_maximal_forest(g, ["s", "r", "q"])      # any order, any iterable
    assert not is_maximal_forest(g, ("p", "p", "s"))  # duplicate
    assert not is_maximal_forest(g, ("p", "r", "t"))  # unknown edge
    assert not is_maximal_forest(g, ("l", "r", "s"))  # a loop
    assert not is_maximal_forest(g, ("p", "q", "s"))  # a cycle of parallels
    assert not is_maximal_forest(g, ("p", "r"))       # misses a component
    assert not is_maximal_forest(g, ("p", "r", "s", "q"))  # too long
    assert not is_maximal_forest(g, ())
    assert not is_maximal_forest(g, (["p"], "r", "s"))  # an unhashable id


def test_build_maps_an_unhashable_id_to_input_error(tw):
    for forest in ((["a"], "b"), (["a"],), ({"a": 1}, "b", "c")):
        with pytest.raises(GraphInputError):
            SubweightedTree.build(tw, forest)
