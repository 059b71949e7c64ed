"""The streamed representatives writer against `dumps` of `tree_to_obj`."""

import io
import json
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (Divisor, PreconditionError, WeightedMultigraph,
                      enumerate_forests, is_pleasant)
from chipfire.bernardi import (all_subweighting_combos, enumerate_subweightings,
                               resolve_roots)
from chipfire.graphs import _json_key
from chipfire.serialize import (divisor_from_obj, divisor_to_obj, dumps,
                                graph_from_obj, graph_to_obj, tree_from_obj,
                                tree_to_obj, write_representatives)

# ids a graph file may hold: strings that need escaping or a %, an int and
# its string twin, a float, null and true
IDS = ["a", 'q"', "b\\", "é", "☃", "%d", "7", 7, 2.5, None, -3, True]


def _written(g, balanced, roots=None, starts=None, before=(), after=()):
    # the sigma on each forest of its validated per-forest sub-weightings
    combos = ((forest, [tuple(ts.sigma[e] for e in forest) for ts in
                        enumerate_subweightings(g, forest, balanced, roots,
                                                starts)])
              for forest in enumerate_forests(g))
    out = io.StringIO()
    write_representatives(out.write, g, *resolve_roots(g, roots, starts),
                          combos, before, after)
    return out.getvalue()


def _dumped(g, balanced, roots=None, starts=None, before=(), after=()):
    reps = [tree_to_obj(g, ts) for forest in enumerate_forests(g)
            for ts in enumerate_subweightings(g, forest, balanced, roots, starts)]
    return dumps({**dict(before), "representatives": reps, **dict(after)})


@st.composite
def graphs(draw):
    vertices = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4,
                             unique_by=_json_key))
    edge_ids = draw(st.lists(st.sampled_from(IDS), max_size=5,
                             unique_by=_json_key))
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges = [(eid, draw(ends)) for eid in edge_ids]
    return WeightedMultigraph.build(
        vertices, edges,
        {v: draw(st.integers(1, 2)) for v in vertices},
        {eid: draw(st.integers(1, 3)) for eid in edge_ids})


def _last_roots(g):
    # every component's last vertex as its root, at the last half-edge of
    # its ribbon
    roots = tuple(comp[-1] for comp in g.components())
    return roots, {q: g.ribbon[q][-1] for q in roots if g.ribbon[q]}


@given(graphs(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_writer_matches_dumps(g, balanced, last_roots):
    roots, starts = _last_roots(g) if last_roots else (None, None)
    assert _written(g, balanced, roots, starts) == _dumped(g, balanced, roots, starts)
    if last_roots:
        return
    # the graph-level generator that the CLI streams trusts its own forests
    if balanced and not is_pleasant(g):
        with pytest.raises(PreconditionError):
            all_subweighting_combos(g, balanced)
    else:
        out = io.StringIO()
        write_representatives(out.write, g, *resolve_roots(g),
                              all_subweighting_combos(g, balanced))
        assert out.getvalue() == _dumped(g, balanced)


@given(graphs(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_tree_and_divisor_objects_read_back(g, last_roots):
    # JSON writes a number, true or null id as an object key of its text
    roots, starts = _last_roots(g) if last_roots else (None, None)
    for forest in enumerate_forests(g):
        for ts in enumerate_subweightings(g, forest, False, roots, starts):
            assert tree_from_obj(g, json.loads(dumps(tree_to_obj(g, ts)))) == ts
    D = Divisor({v: k for k, v in enumerate(g.vertices)})
    assert divisor_from_obj(g, json.loads(dumps(divisor_to_obj(D)))) == D


@given(graphs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_graph_objects_read_back(g, reverse):
    # ribbon keys and loop half-edges name ids by their JSON key text
    if reverse:  # a ribbon that is not the default one
        g = WeightedMultigraph.build(
            g.vertices, [(e.id, e.ends) for e in g.edges], g.vertex_weight,
            g.edge_weight, {v: g.ribbon[v][::-1] for v in g.vertices})
    assert graph_from_obj(json.loads(dumps(graph_to_obj(g)))) == g


def test_writer_edge_cases():
    one = WeightedMultigraph.build(["v"], [])
    loop_start = WeightedMultigraph.build(
        ["u", 7], [("l", ("u", "u")), ("7", ("u", 7)), (8, (7, 7))],
        {"u": 2}, {"l": 2, "7": 2})
    two = WeightedMultigraph.build(
        ["a", "b", 'c"', None], [("x", ("a", "b")), ("y", ('c"', None)),
                                 ("z", ("a", "b"))],
        {}, {"x": 3, "y": 2})
    # w(u) = 2 and the loop leaves D(u) = -1: no balanced representative
    unbalanced = WeightedMultigraph.build(
        ["u", "v"], [("e", ("u", "v")), ("l", ("u", "u"))], {"u": 2})
    for g in (one, loop_start, two, unbalanced):
        for balanced in (False, True):
            assert _written(g, balanced) == _dumped(g, balanced)
    assert json.loads(_written(one, False))["representatives"] == [
        {"tree": [], "sigma": {}, "root": "v"}]
    assert json.loads(_written(loop_start, False))["representatives"][0][
        "start"] == "l:0"
    assert "roots" in json.loads(_written(two, False))["representatives"][0]
    assert _written(unbalanced, True) == '{\n  "representatives": []\n}\n'
    # the fiber layout: members before and after the list
    before, after = {"group": {"invariant_factors": [], "order": 1}}, {"note": "é"}
    for g in (one, two, unbalanced):
        assert (_written(g, True, before=before, after=after)
                == _dumped(g, True, before=before, after=after))


class _Int(int):
    def __repr__(self):  # json writes a subclass by int's repr
        return "not JSON"


class _Float(float):
    def __repr__(self):
        return "not JSON"


class _Str(str):
    pass


class _List(list):
    pass


# leaves json writes in every form: escapes, non-ASCII, a lone surrogate,
# a %, ints past 64 bits, bools, null, the floats it spells out and
# subclasses of str, int and float
STRINGS = ["", "a", 'q"', "b\\", "é", "☃", "\U0001f600", "\ud800", "%d",
           "\n\t\x00\x1f\x7f", "\u2028", "</script>", _Str("s")]
SCALARS = [0, 1, -3, 2**70, -(2**64), True, False, None, 0.0, -0.0, 2.5, 1e300,
           -1e-300, 1 / 3, float("inf"), float("-inf"), float("nan"), _Int(5),
           _Float(2.5)]
KEYS = STRINGS + [0, 7, -2, 2**65, 2.5, -0.0, float("inf"), True, False, None]


def _random_value(rng, depth):
    kind = rng.randrange(7 if depth else 2)
    if kind == 0:
        return rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(SCALARS)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    if kind < 5:
        items = [_random_value(rng, depth - 1) for _ in range(size)]
        return (list, tuple, _List)[kind - 2](items)
    items = {rng.choice(KEYS): _random_value(rng, depth - 1) for _ in range(size)}
    return items if kind == 5 else OrderedDict(items)


def test_dumps_matches_json_dumps_on_random_values():
    rng = random.Random(28)
    for _ in range(3000):
        value = _random_value(rng, rng.randrange(5))
        assert dumps(value) == json.dumps(value, indent=2) + "\n", value


@pytest.mark.parametrize("value", [{1, 2}, [b"x"], {"k": object()}, {(1,): 2},
                                   {b"k": 1}])
def test_dumps_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        dumps(value)
    assert str(got.value) == str(want.value)
