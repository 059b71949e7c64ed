"""Property-based checks on randomly generated pleasant graphs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (Divisor, WeightedMultigraph, count_pic0, count_picb0,
                      degree, equivalent, expand_hat, is_balanced, laplacian,
                      pic0_structure, picb0_structure, unbalancing_class,
                      validate, vertex_gcd, weighted_genus)
from chipfire.divisors import LaplacianSystem


@st.composite
def pleasant_graphs(draw):
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    vweights = [draw(st.sampled_from([1, 1, 2, 3])) for _ in range(n)]
    m = draw(st.integers(0 if n == 1 else n - 1, 5))
    edges = []
    eweights = {}
    for k in range(m):
        # keep connected: first n-1 edges form a spanning tree
        if k < n - 1:
            a = k + 1
            b = draw(st.integers(0, k))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1))
        eid = f"e{k}"
        edges.append((eid, (vertices[a], vertices[b])))
        unit = math.lcm(vweights[a], vweights[b])
        eweights[eid] = unit * draw(st.integers(1, max(1, 3 // unit)))
    return WeightedMultigraph.build(
        vertices, edges, dict(zip(vertices, vweights)), eweights)


@given(pleasant_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_principal_divisors_are_balanced_degree_zero(g, data):
    f = {v: data.draw(st.integers(-3, 3)) for v in g.vertices}
    D = laplacian(g, f)
    assert degree(D) == 0
    assert validate(g).pleasant
    assert is_balanced(g, D)


@given(pleasant_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_equivalence_agrees_with_class_key(g, data):
    sys = LaplacianSystem(g)
    D1 = Divisor({v: data.draw(st.integers(-2, 2)) for v in g.vertices})
    D2 = Divisor({v: data.draw(st.integers(-2, 2)) for v in g.vertices})
    same_class = (degree(D1) == degree(D2)
                  and sys.class_key(D1) == sys.class_key(D2))
    assert same_class == (equivalent(g, D1, D2) is not None)


@given(pleasant_graphs())
@settings(max_examples=60, deadline=None)
def test_counts_match_structures(g):
    assert pic0_structure(g).order == count_pic0(g)
    assert picb0_structure(g).order == count_picb0(g)
    prod = 1
    for v in g.vertices:
        prod *= g.vertex_weight[v]
    assert count_pic0(g) * vertex_gcd(g) == count_picb0(g) * prod


@given(pleasant_graphs())
@settings(max_examples=60, deadline=None)
def test_hat_genus_identity(g):
    hat = expand_hat(g)
    assert validate(hat.graph).pleasant
    assert weighted_genus(hat.graph) == weighted_genus(g) + sum(
        g.vertex_weight[v] - 1 for v in g.vertices)


@given(pleasant_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_unbalancing_residues_reduced(g, data):
    D = Divisor({v: data.draw(st.integers(-6, 6)) for v in g.vertices})
    res = unbalancing_class(g, D)
    for v in g.vertices:
        assert 0 <= res[v] < g.vertex_weight[v]
        assert (D.coefficients[v] - res[v]) % g.vertex_weight[v] == 0
