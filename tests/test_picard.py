import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariants

from chipfire import (Divisor, LaplacianSystem, PreconditionError,
                      WeightedMultigraph, count_pic0, count_picb0, equivalent,
                      laplacian, pic0_structure, picb0_structure)
from chipfire.divisors import reduced_laplacian
from chipfire.picard import enumerate_coset_representatives_bruteforce
from chipfire import intlinalg
from chipfire.selfcheck import tree_sum
from test_bernardi import _random_pleasant as _looped_pleasant


def test_pic0_structure(triangle, tw):
    assert pic0_structure(triangle).invariant_factors == (3,)
    assert pic0_structure(tw).invariant_factors == (8,)
    single = WeightedMultigraph.build(["v"], [])
    assert pic0_structure(single).invariant_factors == ()


def test_picb0_structure(triangle, tw):
    assert picb0_structure(tw).invariant_factors == (4,)
    assert picb0_structure(triangle) == pic0_structure(triangle)
    banana = WeightedMultigraph.build(
        ["u", "v"], [("e1", ("u", "v")), ("e2", ("u", "v"))],
        {"u": 2}, {"e1": 2, "e2": 2})
    assert picb0_structure(banana).invariant_factors == (2,)


def test_picb0_requires_pleasant(tw):
    bad = WeightedMultigraph.build(
        tw.vertices, [(e.id, e.ends) for e in tw.edges], {"v1": 2})
    with pytest.raises(PreconditionError):
        picb0_structure(bad)


def test_counts(triangle, tw, four_edge_pleasant):
    assert count_pic0(tw) == 8
    assert count_pic0(triangle) == 3
    assert count_pic0(four_edge_pleasant) == 16
    assert count_picb0(tw) == 4
    assert count_picb0(triangle) == count_pic0(triangle)
    assert count_picb0(four_edge_pleasant) == 8
    single = WeightedMultigraph.build(["v"], [], {"v": 3})
    for g in (tw, triangle, four_edge_pleasant, single):
        assert tree_sum(g) == count_pic0(g)


def test_bruteforce_matches_structure(tw, triangle):
    for g in (tw, triangle):
        reps = enumerate_coset_representatives_bruteforce(g)
        assert len(reps) == pic0_structure(g).order


def test_single_weighted_vertex():
    g = WeightedMultigraph.build(["v"], [], {"v": 3})
    assert enumerate_coset_representatives_bruteforce(
        g, balanced_only=True) == [Divisor({"v": 0})]


def test_disconnected_direct_sum(tw):
    two = WeightedMultigraph.build(
        [*tw.vertices, "w1", "w2", "w3"],
        [(e.id, e.ends) for e in tw.edges]
        + [("x", ("w1", "w2")), ("y", ("w1", "w3")), ("z", ("w2", "w3"))],
        dict(tw.vertex_weight), dict(tw.edge_weight))
    assert pic0_structure(two).order == 8 * 3
    assert picb0_structure(two).order == 4 * 3
    assert count_pic0(two) == 24 and count_picb0(two) == 12
    assert tree_sum(two) == 24


def _graph_from_laplacian(L):
    n = len(L)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if L[i][j]]
    return WeightedMultigraph.build(
        [f"v{i}" for i in range(n)],
        [(f"e{i}_{j}", (f"v{i}", f"v{j}")) for i, j in pairs], {},
        {f"e{i}_{j}": -L[i][j] for i, j in pairs})


def _random_pleasant(rng, n):
    """Random spanning tree plus 2n random edges; vertex weights 1-3, edge
    weights a multiple (1 or 2) of the lcm of their ends' weights."""
    vw = [1] + [rng.randint(1, 3) for _ in range(n - 1)]
    pairs = [(i, rng.randrange(i)) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)]
    edges = [(f"e{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(pairs)]
    return WeightedMultigraph.build(
        [f"v{i}" for i in range(n)], edges,
        {f"v{i}": w for i, w in enumerate(vw)},
        {f"e{k}": math.lcm(vw[u], vw[v]) * rng.randint(1, 2)
         for k, (u, v) in enumerate(pairs)})


def test_roadmap_7x7_structures(roadmap_7x7):
    g = _graph_from_laplacian(roadmap_7x7)
    assert g.laplacian_matrix() == roadmap_7x7
    assert pic0_structure(g).invariant_factors == (6084143,)
    assert picb0_structure(g) == pic0_structure(g)


def _fraction_potentials(g, divisors):
    """For each divisor D, the integer f with Laplacian(f) = D that is zero
    at each component's first vertex, or None: one Gauss-Jordan
    elimination over the rationals on the reduced Laplacian, with no use of
    intlinalg."""
    vecs = [D.vector(g) for D in divisors]
    Lr, keep = reduced_laplacian(g)
    n = len(keep)
    M = [[Fraction(x) for x in row] + [Fraction(vec[i]) for vec in vecs]
         for row, i in zip(Lr, keep)]
    for k in range(n):
        p = next(i for i in range(k, n) if M[i][k])
        M[k], M[p] = M[p], M[k]
        M[k] = [x / M[k][k] for x in M[k]]
        for i in range(n):
            if i != k and M[i][k]:
                c = M[i][k]
                M[i] = [a - c * b for a, b in zip(M[i], M[k])]
    out = []
    for j, vec in enumerate(vecs, n):
        if any(sum(vec[g.vindex(v)] for v in comp) for comp in g.components()) \
                or any(row[j].denominator != 1 for row in M):
            out.append(None)
            continue
        f = dict.fromkeys(g.vertices, 0)
        for row, i in zip(M, keep):
            f[g.vertices[i]] = int(row[j])
        out.append(f)
    return out


def test_random_pleasant_graphs():
    rng = random.Random(1)
    for n in range(5, 41, 5):
        g = _random_pleasant(rng, n)
        L = g.laplacian_matrix()
        det = intlinalg.det([row[1:] for row in L[1:]])
        weights = [g.vertex_weight[v] for v in g.vertices]
        assert pic0_structure(g).order == count_pic0(g) == det
        assert (picb0_structure(g).order * math.prod(weights)
                == det * math.gcd(*weights))
        f = {v: rng.randint(-3, 3) for v in g.vertices}
        D0 = Divisor({v: rng.randint(-3, 3) for v in g.vertices})
        want = {v: x - f[g.vertices[0]] for v, x in f.items()}
        assert _fraction_potentials(g, [laplacian(g, f)]) == [want]
        assert equivalent(g, laplacian(g, f), Divisor.zero(g)).potential == want
        system = LaplacianSystem(g)
        assert system.class_key(D0) == system.class_key(D0 + laplacian(g, f))


def _bfs_per_vector_keys(g, balanced_only, signs=(1,)):
    """The coset closure of the zero divisor keyed by a full `vector_key`
    of every neighbour, stepping by each generator times each of signs:
    the oracle of the incremental keys."""
    system = LaplacianSystem(g)
    if balanced_only:
        weights = [g.vertex_weight[v] for v in g.vertices]
        gens = [[a * w for a, w in zip(vec, weights)]
                for vec in intlinalg.gcd_basis(weights)[1:]]
    else:
        gens = [[1 if j == 0 else -1 if j == i else 0 for j in range(g.n)]
                for i in range(1, g.n)]
    start = (0,) * g.n
    seen = {system.vector_key(start): start}
    queue = [start]
    for cur in queue:
        for gen in gens:
            for sgn in signs:
                nxt = tuple(c + sgn * x for c, x in zip(cur, gen))
                key = system.vector_key(nxt)
                if key not in seen:
                    seen[key] = nxt
                    queue.append(nxt)
    return [Divisor.from_vector(g, list(vec)) for vec in seen.values()]


def _small_random_pleasant(rng, n):
    """Random spanning tree plus three random edges; vertex weights 1-2,
    edge weights a multiple (1 or 2) of the lcm of their ends' weights."""
    vw = [1] + [rng.randint(1, 2) for _ in range(n - 1)]
    pairs = [(i, rng.randrange(i)) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(3)]
    return WeightedMultigraph.build(
        [f"v{i}" for i in range(n)],
        [(f"e{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(pairs)],
        {f"v{i}": w for i, w in enumerate(vw)},
        {f"e{k}": math.lcm(vw[u], vw[v]) * rng.randint(1, 2)
         for k, (u, v) in enumerate(pairs)})


def _wide_exponent_path():
    """The path a - b - c with w(b) = w(c) = 2 and edge weights 2018 and 2:
    Pic0 = Z/2 + Z/2018, so both residues of a key run past 1,000 and the
    packed keys' fields are 13 bits wide."""
    return WeightedMultigraph.build(
        ["a", "b", "c"], [("ab", ("a", "b")), ("bc", ("b", "c"))],
        {"b": 2, "c": 2}, {"ab": 2018, "bc": 2})


def test_incremental_coset_keys_match_per_vector_keys(tw, four_edge_pleasant):
    rng = random.Random(11)
    wide = _wide_exponent_path()
    assert LaplacianSystem(wide).e == 2018
    graphs = [tw, four_edge_pleasant, wide] + [
        _small_random_pleasant(rng, n) for n in (5, 6, 7, 6, 7)]
    for g in graphs:
        assert g.is_connected()
        for balanced_only, count in ((False, count_pic0(g)),
                                     (True, count_picb0(g))):
            got = enumerate_coset_representatives_bruteforce(
                g, balanced_only=balanced_only)
            assert got == _bfs_per_vector_keys(g, balanced_only)
            assert len(got) == count
            # a finite group is closed under its generators alone
            key = LaplacianSystem(g).class_key
            assert set(map(key, got)) == set(map(key, _bfs_per_vector_keys(
                g, balanced_only, signs=(1, -1))))


def _inverse_oracle_structures(g):
    """Both structures as Smith diagonals modulo the exponent that an exact
    inverse of the reduced Laplacian gives."""
    Lr, keep = reduced_laplacian(g)
    _, e = intlinalg.inverse(Lr)
    L = g.laplacian_matrix()
    B = [[L[i][j] // g.vertex_weight[v] for j in keep]
         for i, v in enumerate(g.vertices)]
    return tuple(tuple(d for d in intlinalg.smith_diagonal(A, e) if d > 1)
                 for A in (Lr, B))


def test_structures_match_sympy_invariant_factors():
    # one loop per graph, one or two components, n up to 12: the Smith
    # forms over the integers of L_r and of W^-1 L without root columns
    rng = random.Random(21)
    for n in range(2, 13):
        for parts in (1, 2):
            for _ in range(2 if n >= 2 * parts else 0):
                g = _looped_pleasant(rng, n, parts, weights=(1, 1, 2, 3, 6))
                Lr, keep = reduced_laplacian(g)
                L = g.laplacian_matrix()
                B = [[L[i][j] // g.vertex_weight[v] for j in keep]
                     for i, v in enumerate(g.vertices)]
                want = tuple(tuple(d for d in map(int, sympy_invariants(
                                 sympy.Matrix(A), domain=ZZ)) if d > 1)
                             for A in (Lr, B))
                assert (pic0_structure(g).invariant_factors,
                        picb0_structure(g).invariant_factors) == want


def _disjoint_sum(g, h):
    rename = {v: f"h{v}" for v in h.vertices}
    return WeightedMultigraph.build(
        [*g.vertices, *rename.values()],
        [(e.id, e.ends) for e in g.edges]
        + [(f"h{e.id}", tuple(rename[v] for v in e.ends)) for e in h.edges],
        {**g.vertex_weight,
         **{rename[v]: w for v, w in h.vertex_weight.items()}},
        {**g.edge_weight, **{f"h{eid}": w for eid, w in h.edge_weight.items()}})


def test_structures_and_equivalence_without_the_inverse():
    rng = random.Random(12)
    graphs = [_random_pleasant(rng, n) for n in range(10, 61, 10)]
    graphs.append(_disjoint_sum(_random_pleasant(rng, 10),
                                _random_pleasant(rng, 15)))
    graphs.append(WeightedMultigraph.build(["v"], [], {"v": 2}))
    for g in graphs:
        assert (pic0_structure(g).invariant_factors,
                picb0_structure(g).invariant_factors) \
            == _inverse_oracle_structures(g)
        D1 = Divisor({v: rng.randint(-3, 3) for v in g.vertices})
        D2 = D1 + laplacian(g, {v: rng.randint(-3, 3) for v in g.vertices})
        comp = g.components()[0]
        pairs = [(D1, D2)]
        if len(comp) > 1:
            # a degree-0 step inside one component: equivalent or not,
            # both routes must agree
            pairs += [(D1, D2 + Divisor({comp[0]: k, comp[-1]: -k}))
                      for k in (1, 2, 3)]
        if not g.is_connected():
            other = g.components()[1][0]
            pairs.append((D1, D1 + Divisor({comp[0]: 1, other: -1})))
        wants = _fraction_potentials(g, [A - B for A, B in pairs])
        for (A, B), want in zip(pairs, wants):
            cert = equivalent(g, A, B)
            assert (None if cert is None else cert.potential) == want
        assert equivalent(g, D1, D2) is not None
        if not g.is_connected():
            assert equivalent(g, *pairs[-1]) is None
