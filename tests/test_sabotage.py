"""Named faults, each one monkeypatch of one layer, and the criteria each
must fail on a small fixed sub-family plus two fixed graphs: the
sweep's four, the reference tours, the torsor axioms, the index-1
fibers, the divisor properties, and tours checked against a walk over
the ribbons written here.  A later cache or shared computation that
makes a leg compare a value with itself lets its fault pass, and the
test that names it fails."""

import dataclasses
import math
import random

import pytest

from chipfire import WeightedMultigraph, bernardi, intlinalg, picard, selfcheck
from chipfire.divisors import _PackedResidues
from chipfire.errors import InternalError
from chipfire.family import pleasant_family
from chipfire.selfcheck import (check_divisor_properties, check_fig2_tours,
                                check_index1, check_torsor, sweep_family,
                                triangle_tw)
from chipfire.trees import enumerate_forests
from test_bernardi import _random_pleasant

# the sweep's criteria, criterion 3's reference tours, criteria 7 and 9,
# the supporting divisor properties, and the tours against
# `_reference_tour`
CRITERIA = ("matrix-tree", "completeness", "hat", "invariance", "tours",
            "torsor", "index1", "properties", "reference-tours")


def _reference_tour(g, forest, starts):
    """Edge id -> (tail, head) from touring the forest from each root's
    start half-edge, walking `g.ribbon` and `g.edge` only: a tree edge is
    crossed and the walk goes on after its other half-edge there; any
    other edge points at the vertex where it is met first, and the walk
    goes on after it at that vertex."""
    def after(v, h):
        ring = g.ribbon[v]
        return ring[(ring.index(h) + 1) % len(ring)]

    forest = set(forest)
    orient = {}
    for root, start in starts.items():
        v, h = root, start
        for _ in range(2 * len(g.edges)):
            eid, side = h
            u = g.edge(eid).ends[1 - side]
            if eid in forest:
                orient.setdefault(eid, (v, u))
                v, h = u, after(u, (eid, 1 - side))
            else:
                orient.setdefault(eid, (u, v))
                h = after(v, h)
            if (v, h) == (root, start):
                break
        else:
            raise AssertionError(f"the tour from {root!r} does not close")
    return orient


def _tours():
    """(graph, roots, starts, forest) on 30 seeded random graphs with
    shuffled ribbons, one loop and parallel edges each, in one or two
    components: a random root and start half-edge per component, and up to
    ten random forests per graph."""
    rng = random.Random(18)
    graphs = 0
    while graphs < 30:
        parts = rng.choice((1, 2))
        g = _random_pleasant(rng, rng.randint(2 + 2 * parts, 7), parts)
        edges = [(e.id, e.ends) for e in g.edges]
        if len({frozenset(ends) for _, ends in edges}) == len(edges):
            continue  # no parallel edges
        graphs += 1
        g = WeightedMultigraph.build(
            g.vertices, edges, g.vertex_weight, g.edge_weight,
            {v: rng.sample(hs, len(hs)) for v, hs in g.ribbon.items()})
        roots = tuple(rng.choice(comp) for comp in g.components())
        starts = {q: rng.choice(g.ribbon[q]) for q in roots if g.ribbon[q]}
        forests = enumerate_forests(g)
        for forest in rng.sample(forests, min(10, len(forests))):
            yield g, roots, starts, forest


def _reference_tours_agree():
    return all(bernardi.tour_forest(g, forest, roots, starts)
               == _reference_tour(g, forest, starts)
               for g, roots, starts, forest in _tours())


def _unit_vector_one_chip_more(original):
    # D_{T,sigma} at sigma = 1 with one chip more at the first vertex
    def fault(g, forest, orient):
        vec = original(g, forest, orient)
        vec[0] += 1
        return vec
    return fault


def _crt_shifted(original):
    # the closing congruence of the balanced walk off by one
    def fault(a, m, b, n):
        am = original(a, m, b, n)
        return None if am is None else (am[0] + 1, am[1])
    return fault


def _crt_floor_divided(original):
    # the joint solution divided by lcm(m, n) where it should be reduced
    # modulo it; a first congruence (m = 1) is still taken as it is
    def fault(a, m, b, n):
        if m == 1:
            return original(a, m, b, n)
        d = math.gcd(m, n)
        if (b - a) % d:
            return None
        k = (b - a) // d * pow(m // d, -1, n // d) % (n // d)
        lcm = m // d * n
        return (a + m * k) // lcm, lcm
    return fault


def _hat_sigma_reversed(original):
    # sigma read as w + 1 - sigma on the forest edges of every hat pair
    def fault(g, hat):
        return [(dataclasses.replace(ts, sigma={
                    **ts.sigma, **{e: g.edge_weight[e] + 1 - ts.sigma[e]
                                   for e in ts.forest_edges}}), O)
                for ts, O in original(g, hat)]
    return fault


def _last_generator_dropped(original):
    # the balanced degree-0 lattice one generator short
    def fault(g):
        return original(g)[:-1]
    return fault


def _non_tree_edges_reversed(original):
    # every edge off the forest oriented away from the vertex the tour
    # meets it at
    def fault(g, forest, starts):
        return {eid: ends if eid in forest else ends[::-1]
                for eid, ends in original(g, forest, starts).items()}
    return fault


def _tree_vector_one_chip_more(original):
    # the per-tree divisor with one chip more at the first vertex
    def fault(g, sigma, orient):
        vec = original(g, sigma, orient)
        vec[0] += 1
        return vec
    return fault


def _indegree_vector_one_chip_more(original):
    # the orientation divisor with one chip more at the first vertex
    def fault(g, orient):
        vec = original(g, orient)
        vec[0] += 1
        return vec
    return fault


def _key_correction_dropped(original):
    # the packed key steps add without subtracting e where a coordinate
    # reached it, so the keys they step are never reduced
    def fault(packed, xs, steps):
        return [x + step for x in xs for step in steps]
    return fault


def _torsor_act_identity(original):
    # the action leaves every tree where it is
    def fault(g, D0, ts):
        return ts
    return fault


def _last_representative_dropped(original):
    # the component group one representative short
    def fault(fiber):
        structure, reps = original(fiber)
        return structure, reps[:-1]
    return fault


def _first_heavy_residue_plus_1(original):
    # the residue at the first vertex of weight > 1 moved by one
    def fault(g, D):
        residues = original(g, D)
        heavy = [v for v in g.vertices if g.vertex_weight[v] > 1]
        if heavy:
            v = heavy[0]
            residues[v] = (residues[v] + 1) % g.vertex_weight[v]
        return residues
    return fault


def _every_prime_cyclic(original):
    # the certificate's minor gcd taken as 1, so each structure is the
    # modulus followed by 1s: right in order, wrong in shape whenever the
    # group is not cyclic
    def fault(A):
        return original(A)[0], 1
    return fault


def _raises_on_a_heavy_vertex(original):
    # an internal error on every graph with a vertex of weight > 1
    def fault(g):
        if any(w > 1 for w in g.vertex_weight.values()):
            raise InternalError("sabotaged balanced structure")
        return original(g)
    return fault


def _second_part_dropped(original):
    # the coprime split keeps its first part only, so a Smith elimination
    # that splits its modulus goes on modulo that part alone
    def fault(m, c):
        return original(m, c)[0], 1
    return fault


def _stale_symmetric_multiplier(original):
    # `intlinalg._eliminate` with the symmetric path's multiplier read from
    # the row's own entry in the pivot column, which that path leaves at its
    # input value; right at the first step, wrong from the second on
    def fault(M, n):
        if n == 0:
            return 1
        sym = intlinalg._symmetric(M, n)
        sign = 1
        prev = 1
        for k in range(n - 1):
            pivot_row = M[k]
            pivot = pivot_row[k]
            if not pivot:
                if sym:
                    for i in range(k + 1, n):
                        M[i][k:i] = [M[j][i] for j in range(k, i)]
                    sym = False
                p = next((i for i in range(k + 1, n) if M[i][k]), None)
                if p is None:
                    return 0
                M[k], M[p] = M[p], M[k]
                sign = -sign
                pivot_row = M[k]
                pivot = pivot_row[k]
            for i in range(k + 1, n):
                row = M[i]
                f = row[k]
                for j in range(i if sym else k + 1, len(pivot_row)):
                    row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
            prev = pivot
        return sign * M[n - 1][n - 1]
    return fault


def _box_target_negated(original):
    # the meet in the middle solves for minus its target, a sign slip in
    # the key difference that the walk hands it
    def fault(steps, sizes, want, packed):
        return original(steps, sizes, packed.scale(want, -1), packed)
    return fault


def _box_back_step_forward(original):
    # the giant steps go forward from the target, as if each step pair
    # held its forward step twice
    def fault(steps, sizes, want, packed):
        return original([(s, s) for s, _ in steps], sizes, want, packed)
    return fault


FAULTS = [
    pytest.param(bernardi, "_unit_vector", _unit_vector_one_chip_more,
                 {"completeness", "torsor"}, id="unit-vector-one-chip"),
    pytest.param(bernardi, "_crt", _crt_shifted, {"completeness", "torsor"},
                 id="crt-residue-plus-1"),
    # only the path with w = 1, 2, 3 closes a congruence at both ends of
    # one edge, the one case where the walk joins two moduli
    pytest.param(bernardi, "_crt", _crt_floor_divided, {"completeness"},
                 id="crt-divides-by-lcm"),
    pytest.param(bernardi, "hat_pairs", _hat_sigma_reversed, {"hat"},
                 id="hat-sigma-reversed"),
    pytest.param(picard, "_balanced_deg0_generators", _last_generator_dropped,
                 {"matrix-tree", "torsor"}, id="balanced-generator-dropped"),
    # every sweep leg that tours a forest goes through `_orient`, so only
    # criterion 3's reference orientations and the reference walk see this
    pytest.param(bernardi, "_orient", _non_tree_edges_reversed,
                 {"tours", "reference-tours"}, id="non-tree-edges-reversed"),
    # one value read by the completeness and hat legs, and by the torsor
    # action through `reduce`'s certificate: the vector core that both the
    # completeness leg and `tree_divisor` call
    pytest.param(bernardi, "_tree_vector", _tree_vector_one_chip_more,
                 {"completeness", "hat", "torsor"},
                 id="tree-divisor-one-chip"),
    # only the hat leg reads the hat tours' orientation divisors
    pytest.param(bernardi, "_indegree_vector", _indegree_vector_one_chip_more,
                 {"hat"}, id="hat-orientation-one-chip"),
    pytest.param(bernardi, "torsor_act", _torsor_act_identity, {"torsor"},
                 id="torsor-act-identity"),
    pytest.param(selfcheck, "component_group", _last_representative_dropped,
                 {"index1"}, id="component-group-one-short"),
    pytest.param(selfcheck, "unbalancing_class", _first_heavy_residue_plus_1,
                 {"properties"}, id="unbalancing-residue-plus-1"),
    # only the brute-force leg's exponents see a structure of the right order
    pytest.param(intlinalg, "cyclic_split", _every_prime_cyclic,
                 {"matrix-tree"}, id="certificate-calls-every-prime-cyclic"),
    # the certificate reads only the first part; the Smith eliminations
    # that split are few on the sub-family and many more on its leafed
    # graphs, which the invariance leg compares
    pytest.param(intlinalg, "coprime_split", _second_part_dropped,
                 {"matrix-tree", "invariance"},
                 id="coprime-split-keeps-one-part"),
    # a raise is one failure of the leg that raised, and ends that graph's
    # later legs, which read its values
    pytest.param(picard, "picb0_structure", _raises_on_a_heavy_vertex,
                 {"matrix-tree"}, id="picb0-structure-raises"),
    # a stale multiplier needs a second step, so a reduced Laplacian of
    # size 3 or more: K4's, and those of the leafed 3-vertex graphs that
    # the invariance leg compares
    pytest.param(intlinalg, "_eliminate", _stale_symmetric_multiplier,
                 {"matrix-tree", "invariance"},
                 id="symmetric-bareiss-stale-multiplier"),
    # only `reduce` solves boxes, and it checks its certificate, so a wrong
    # tree raises InternalError inside the torsor axioms; the oracle table
    # of the completeness leg walks every class without the solver
    pytest.param(bernardi, "_box_offsets", _box_target_negated, {"torsor"},
                 id="box-target-negated"),
    pytest.param(bernardi, "_box_offsets", _box_back_step_forward, {"torsor"},
                 id="box-back-step-forward"),
    # unreduced keys grow without end, so the closure outgrows its e^k keys
    # and raises: in the matrix-tree leg, which ends each graph's later legs,
    # and in the torsor axioms' balanced group.  The same step also walks
    # `reduce`'s boxes and the oracle table of the completeness leg, which
    # differ only where e > 1, and there the matrix-tree leg's raise has
    # ended the graph's later legs first
    pytest.param(_PackedResidues, "shift", _key_correction_dropped,
                 {"matrix-tree", "torsor"}, id="closure-key-correction-dropped"),
]


def _k4_one_heavy_vertex():
    """K4 with w(a) = 2 and weight 2 on a's three edges.  Its reduced
    Laplacian is 3 x 3, so Bareiss divides by a pivot other than 1 and
    the certificate's minors lie past the first row.  Pic0 = Z/5 + Z/10
    and Picb0 = Z/5 + Z/5 are not cyclic at 5, which divides every 2 x 2
    minor but not every entry."""
    return WeightedMultigraph.build(
        ["a", "b", "c", "d"],
        [("ab", ("a", "b")), ("ac", ("a", "c")), ("ad", ("a", "d")),
         ("bc", ("b", "c")), ("bd", ("b", "d")), ("cd", ("c", "d"))],
        {"a": 2}, {"ab": 2, "ac": 2, "ad": 2})


def _path_with_weights_1_2_3():
    """The path a - b - c with w(b) = 2, w(c) = 3 and edge weights 2 and 6.
    Edge bc is the last forest edge at both of its ends, so the balanced
    walk closes b's congruence and c's on it at once, and `_crt` joins the
    moduli 2 and 3; no graph of the sub-family reaches that branch."""
    return WeightedMultigraph.build(
        ["a", "b", "c"], [("ab", ("a", "b")), ("bc", ("b", "c"))],
        {"b": 2, "c": 3}, {"ab": 2, "bc": 6})


@pytest.fixture(scope="module")
def family():
    # 1,776 graphs; a sweep takes about 3 s
    return [*pleasant_family(max_vertices=3, max_edges=4, max_weight=3),
            _k4_one_heavy_vertex(), _path_with_weights_1_2_3()]


def _failed(family):
    results = sweep_family(family)
    checks = {name: results[name] for name in CRITERIA[:4]}
    checks.update(
        tours=check_fig2_tours(),
        torsor=check_torsor([triangle_tw()] + results["_torsor_candidates"][:5]),
        index1=check_index1(results["_index1"]),
        properties=check_divisor_properties(family))
    failed = {name for name, r in checks.items() if not r.passed}
    return failed if _reference_tours_agree() else failed | {"reference-tours"}


def test_the_reference_walk_sees_loops_parallels_and_two_components():
    tours = list(_tours())
    assert len(tours) > 250
    assert any(len(g.components()) == 2 for g, *_ in tours)
    assert all(any(e.is_loop for e in g.edges) for g, *_ in tours)


def test_the_clean_sub_family_passes_every_criterion(family):
    assert len(family) == 1776
    assert _failed(family) == set()


@pytest.mark.parametrize("layer, name, fault, fails", FAULTS)
def test_each_fault_fails_its_criteria_and_no_other(monkeypatch, family,
                                                    layer, name, fault, fails):
    monkeypatch.setattr(layer, name, fault(getattr(layer, name)))
    assert _failed(family) == fails


def test_a_wrong_determinant_is_not_blamed_on_the_input(monkeypatch):
    # the K4 graph is pleasant, so a balanced count that is not an integer
    # can only come from a wrong |Pic0|
    monkeypatch.setattr(intlinalg, "_eliminate", _stale_symmetric_multiplier(
        intlinalg._eliminate))
    result = sweep_family([_k4_one_heavy_vertex()])["matrix-tree"]
    assert not result.passed
    assert "|Pic0| was computed wrongly" in result.detail
    assert "prod(w)/gcd(w) = 2" in result.detail
    assert "pleasant" not in result.detail
