"""Desk-scale verification suite.

One pass over the exhaustive small-graph family cross-validates the
tree-sum count (kept here as an oracle; the library counts by
determinant), the Bareiss determinant, the group structures (Smith
diagonals modulo the non-cyclic part of the determinant of the reduced
Laplacian, with the cyclic rest in the largest invariant factor, which
must equal the exponents that the brute-force leg's exact inverse
gives), the brute-force coset enumeration, the
sub-weighted-tree completeness, the hat-graph correspondence, the rewrite
invariances, and the torsor axioms.  The CLI `selfcheck` command and the
acceptance tests both run through here.

Every family check yields failure messages item by item, through one
guard: a ChipfireError that a check raises on an item is one more failure,
and a check's result gives its failure count and first message.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import mod, sub
from types import SimpleNamespace

from . import bernardi, intlinalg, picard, trees
from .divisors import (Divisor, LaplacianSystem, chip_fire, degree,
                       equivalent, is_balanced, laplacian, unbalancing_class)
from .errors import ChipfireError
from .family import pleasant_family
from .fibers import (SpecialFiberDescription, balanced_representatives,
                     check_base_change_injectivity, component_group)
from .graphs import (WeightedMultigraph, add_leaf, expand_hat, forget_tables,
                     is_pleasant, split_edge, shrink_vertex_weight,
                     split_vertex, validate, vertex_gcd, weighted_genus)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def triangle_tw() -> WeightedMultigraph:
    """The weighted triangle running example: w(v1)=2 and the two edges at v1
    have weight 2, everything else weight 1."""
    return WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("a", ("v1", "v2")), ("b", ("v1", "v3")), ("c", ("v2", "v3"))],
        {"v1": 2}, {"a": 2, "b": 2})


def fig1_left() -> WeightedMultigraph:
    """Pleasant weighting: w(v1)=2; edges v1v2 and v1v3 weight 2; one v2v3
    edge of weight 2 and one of weight 1."""
    return WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("e1", ("v1", "v2")), ("e2", ("v1", "v3")),
         ("e3", ("v2", "v3")), ("e4", ("v2", "v3"))],
        {"v1": 2}, {"e1": 2, "e2": 2, "e3": 2})


def unweighted_triangle() -> WeightedMultigraph:
    return WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("a", ("v1", "v2")), ("b", ("v1", "v3")), ("c", ("v2", "v3"))])


def tw_roots():
    return ("v2",), {"v2": ("a", 1)}


def tree_sum(g) -> int:
    """Sum over maximal spanning forests of the product of their edge
    weights: the matrix-tree oracle for |Pic0|, exponential in the graph."""
    return sum(math.prod(g.edge_weight[eid] for eid in forest)
               for forest in trees.enumerate_forests(g))


# -- single-example checks -------------------------------------------------


def check_triangle_example() -> CheckResult:
    def example():
        g = triangle_tw()
        roots, starts = tw_roots()
        per_tree = []
        balanced_all = []
        nontrivial_balanced = 0
        for T in trees.enumerate_trees(g):
            subs = bernardi.enumerate_subweightings(g, T, roots=roots,
                                                    starts=starts)
            bal = bernardi.enumerate_subweightings(g, T, balanced_only=True,
                                                   roots=roots, starts=starts)
            per_tree.append(len(subs))
            balanced_all.extend(bal)
            for ts in bal:
                if any(ts.sigma[e] != g.edge_weight[e] for e in ts.forest_edges):
                    nontrivial_balanced += 1
        ok = (sorted(per_tree, reverse=True) == [4, 2, 2]
              and sum(per_tree) == 8
              and len(balanced_all) == 4
              and nontrivial_balanced == 1)
        return ok, (f"per-tree {per_tree}, balanced {len(balanced_all)}, "
                    f"nontrivial {nontrivial_balanced}")

    return _example("triangle example: 8 = 4+2+2 sub-weightings, 4 balanced, "
                    "one nontrivial", example)


def check_laplacian_example() -> CheckResult:
    def example():
        g = fig1_left()
        vec = laplacian(g, {"v1": 0, "v2": 0, "v3": 1}).vector(g)
        return vec == [-2, -3, 5], str(vec)

    return _example("weighted Laplacian at the v3 indicator is (-2,-3,5)",
                    example)


def check_fig2_tours() -> CheckResult:
    def example():
        g = unweighted_triangle()
        want = [
            (("a", "b"), {"a": ("v2", "v1"), "b": ("v1", "v3"),
                          "c": ("v2", "v3")}),
            (("a", "c"), {"a": ("v2", "v1"), "b": ("v3", "v1"),
                          "c": ("v2", "v3")}),
            (("b", "c"), {"a": ("v1", "v2"), "b": ("v3", "v1"),
                          "c": ("v2", "v3")}),
        ]
        got = [bernardi.tour_forest(g, T, roots=("v2",), starts={"v2": "a"})
               for T, _ in want]
        return got == [expected for _, expected in want], str(got)

    return _example("triangle tours from v2 match the three reference "
                    "orientations", example)


# -- one failure path ------------------------------------------------------


def _guard(check, *args):
    """The failure messages that the generator `check(*args)` yields, and
    whether it raised: a ChipfireError ends the check as one more failure,
    `raised <Type>: <message>`."""
    found = []
    try:
        for msg in check(*args):
            found.append(msg)
    except ChipfireError as exc:
        found.append(f"raised {type(exc).__name__}: {exc}")
        return found, True
    return found, False


def _result(title, failures, detail) -> CheckResult:
    """A check's result from its failure messages: their count and the
    first when there are any, else the detail of a pass."""
    if failures:
        detail = f"{len(failures)} failures, first: {failures[0]}"
    return CheckResult(title, not failures, detail)


def _example(title, example) -> CheckResult:
    """The result of a single-example check: `example()` gives (ok,
    detail), the detail of a pass or else its one failure, and runs through
    the guard like the family checks."""
    shown = []

    def check():
        ok, detail = example()
        shown.append(detail)
        if not ok:
            yield detail

    return _result(title, _guard(check)[0], "".join(shown))


# -- one-pass family sweep -------------------------------------------------
# Four legs per graph.  A leg keeps in `at` the values that the later legs
# read, so a leg that raises ends its graph's later legs; each leg reports
# the graphs it ran on.


@dataclass
class SweepStats:
    graphs: int = 0
    leg_graphs: Counter = field(default_factory=Counter)  # leg name -> graphs
    skipped_unit_leaf: int = 0
    shrink_checks: int = 0
    vertex_split_checks: int = 0
    failures: list = field(default_factory=list)


def _auto_split_plan(g, v):
    """Halve v and every edge at it over two copies of v, or None when
    some weight does not halve evenly."""
    half, odd = divmod(g.vertex_weight[v], 2)
    if odd:
        return None
    parts = {}
    for e in g.edges:
        if v not in e.ends:
            continue
        share, odd = divmod(g.edge_weight[e.id], 2)
        if odd or share % half:
            return None
        if e.is_loop:
            # split a loop into two loops, one per copy
            parts[e.id] = [((0, 0), share), ((1, 1), share)]
        elif share % g.vertex_weight[e.other_end(v)]:
            return None
        else:
            parts[e.id] = [(0, share), (1, share)]
    return parts


def _exponent(structure):
    """Largest invariant factor, 1 for the trivial group."""
    return max(structure.invariant_factors, default=1)


def _matrix_tree(g, at, stats):
    """Counts and structures against tree sum, determinant and cosets."""
    L = at.L = g.laplacian_matrix()
    det = intlinalg.det([row[1:] for row in L[1:]])
    count = at.count = tree_sum(g)
    countb = at.countb = picard.count_picb0(g)
    s0 = at.s0 = picard.pic0_structure(g)
    sb = at.sb = picard.picb0_structure(g)
    if not (count == det == s0.order):
        yield f"count {count}, det {det}, snf {s0.order}"
    if sb.order != countb:
        yield f"balanced count {countb} vs snf {sb.order}"
    if count * vertex_gcd(g) != countb * math.prod(
            g.vertex_weight[v] for v in g.vertices):
        yield "quotient |Pic0|/|Picb0| != prod(w)/gcd(w)"
    # the two closures share one system of their own, an exact inverse
    # of the Laplacian; the reducer of the completeness leg factors it
    # again itself.  The structures above put the part of |det| that their
    # minors call cyclic wholly in the largest invariant factor, so calling
    # every prime cyclic would match every order; their largest invariant
    # factors must match this system's exponents too
    bfs_system = LaplacianSystem(g)
    reps = picard.enumerate_coset_representatives_bruteforce(
        g, system=bfs_system)
    repsb = at.repsb = picard.enumerate_coset_representatives_bruteforce(
        g, balanced_only=True, system=bfs_system)
    if len(reps) != count or len(repsb) != countb:
        yield f"brute-force counts {len(reps)}/{len(repsb)} vs {count}/{countb}"
    e0 = bfs_system.e
    unpack = bfs_system.packed.unpack
    eb = math.lcm(*(e0 // math.gcd(e0, *unpack(bfs_system.vector_key(gen)[1]))
                    for gen in picard._balanced_deg0_generators(g)))
    if _exponent(s0) != e0 or _exponent(sb) != eb:
        yield (f"exponents {_exponent(s0)}/{_exponent(sb)} "
               f"vs inverse {e0}/{eb}")


def _completeness(g, at, stats):
    """One sub-weighted tree per class, balanced ones per balanced class."""
    reducer = at.reducer = bernardi.BernardiReducer(g)
    if len(reducer.table) != at.count:
        yield f"{len(reducer.table)} representatives vs count {at.count}"
    gm1 = weighted_genus(g) - 1
    weights = [g.vertex_weight[v] for v in g.vertices]
    balanced_ts = []
    at.divisors = {}  # ts.key() -> tree divisor vector, for the hat leg
    forest = orient = None
    for key, ts in reducer.table.items():
        # the table's keys come from the reducer's own tour and affine
        # steps per forest; this leg's own tour of each forest and the
        # tree divisor summed edge by edge at each sigma must give the
        # same class.  The table's forests are maximal, so the divisor
        # comes from `tree_divisor`'s vector core, without its check
        if ts.forest_edges != forest:
            forest = ts.forest_edges
            orient = bernardi._orient(g, forest, ts.starts)
        vec = bernardi._tree_vector(g, ts.sigma, orient)
        at.divisors[ts.key()] = vec
        if reducer.system.vector_key(vec) != key:
            yield f"table key of {ts.key()} is not the class of its tree divisor"
        if sum(vec) != gm1:
            yield f"tree divisor degree {sum(vec)} != {gm1}"
        if not any(map(mod, vec, weights)):
            balanced_ts.append(ts)
    # the congruences that generate the balanced trees against the
    # table's trees whose divisor is balanced, tree by tree
    bal_list = at.bal_list = balanced_representatives(g)
    if len(bal_list) != at.countb or len(balanced_ts) != at.countb:
        yield (f"balanced trees {len(bal_list)}/{len(balanced_ts)} "
               f"vs {at.countb}")
    elif bal_list != balanced_ts:
        yield "balanced representatives are not the trees whose divisor is balanced"


def _hat(g, at, stats):
    """The hat pairs cover the table's trees exactly once, each with
    D_O(hat tour) - shift equal to the divisor of its tour on g."""
    hat = expand_hat(g)
    if not validate(hat.graph).pleasant:
        yield "hat graph not pleasant"
    if weighted_genus(hat.graph) != weighted_genus(g) + sum(
            g.vertex_weight[v] - 1 for v in g.vertices):
        yield "hat genus identity failed"
    # the hat graph has g's vertices, in g's order
    shift = bernardi.hat_reference_shift(g).vector(g)
    for ts, orient in bernardi.hat_pairs(g, hat):
        D = at.divisors.pop(ts.key(), None)
        if D is None:
            yield (f"hat pair {ts.key()} repeats or is not a sub-weighted "
                   "tree of the graph")
            return
        if D != list(map(sub, bernardi._indegree_vector(hat.graph, orient),
                         shift)):
            yield "hat shift identity failed"
            return
    if at.divisors:
        yield f"hat tree map misses {len(at.divisors)} sub-weighted trees"


def _invariance(g, at, stats):
    """Rewrite invariances.  A weight-1 leaf edge leaves the Jacobian
    untouched; a weight-w leaf edge multiplies |Pic0| by w but leaves the
    balanced Jacobian untouched when the leaf weight matches."""
    factors = at.s0.invariant_factors
    light = [v for v in g.vertices if g.vertex_weight[v] == 1]
    if light:
        leafed = add_leaf(g, light[0], leaf_weight=1, edge_weight=1)
        if picard.pic0_structure(leafed).invariant_factors != factors:
            yield "weight-1 leaf changed the Jacobian"
    else:
        stats.skipped_unit_leaf += 1
    v0 = g.vertices[0]
    w0 = g.vertex_weight[v0]
    leafed = add_leaf(g, v0, leaf_weight=w0, edge_weight=w0)
    if picard.pic0_structure(leafed).order != at.s0.order * w0:
        yield "leaf did not scale |Pic0| by its edge weight"
    if picard.picb0_structure(leafed).invariant_factors != at.sb.invariant_factors:
        yield "leaf changed the balanced Jacobian"
    for e in g.edges:
        w = g.edge_weight[e.id]
        unit = math.lcm(*(g.vertex_weight[v] for v in e.ends))
        if w >= 2 * unit and w % unit == 0:
            gs = split_edge(g, e.id, [w - unit, unit])
            if gs.laplacian_matrix() != at.L:
                yield "split_edge changed the Laplacian"
            if picard.pic0_structure(gs).invariant_factors != factors:
                yield "split_edge changed the Jacobian"
            break
    heavy = [v for v in g.vertices if g.vertex_weight[v] > 1]
    if heavy:
        shrunk = shrink_vertex_weight(g, heavy[0], 1)
        witness = check_base_change_injectivity(g, shrunk, None, at.repsb)
        stats.shrink_checks += 1
        if witness is not None:
            yield f"shrink injectivity witness {witness}"
    for v in heavy:
        plan = _auto_split_plan(g, v)
        if plan is not None:
            gv, copies = split_vertex(g, v, 2, plan)
            witness = check_base_change_injectivity(g, gv, copies, at.repsb)
            stats.vertex_split_checks += 1
            if witness is not None:
                yield f"vertex split witness {witness}"
            break


_SWEEP = (
    ("matrix-tree", _matrix_tree,
     "matrix-tree sweep: tree sum = determinant = Smith order = "
     "brute-force count (plain and balanced)"),
    ("completeness", _completeness,
     "sub-weighted trees are a complete, irredundant set of class "
     "representatives (plain and balanced)"),
    ("hat", _hat,
     "hat-graph correspondence is bijective and satisfies the "
     "constant-shift identity"),
    ("invariance", _invariance,
     "leaf/edge-split invariance and shrink/vertex-split injectivity hold "
     "with zero witnesses"),
)


def sweep_family(family) -> dict:
    """Run the exhaustive cross-validation; returns named CheckResults."""
    stats = SweepStats()
    index1 = []
    torsor_candidates = []
    for g in family:
        stats.graphs += 1
        at = SimpleNamespace()
        for name, leg, _ in _SWEEP:
            stats.leg_graphs[name] += 1
            found, raised = _guard(leg, g, at, stats)
            stats.failures += [(name, g, msg) for msg in found]
            if raised:
                break
        else:
            if all(w == 1 for w in g.vertex_weight.values()):
                index1.append((g, at.s0, at.reducer, at.bal_list))
            elif 2 <= at.countb <= 12 and len(torsor_candidates) < 5:
                torsor_candidates.append(g)
        # the family outlives the sweep; its graphs need not keep their tables
        forget_tables(g)

    results = {}
    for name, _, title in _SWEEP:
        detail = f"{stats.leg_graphs[name]} graphs"
        if name == "invariance":
            detail += (f", {stats.shrink_checks} shrinks, "
                       f"{stats.vertex_split_checks} vertex splits")
        results[name] = _result(
            title, [msg for n, _, msg in stats.failures if n == name], detail)
    results["_index1"] = index1
    results["_torsor_candidates"] = torsor_candidates
    results["_stats"] = stats
    return results


def check_torsor(graphs) -> CheckResult:
    """Free transitive action of the balanced Jacobian on balanced trees."""
    sizes = []

    def axioms(g):
        B = balanced_representatives(g)
        if not B:
            yield "no balanced representatives"
            return
        group = picard.enumerate_coset_representatives_bruteforce(
            g, balanced_only=True)
        ts0 = B[0]
        if bernardi.torsor_act(g, Divisor.zero(g), ts0) != ts0:
            yield "identity does not act trivially"
            return
        orbit = [bernardi.torsor_act(g, D, ts0) for D in group]
        keyset = {t.key() for t in orbit}
        if keyset != {t.key() for t in B} or len(keyset) != len(orbit):
            yield "orbit is not free and transitive"
            return
        for D1 in group:
            for D2 in group:
                lhs = bernardi.torsor_act(g, D1 + D2, ts0)
                rhs = bernardi.torsor_act(g, D1, bernardi.torsor_act(g, D2, ts0))
                if lhs != rhs:
                    yield f"action incompatible at {D1}, {D2}"
        sizes.append(picard.count_picb0(g))

    return _result(
        f"torsor axioms on {len(graphs)} graphs: identity, compatibility, "
        "free transitive orbits",
        [msg for g in graphs for msg in _guard(axioms, g)[0]],
        f"group sizes {sizes}")


def check_index1(collected) -> CheckResult:
    """All-index-1 fibers: component group equals the full Jacobian."""
    def collapse(g, s0, reducer, bal_list):
        structure, reps = component_group(SpecialFiberDescription(
            tuple((v, 1) for v in g.vertices),
            tuple((e.id, e.ends, g.edge_weight[e.id]) for e in g.edges)))
        if structure.order != s0.order:
            yield f"order {structure.order} != {s0.order}"
        elif (Counter(t.key() for t in reps)
                != Counter(t.key() for t in reducer.table.values())):
            yield "balanced representatives differ from the full set"

    return _result(
        f"index-1 fibers: component group = Jacobian elementwise "
        f"({len(collected)} fibers)",
        [msg for item in collected for msg in _guard(collapse, *item)[0]], "")


def check_divisor_properties(family, seed=0) -> CheckResult:
    """Randomized spot checks: Laplacian degree/balancedness, chip-firing,
    unbalancing counts and classes, and equivalence being an equivalence
    relation."""
    rng = random.Random(seed)
    sample = family if len(family) <= 200 else rng.sample(family, 200)

    def properties(g):
        f = {v: rng.randint(-3, 3) for v in g.vertices}
        D = laplacian(g, f)
        pleasant = is_pleasant(g)
        if degree(D) != 0:
            yield "principal divisor with nonzero degree"
        if pleasant and not is_balanced(g, D):
            yield "principal divisor unbalanced on pleasant graph"
        v = rng.choice(g.vertices)
        # against the Laplacian matrix, which is separate code
        if chip_fire(g, v).vector(g) != [row[g.vindex(v)]
                                         for row in g.laplacian_matrix()]:
            yield "chip-firing move mismatch"
        # unbalancing classes with zero total residue
        wprod = math.prod(g.vertex_weight[u] for u in g.vertices)
        wg = vertex_gcd(g)
        if wprod <= 4000:
            residues = itertools.product(*(range(g.vertex_weight[u])
                                           for u in g.vertices))
            if sum(sum(r) % wg == 0 for r in residues) != wprod // wg:
                yield "unbalancing class count mismatch"
        # equivalence relation: reflexive, symmetric, transitive on instances
        D1 = Divisor({u: rng.randint(-2, 2) for u in g.vertices})
        shift = laplacian(g, {u: rng.randint(-1, 1) for u in g.vertices})
        D2 = D1 + shift
        if equivalent(g, D1, D1) is None or equivalent(g, D1, D2) is None \
                or equivalent(g, D2, D1) is None:
            yield "equivalence relation violated"
        # on a pleasant graph the unbalancing class vanishes on principal
        # divisors, so it is constant on each class, and is zero exactly
        # on the balanced divisors
        if pleasant:
            zero = dict.fromkeys(g.vertices, 0)
            alpha = unbalancing_class(g, D1)
            if unbalancing_class(g, D) != zero:
                yield "principal divisor with nonzero unbalancing class"
            if unbalancing_class(g, D2) != alpha:
                yield "unbalancing class moved by a principal divisor"
            if is_balanced(g, D1) != (alpha == zero):
                yield "is_balanced disagrees with unbalancing_class"

    return _result(
        f"divisor properties on {len(sample)} random instances "
        f"(Laplacian, chip-firing, unbalancings, equivalence)",
        [msg for g in sample for msg in _guard(properties, g)[0]], "")


def run_selfcheck(seed=0, max_vertices=4, max_edges=5, max_weight=3) -> bool:
    family = list(pleasant_family(max_vertices, max_edges, max_weight))
    results = [check_triangle_example(), check_laplacian_example(),
               check_fig2_tours()]
    sweep = sweep_family(family)
    results += [sweep[name] for name, *_ in _SWEEP]
    results.append(check_torsor([triangle_tw()] + sweep["_torsor_candidates"]))
    results.append(check_index1(sweep["_index1"]))
    results.append(check_divisor_properties(family, seed=seed))
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
        ok = ok and r.passed
    return ok
