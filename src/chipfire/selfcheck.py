"""Desk-scale verification suite.

One pass over the exhaustive small-graph family cross-validates the
tree-sum count (kept here as an oracle; the library counts by
determinant), the Bareiss determinant, the group structures (Smith
diagonals modulo the determinant of the reduced Laplacian, whose largest
invariant factors must equal the exponents that the brute-force leg's
exact inverse gives), the brute-force coset enumeration, the
sub-weighted-tree completeness, the hat-graph correspondence, the rewrite
invariances, and the torsor axioms.  The CLI `selfcheck` command and the
acceptance tests both run through here.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from . import bernardi, intlinalg, picard, trees
from .divisors import (Divisor, LaplacianSystem, chip_fire, degree,
                       equivalent, is_balanced, laplacian)
from .errors import ChipfireError, InternalError
from .family import pleasant_family
from .fibers import (SpecialFiberDescription, balanced_representatives,
                     check_base_change_injectivity, component_group)
from .graphs import (WeightedMultigraph, add_leaf, expand_hat, forget_tables,
                     is_pleasant, split_edge, shrink_vertex_weight,
                     split_vertex, SplitPlan, validate, vertex_gcd,
                     weighted_genus)


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
    g = triangle_tw()
    roots, starts = tw_roots()
    per_tree = []
    balanced_all = []
    nontrivial_balanced = 0
    for T in trees.enumerate_trees(g):
        subs = bernardi.enumerate_subweightings(g, T, roots=roots, starts=starts)
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
    return CheckResult("triangle example: 8 = 4+2+2 sub-weightings, 4 balanced, "
                       "one nontrivial", ok,
                       f"per-tree {per_tree}, balanced {len(balanced_all)}, "
                       f"nontrivial {nontrivial_balanced}")


def check_laplacian_example() -> CheckResult:
    g = fig1_left()
    D = laplacian(g, {"v1": 0, "v2": 0, "v3": 1})
    ok = D.vector(g) == [-2, -3, 5]
    return CheckResult("weighted Laplacian at the v3 indicator is (-2,-3,5)",
                       ok, str(D.vector(g)))


def check_fig2_tours() -> CheckResult:
    g = unweighted_triangle()
    want = [
        (("a", "b"), {"a": ("v2", "v1"), "b": ("v1", "v3"), "c": ("v2", "v3")}),
        (("a", "c"), {"a": ("v2", "v1"), "b": ("v3", "v1"), "c": ("v2", "v3")}),
        (("b", "c"), {"a": ("v1", "v2"), "b": ("v3", "v1"), "c": ("v2", "v3")}),
    ]
    got = []
    ok = True
    for T, expected in want:
        orient = bernardi.tour_forest(g, T, roots=("v2",), starts={"v2": "a"})
        got.append(orient)
        ok = ok and orient == expected
    return CheckResult("triangle tours from v2 match the three reference "
                       "orientations", ok, str(got))


# -- one-pass family sweep -------------------------------------------------


@dataclass
class SweepStats:
    graphs: int = 0
    skipped_split_edge: int = 0
    skipped_unit_leaf: int = 0
    shrink_checks: int = 0
    vertex_split_checks: int = 0
    failures: list = field(default_factory=list)


def _auto_split_plan(g, v, r):
    """Try to halve/partition every edge at v evenly over the copies."""
    parts = {}
    for e in g.edges:
        if v not in e.ends:
            continue
        w = g.edge_weight[e.id]
        if w % r:
            return None
        share = w // r
        other = e.other_end(v)
        if e.is_loop:
            # split a loop into r loops, one per copy
            if share % (g.vertex_weight[v] // r):
                return None
            parts[e.id] = [((j, j), share) for j in range(r)]
        else:
            if share % g.vertex_weight[other] or share % (g.vertex_weight[v] // r):
                return None
            parts[e.id] = [(j, share) for j in range(r)]
    return SplitPlan(parts)


def _exponent(structure):
    """Largest invariant factor, 1 for the trivial group."""
    return max(structure.invariant_factors, default=1)


def sweep_family(family) -> dict:
    """Run the exhaustive cross-validation; returns named CheckResults."""
    stats = SweepStats()
    fail = stats.failures

    def bad(name, g, msg):
        fail.append((name, g, msg))

    index1 = []
    torsor_candidates = []
    for g in family:
        stats.graphs += 1
        L = g.laplacian_matrix()
        reduced = [row[1:] for row in L[1:]]
        det = intlinalg.det(reduced)
        count = tree_sum(g)
        countb = picard.count_picb0(g)
        s0 = picard.pic0_structure(g)
        sb = picard.picb0_structure(g)

        # matrix-tree cross-checks
        if not (count == det == s0.order):
            bad("matrix-tree", g, f"count {count}, det {det}, snf {s0.order}")
        if sb.order != countb:
            bad("matrix-tree", g, f"balanced count {countb} vs snf {sb.order}")
        wprod = 1
        for v in g.vertices:
            wprod *= g.vertex_weight[v]
        if count * vertex_gcd(g) != countb * wprod:
            bad("matrix-tree", g, "quotient |Pic0|/|Picb0| != prod(w)/gcd(w)")
        # the two closures share one system of their own, an exact inverse
        # of the Laplacian; the reducer below factors it again itself.  The
        # structures above take |det| as their Smith modulus, so a diagonal
        # of the modulus and 1s would match every order; their largest
        # invariant factors must match this system's exponents too
        bfs_system = LaplacianSystem(g)
        reps = picard.enumerate_coset_representatives_bruteforce(
            g, system=bfs_system)
        repsb = picard.enumerate_coset_representatives_bruteforce(
            g, balanced_only=True, system=bfs_system)
        if len(reps) != count or len(repsb) != countb:
            bad("matrix-tree", g,
                f"brute-force counts {len(reps)}/{len(repsb)} vs {count}/{countb}")
        e0 = bfs_system.e
        eb = math.lcm(*(e0 // math.gcd(e0, *bfs_system.vector_key(gen)[1])
                        for gen in picard._balanced_deg0_generators(g)))
        if _exponent(s0) != e0 or _exponent(sb) != eb:
            bad("matrix-tree", g, f"exponents {_exponent(s0)}/{_exponent(sb)} "
                                  f"vs inverse {e0}/{eb}")

        # completeness of sub-weighted trees
        try:
            reducer = bernardi.BernardiReducer(g)
        except InternalError as exc:
            bad("completeness", g, str(exc))
            forget_tables(g)
            continue
        if len(reducer.table) != count:
            bad("completeness", g,
                f"{len(reducer.table)} representatives vs count {count}")
        gm1 = weighted_genus(g) - 1
        balanced_ts = []
        divisors = {}  # ts.key() -> tree divisor vector, for the hat leg
        for key, ts in reducer.table.items():
            # the table's keys come from one tour and affine steps per
            # forest; a tour per tree must give the same class
            D = bernardi.tree_divisor(g, ts)
            divisors[ts.key()] = D.vector(g)
            if reducer.system.class_key(D) != key:
                bad("completeness", g, f"table key of {ts.key()} is not the "
                                       "class of its tree divisor")
            if degree(D) != gm1:
                bad("completeness", g, f"tree divisor degree {degree(D)} != {gm1}")
            if is_balanced(g, D):
                balanced_ts.append(ts)
        # the congruences that generate the balanced trees against the
        # table's trees whose divisor is balanced, tree by tree
        bal_list = balanced_representatives(g)
        if len(bal_list) != countb or len(balanced_ts) != countb:
            bad("completeness", g,
                f"balanced trees {len(bal_list)}/{len(balanced_ts)} vs {countb}")
        elif bal_list != balanced_ts:
            bad("completeness", g, "balanced representatives are not the "
                                   "trees whose divisor is balanced")

        # hat-graph correspondence: the hat pairs must cover the table's
        # trees exactly once, each with D_O(hat tour) - shift equal to the
        # divisor of its tour on g
        hat = expand_hat(g)
        if not validate(hat.graph).pleasant:
            bad("hat", g, "hat graph not pleasant")
        if weighted_genus(hat.graph) != weighted_genus(g) + sum(
                g.vertex_weight[v] - 1 for v in g.vertices):
            bad("hat", g, "hat genus identity failed")
        shift = bernardi.hat_reference_shift(g)
        try:
            pairs = bernardi.hat_pairs(g, hat)
        except InternalError as exc:
            bad("hat", g, str(exc))
        else:
            for ts, orient in pairs:
                D = divisors.pop(ts.key(), None)
                if D is None:
                    bad("hat", g, f"hat pair {ts.key()} repeats or is not a "
                                  "sub-weighted tree of the graph")
                    break
                DO = bernardi.orientation_divisor(hat.graph, orient)
                if D != (DO - shift).vector(g):
                    bad("hat", g, "hat shift identity failed")
                    break
            else:
                if divisors:
                    bad("hat", g, f"hat tree map misses {len(divisors)} "
                                  "sub-weighted trees")

        # rewrite invariances.  A weight-1 leaf edge leaves the Jacobian
        # untouched; a weight-w leaf edge multiplies |Pic0| by w but leaves
        # the balanced Jacobian untouched when the leaf weight matches.
        light = [v for v in g.vertices if g.vertex_weight[v] == 1]
        if light:
            leafed = add_leaf(g, light[0], leaf_weight=1, edge_weight=1)
            if picard.pic0_structure(leafed).invariant_factors != s0.invariant_factors:
                bad("invariance", g, "weight-1 leaf changed the Jacobian")
        else:
            stats.skipped_unit_leaf += 1
        v0 = g.vertices[0]
        w0 = g.vertex_weight[v0]
        leafed = add_leaf(g, v0, leaf_weight=w0, edge_weight=w0)
        if picard.pic0_structure(leafed).order != s0.order * w0:
            bad("invariance", g, "leaf did not scale |Pic0| by its edge weight")
        if picard.picb0_structure(leafed).invariant_factors != sb.invariant_factors:
            bad("invariance", g, "leaf changed the balanced Jacobian")
        split_done = False
        for e in g.edges:
            w = g.edge_weight[e.id]
            unit = math.lcm(*(g.vertex_weight[v] for v in e.ends))
            if w >= 2 * unit and w % unit == 0:
                gs = split_edge(g, e.id, [w - unit, unit])
                if gs.laplacian_matrix() != L:
                    bad("invariance", g, "split_edge changed the Laplacian")
                if picard.pic0_structure(gs).invariant_factors != s0.invariant_factors:
                    bad("invariance", g, "split_edge changed the Jacobian")
                split_done = True
                break
        if not split_done:
            stats.skipped_split_edge += 1
        heavy = [v for v in g.vertices if g.vertex_weight[v] > 1]
        if heavy:
            shrunk = shrink_vertex_weight(g, heavy[0], 1)
            rep = check_base_change_injectivity(g, shrunk, None, repsb)
            stats.shrink_checks += 1
            if not rep.injective:
                bad("invariance", g, f"shrink injectivity witness {rep.witness}")
        for v in heavy:
            r = 2 if g.vertex_weight[v] % 2 == 0 else None
            if r is None:
                continue
            plan = _auto_split_plan(g, v, r)
            if plan is None:
                continue
            gv, vmap = split_vertex(g, v, r, plan)
            rep = check_base_change_injectivity(g, gv, vmap, repsb)
            stats.vertex_split_checks += 1
            if not rep.injective:
                bad("invariance", g, f"vertex split witness {rep.witness}")
            break

        # index-1 fibers
        if all(w == 1 for w in g.vertex_weight.values()):
            index1.append((g, s0, reducer, bal_list))

        if (any(w > 1 for w in g.vertex_weight.values())
                and 2 <= countb <= 12 and len(torsor_candidates) < 24):
            torsor_candidates.append(g)
        # the family outlives the sweep; its graphs need not keep their tables
        forget_tables(g)

    results = {}
    for name, title in [
        ("matrix-tree", "matrix-tree sweep: tree sum = determinant = Smith "
                        "order = brute-force count (plain and balanced)"),
        ("completeness", "sub-weighted trees are a complete, irredundant set "
                         "of class representatives (plain and balanced)"),
        ("hat", "hat-graph correspondence is bijective and satisfies the "
                "constant-shift identity"),
        ("invariance", "leaf/edge-split invariance and shrink/vertex-split "
                       "injectivity hold with zero witnesses"),
    ]:
        bads = [b for b in fail if b[0] == name]
        detail = f"{stats.graphs} graphs"
        if name == "invariance":
            detail += (f", {stats.shrink_checks} shrinks, "
                       f"{stats.vertex_split_checks} vertex splits")
        if bads:
            detail = f"{len(bads)} failures, first: {bads[0][2]}"
        results[name] = CheckResult(title, not bads, detail)
    results["_index1"] = index1
    results["_torsor_candidates"] = torsor_candidates
    results["_stats"] = stats
    return results


def check_torsor(graphs) -> CheckResult:
    """Free transitive action of the balanced Jacobian on balanced trees."""
    problems = []
    for g in graphs:
        try:
            B = balanced_representatives(g)
            if not B:
                problems.append((g, "no balanced representatives"))
                continue
            group = picard.enumerate_coset_representatives_bruteforce(
                g, balanced_only=True)
            zero = Divisor.zero(g)
            ts0 = B[0]
            if bernardi.torsor_act(g, zero, ts0) != ts0:
                problems.append((g, "identity does not act trivially"))
                continue
            orbit = [bernardi.torsor_act(g, D, ts0) for D in group]
            keyset = {t.key() for t in orbit}
            full = {t.key() for t in B}
            if keyset != full or len(keyset) != len(orbit):
                problems.append((g, "orbit is not free and transitive"))
                continue
            for D1 in group:
                for D2 in group:
                    lhs = bernardi.torsor_act(g, D1 + D2, ts0)
                    rhs = bernardi.torsor_act(
                        g, D1, bernardi.torsor_act(g, D2, ts0))
                    if lhs != rhs:
                        problems.append((g, f"action incompatible at {D1}, {D2}"))
        except ChipfireError as exc:
            problems.append((g, f"raised {type(exc).__name__}: {exc}"))
    return CheckResult(
        f"torsor axioms on {len(graphs)} graphs: identity, compatibility, "
        "free transitive orbits", not problems,
        problems[0][1] if problems else f"group sizes "
        f"{[picard.count_picb0(g) for g in graphs]}")


def check_index1(collected) -> CheckResult:
    """All-index-1 fibers: component group equals the full Jacobian."""
    problems = []
    for g, s0, reducer, bal_list in collected:
        fiber = SpecialFiberDescription(
            tuple((v, 1) for v in g.vertices),
            tuple((e.id, e.ends, g.edge_weight[e.id]) for e in g.edges))
        try:
            structure, reps = component_group(fiber)
        except ChipfireError as exc:
            problems.append((g, f"raised {type(exc).__name__}: {exc}"))
            continue
        if structure.order != s0.order:
            problems.append((g, f"order {structure.order} != {s0.order}"))
            continue
        if (Counter(t.key() for t in reps)
                != Counter(t.key() for t in reducer.table.values())):
            problems.append((g, "balanced representatives differ from the "
                                "full set"))
    return CheckResult(
        f"index-1 fibers: component group = Jacobian elementwise "
        f"({len(collected)} fibers)", not problems,
        str(problems[0]) if problems else "")


def check_divisor_properties(family, seed=0) -> CheckResult:
    """Randomized spot checks: Laplacian degree/balancedness, chip-firing,
    unbalancing counts, and equivalence being an equivalence relation."""
    rng = random.Random(seed)
    problems = []
    sample = family if len(family) <= 200 else rng.sample(family, 200)
    for g in sample:
        f = {v: rng.randint(-3, 3) for v in g.vertices}
        D = laplacian(g, f)
        if degree(D) != 0:
            problems.append((g, "principal divisor with nonzero degree"))
        if is_pleasant(g) and not is_balanced(g, D):
            problems.append((g, "principal divisor unbalanced on pleasant graph"))
        v = rng.choice(g.vertices)
        # against the Laplacian matrix, which is separate code
        if chip_fire(g, v).vector(g) != [row[g.vindex(v)]
                                         for row in g.laplacian_matrix()]:
            problems.append((g, "chip-firing move mismatch"))
        # unbalancing classes with zero total residue
        wprod = 1
        for u in g.vertices:
            wprod *= g.vertex_weight[u]
        wg = vertex_gcd(g)
        zero_alpha = 0
        if wprod <= 4000:
            for residues in itertools.product(*[range(g.vertex_weight[u])
                                                for u in g.vertices]):
                if sum(residues) % wg == 0:
                    zero_alpha += 1
            if zero_alpha != wprod // wg:
                problems.append((g, "unbalancing class count mismatch"))
        # equivalence relation: reflexive, symmetric, transitive on instances
        D1 = Divisor({u: rng.randint(-2, 2) for u in g.vertices})
        shift = laplacian(g, {u: rng.randint(-1, 1) for u in g.vertices})
        D2 = D1 + shift
        if equivalent(g, D1, D1) is None or equivalent(g, D1, D2) is None \
                or equivalent(g, D2, D1) is None:
            problems.append((g, "equivalence relation violated"))
    return CheckResult(
        f"divisor properties on {len(sample)} random instances "
        f"(Laplacian, chip-firing, unbalancings, equivalence)",
        not problems, str(problems[0]) if problems else "")


def run_selfcheck(seed=0, max_vertices=4, max_edges=5, max_weight=3) -> bool:
    family = list(pleasant_family(max_vertices, max_edges, max_weight))
    results = [check_triangle_example(), check_laplacian_example(),
               check_fig2_tours()]
    sweep = sweep_family(family)
    results += [sweep[k] for k in ("matrix-tree", "completeness", "hat",
                                   "invariance")]
    torsor_graphs = [triangle_tw()] + sweep["_torsor_candidates"][:5]
    results.append(check_torsor(torsor_graphs))
    results.append(check_index1(sweep["_index1"]))
    results.append(check_divisor_properties(family, seed=seed))
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
        ok = ok and r.passed
    return ok
