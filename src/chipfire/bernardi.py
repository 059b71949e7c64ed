"""Tours of spanning trees, orientation and tree divisors, edge
sub-weightings, the hat-graph correspondence, reduction to canonical
representatives, and the torsor action.

The tour walks states (v, h) with h a half-edge at v.  On a tree edge
it crosses to the other endpoint and continues from the successor of
the partner half-edge; on any other edge it orients the edge toward v
(first visit only) and advances to the next half-edge around v.  It
stops when the start state recurs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .divisors import (Divisor, LaplacianSystem, check_on_graph,
                       component_degrees, equivalent, require_pleasant)
from .errors import GraphInputError, InternalError, PreconditionError
from .graphs import component_genera, is_int
from .trees import enumerate_forests, is_maximal_forest, iter_forests


def resolve_roots(g, roots=None, starts=None):
    """One root per component, in component order, and the start half-edge
    of every root that has half-edges.

    A given root replaces its component's first vertex.  A root without a
    given start starts at the first half-edge of its ribbon.  A start is a
    half-edge at its root or the id of an edge there, which names the first
    such half-edge in the ribbon.
    Raises GraphInputError on an unknown vertex, two roots in one component,
    or a start that is not at its root.
    """
    comps = g.components()
    chosen = [comp[0] for comp in comps]
    if roots is not None:
        given = set()
        for q in roots:
            g.vindex(q)  # rejects an unknown vertex
            i = next(i for i, comp in enumerate(comps) if q in comp)
            if i in given:
                raise GraphInputError(f"two roots given in the component of {q!r}")
            given.add(i)
            chosen[i] = q
    starts = {} if starts is None else starts
    resolved = {}
    for q in chosen:
        ring = g.ribbon[q]
        if q in starts:
            resolved[q] = _start_at(ring, q, starts[q])
        elif ring:
            resolved[q] = ring[0]
    stray = [v for v in starts if v not in resolved]
    if stray:
        raise GraphInputError(f"start {starts[stray[0]]!r} is given for "
                              f"{stray[0]!r}, which is not a root")
    return tuple(chosen), resolved


def _start_at(ring, q, start):
    for h in ring:
        if start in (h, h[0]):
            return h
    raise GraphInputError(f"start {start!r} is not a half-edge at root {q!r}")


@dataclass(frozen=True)
class SubweightedTree:
    """A maximal spanning forest (edge ids in declaration order), a
    sub-weighting sigma with 1 <= sigma <= w on it and sigma = w off it,
    one root per component and the start half-edge of each root.

    `build` validates; the plain constructor trusts its caller.
    """
    forest_edges: tuple[str, ...]
    sigma: dict  # edge id -> int
    roots: tuple[str, ...]
    starts: dict  # root -> half-edge, absent for isolated roots

    @classmethod
    def build(cls, g, forest, sigma=None, roots=None, starts=None):
        """The validated tree; sigma defaults to the edge weights, roots
        and starts resolve as in `resolve_roots`.  Raises GraphInputError."""
        forest = list(forest)
        _require_maximal(g, forest)
        order = {e.id: k for k, e in enumerate(g.edges)}
        forest = tuple(sorted(forest, key=order.get))
        if sigma is None:
            sigma = dict(g.edge_weight)
        else:
            if set(sigma) != set(order):
                raise GraphInputError("sigma must give exactly the graph's edges")
            in_forest = set(forest)
            for eid, w in g.edge_weight.items():
                s = sigma[eid]
                if not is_int(s) or not (1 <= s <= w if eid in in_forest
                                         else s == w):
                    raise GraphInputError(
                        f"sigma at {eid!r} is {s!r}; it must be an integer in "
                        f"1..{w} on the forest and {w} off it")
            sigma = {eid: sigma[eid] for eid in order}
        return cls(forest, sigma, *resolve_roots(g, roots, starts))

    def key(self):
        """Hashable (forest, sigma) pair, the same for equal sub-weightings
        whatever the order of sigma's entries."""
        return self.forest_edges, frozenset(self.sigma.items())


def tour_forest(g, forest, roots=None, starts=None):
    """Orient all edges by touring the forest's tree in each component from
    its root and start (see `resolve_roots`): edge id -> (tail, head),
    with tail == head on a loop.  Raises GraphInputError."""
    forest = tuple(forest)
    _require_maximal(g, forest)
    _, starts = resolve_roots(g, roots, starts)
    return _orient(g, forest, starts)


def _require_maximal(g, forest):
    """The one check of a forest: GraphInputError unless its ids name a
    maximal spanning forest of distinct edges of g."""
    if not is_maximal_forest(g, forest):
        raise GraphInputError(f"forest {list(forest)!r} is not a maximal "
                              "spanning forest of distinct edges of the graph")


def _orient(g, forest, starts):
    """Edge id -> (tail, head) from touring a checked maximal forest from
    resolved starts, over the graph's half-edge arrays."""
    index, vertex, successor, partner, edge_id, other_end = g.half_edges
    tree_ids = set(forest)
    orient = {}
    for e0 in starts.values():
        start = cur = index[e0]
        for _ in range(len(vertex) + 1):
            eid = edge_id[cur]
            v = vertex[cur]
            if eid in tree_ids:
                if eid not in orient:
                    orient[eid] = (v, other_end[cur])
                cur = successor[partner[cur]]
            else:
                if eid not in orient:
                    orient[eid] = (other_end[cur], v)
                cur = successor[cur]
            if cur == start:
                break
        else:
            raise PreconditionError("tour failed to close; tree is not spanning")
    return orient


def orientation_divisor(g, orient) -> Divisor:
    """Coefficient indeg(v) - 1 at every vertex of the orientation
    {edge id: (tail, head)}; a loop adds one at its vertex.  Raises
    PreconditionError unless orient gives exactly g's edges, each as its
    two ends in either order."""
    ids = [e.id for e in g.edges]
    missing = set(ids) - set(orient)
    if missing:
        raise PreconditionError(
            f"orientation is missing edges {sorted(missing, key=repr)}")
    extra = set(orient) - set(ids)
    if extra:
        raise PreconditionError(
            f"orientation names edges {sorted(extra, key=repr)} that the "
            "graph does not have")
    for e in g.edges:
        ends = orient[e.id]
        if not (isinstance(ends, (tuple, list))
                and tuple(ends) in (e.ends, e.ends[::-1])):
            raise PreconditionError(
                f"orientation gives edge {e.id!r} the ends {ends!r}, not "
                f"{e.ends!r} in either order")
    return Divisor.from_vector(g, _indegree_vector(g, orient))


def _indegree_vector(g, orient):
    """indeg(v) - 1 in vertex order of a checked orientation {edge id:
    (tail, head)}: the vector core of `orientation_divisor`, which
    `selfcheck`'s hat leg calls on each hat tour."""
    index = g.vertex_index
    vec = [-1] * len(index)
    for _tail, head in orient.values():
        vec[index[head]] += 1
    return vec


def _unit_vector(g, forest, orient):
    """D_{T,sigma} in vertex order at sigma = 1 on the forest edges, from
    the forest's tour orientation."""
    index = g.vertex_index
    in_forest = set(forest)
    vec = [-g.vertex_weight[v] for v in g.vertices]
    for e in g.edges:
        w = g.edge_weight[e.id]
        if e.is_loop:
            vec[index[e.ends[0]]] += w
            continue
        tail, head = orient[e.id]
        s = 1 if e.id in in_forest else w
        vec[index[head]] += s
        vec[index[tail]] += w - s
    return vec


def _crt(a, m, b, n):
    """(x, lcm(m, n)) with x = a mod m and x = b mod n, or None when the
    two congruences clash."""
    if m == 1:
        return b % n, n
    d = math.gcd(m, n)
    if (b - a) % d:
        return None
    k = (b - a) // d * pow(m // d, -1, n // d) % (n // d)
    lcm = m // d * n
    return (a + m * k) % lcm, lcm


def _balanced_combos(g, forest, starts):
    """The sigma values on a checked maximal forest's edges, in
    sigma-lexicographic order, of the sub-weightings whose tree divisor is
    balanced, toured once from resolved starts.

    A unit of sigma on a forest edge adds 1 to D_{T,sigma} at its head and
    takes 1 at its tail, so D(h) = c_h + sum of +-sigma over h's forest
    edges, and D is balanced at a vertex h of weight > 1 iff that sum is
    -c_h mod w(h).  The partial tuples grow one forest edge at a time; the
    last forest edge at h takes only the sigma that meet h's congruence
    (the CRT intersection of two congruences when it is the last at both
    its ends, none when they clash).  A heavy vertex without forest edges
    is a constant check.
    """
    orient = _orient(g, forest, starts)
    vec = _unit_vector(g, forest, orient)
    index = g.vertex_index
    at = {}  # heavy vertex -> [(position in forest, +1 head / -1 tail)]
    for k, eid in enumerate(forest):
        tail, head = orient[eid]
        for v, sign in ((head, 1), (tail, -1)):
            if g.vertex_weight[v] > 1:
                at.setdefault(v, []).append((k, sign))
    closing = [[] for _ in forest]  # per position: (c_h, w(h), sign, earlier)
    for v in g.vertices:
        w, d = g.vertex_weight[v], vec[index[v]]
        if w == 1:
            continue
        if v not in at:
            if d % w:
                return []
            continue
        *earlier, (k, sign) = at[v]
        closing[k].append((d - sum(s for _, s in at[v]), w, sign, earlier))

    def allowed(ends, w, p):
        # c + sum(earlier) + sign * sigma = 0 mod w(h) for each closed end h
        a, m = 0, 1
        for c, mod, sign, earlier in ends:
            am = _crt(a, m, -sign * (c + sum(s * p[j] for j, s in earlier)),
                      mod)
            if am is None:
                return ()
            a, m = am
        return range(1 + (a - 1) % m, w + 1, m)

    partials = [()]
    for k, eid in enumerate(forest):
        w, ends = g.edge_weight[eid], closing[k]
        if any(earlier for *_, earlier in ends):
            partials = [p + (s,) for p in partials for s in allowed(ends, w, p)]
        else:  # the same sigma for every partial tuple
            r = allowed(ends, w, ())
            partials = [p + (s,) for p in partials for s in r]
    return partials


def _sigma_combos(g, forest, starts, balanced_only):
    """The sigma values on a checked maximal forest's edges of its
    sub-weightings, or of its balanced ones, in sigma-lexicographic order.
    Without a vertex of weight > 1 every sub-weighting is balanced."""
    if balanced_only and any(w > 1 for w in g.vertex_weight.values()):
        return _balanced_combos(g, forest, starts)
    return itertools.product(*(range(1, g.edge_weight[eid] + 1)
                               for eid in forest))


def _with_sigma(g, forest, combo, roots, starts):
    sigma = dict(g.edge_weight)
    sigma.update(zip(forest, combo))
    return SubweightedTree(forest, sigma, roots, starts)


def all_subweighting_combos(g, balanced_only=False):
    """(forest, combos) per forest of `enumerate_forests(g)`, in its order,
    toured from g's default roots and starts: combos gives the sigma values
    on the forest's edges of its sub-weightings (balanced ones only with
    balanced_only) in sigma-lexicographic order.  These are what `trees`,
    `trees --balanced` and `fiber` write; the forests are not checked
    again.  With balanced_only, raises PreconditionError at once on a graph
    that is not pleasant."""
    if balanced_only:
        require_pleasant(g, "balanced enumeration")
    _, starts = resolve_roots(g)
    return ((forest, _sigma_combos(g, forest, starts, balanced_only))
            for forest in enumerate_forests(g))


def balanced_representatives(g):
    """All balanced sub-weighted forests, in (forest, sigma) lexicographic
    order.  Raises PreconditionError on a graph that is not pleasant."""
    roots, starts = resolve_roots(g)
    return [_with_sigma(g, forest, combo, roots, starts)
            for forest, combos in all_subweighting_combos(g, balanced_only=True)
            for combo in combos]


def enumerate_subweightings(g, T, balanced_only=False, roots=None, starts=None):
    """All edge sub-weightings of the forest T, in sigma-lexicographic
    order, with roots and starts as in `resolve_roots`.  Raises
    GraphInputError when T is not a maximal spanning forest of g.

    With balanced_only, only those whose tree divisor is balanced, solved
    for as congruences at the vertices of weight > 1 (`_balanced_combos`)
    rather than filtered.
    """
    base = SubweightedTree.build(g, T, roots=roots, starts=starts)
    return [_with_sigma(g, base.forest_edges, combo, base.roots, base.starts)
            for combo in _sigma_combos(g, base.forest_edges, base.starts,
                                       balanced_only)]


def _box_offsets(steps, sizes, want, packed):
    """Offsets c with 0 <= c_j < sizes[j] and sum_j c_j s_j = want, or None
    when there are none; steps[j] = (s_j, -s_j), all packed by `packed`.

    Meet in the middle (Shanks' baby step, giant step): the sums of one
    half of the box's coordinates go into a dict, and each combination of
    the other half looks up want minus its own sum, so time and memory
    grow with the square root of the box, not with the box.  A coordinate
    larger than that root (at most one can be) is split as c = q b + r,
    r in the dict's half and q in the other; a hit with q b + r >= size
    is no solution.  The dict's half is listed with r slowest and keeps
    the first of equal sums, the one of least r, so a solution is missed
    only when there is none.  The other half steps by -s_j from want.
    """
    box = math.prod(sizes)
    baby, giant, split, product = [], [], [], 1
    for j, w in enumerate(sizes):
        if w * w > box:
            b = math.isqrt(w * w // box)
            giant.append((j, b, -(-w // b)))
            split.append((j, 1, b))
        elif w > 1 and product * product < box:
            baby.append((j, 1, w))
            product *= w
        elif w > 1:
            giant.append((j, 1, w))
    baby += split  # r varies slowest

    def sums(dims, start, side):
        # the first dim varies fastest; each block is the one before plus step
        out = [start]
        for j, mult, size in dims:
            step = steps[j][side]
            if mult > 1:
                step = packed.scale(step, mult)
            block = out
            for _ in range(size - 1):
                block = packed.shift([step], block)
                out += block
        return out

    baby_sums = sums(baby, 0, 0)
    # the first index of each sum
    table = dict(zip(reversed(baby_sums), range(len(baby_sums) - 1, -1, -1)))
    for k, x in enumerate(sums(giant, want, 1)):
        if x in table:
            offsets = [0] * len(sizes)
            for dims, at in ((giant, k), (baby, table[x])):
                for j, mult, size in dims:
                    at, digit = divmod(at, size)
                    offsets[j] += digit * mult
            if all(map(int.__lt__, offsets, sizes)):
                return offsets
    return None


def _subweighting_in_class(g, system, starts, residue):
    """(forest, sigma on the forest) of the sub-weighted maximal forest,
    toured from resolved starts, whose tree divisor has the key part
    `residue` of g's LaplacianSystem `system`, or None.

    The key part is linear, so with U_v the key part of vertex v's unit
    divisor, an edge oriented tail -> head adds w U_head to the tree
    divisor's key off the forest and w U_tail + s on it at sigma = 1,
    where s = U_head - U_tail is what each further unit of sigma adds, and
    -s is that of the other orientation.  Forest by forest, in
    `enumerate_forests` order, one tour gives these terms and
    `_box_offsets` solves for sigma - 1 in the forest's box.
    Distinct sub-weighted forests lie in distinct classes, so the first
    forest with a solution holds the only one."""
    packed = system.packed
    index = g.vertex_index
    off, fix, step = {}, {}, {}
    for e in g.edges:
        w = g.edge_weight[e.id]
        for ends in {e.ends, e.ends[::-1]}:
            tail, head = map(index.__getitem__, ends)
            off[e.id, ends] = system.pair_key(head, -w, tail, 0)
            fix[e.id, ends] = system.pair_key(tail, 1 - w, head, w - 1)
            step[e.id, ends] = system.pair_key(tail, -1, head, 1)
    step = {(eid, ends): (s, step[eid, ends[::-1]])
            for (eid, ends), s in step.items()}
    # D + W, W the vertex weights; `packed` holds 2 + |E| + |forest| terms
    base = residue + system.vector_key(
        [g.vertex_weight[v] for v in g.vertices])[1]
    for forest in iter_forests(g):
        orient = _orient(g, forest, starts)
        on_forest = list(zip(forest, map(orient.__getitem__, forest)))
        want = packed.canonical(base + sum(map(off.__getitem__, orient.items()))
                                + sum(map(fix.__getitem__, on_forest)))
        offsets = _box_offsets(list(map(step.__getitem__, on_forest)),
                               list(map(g.edge_weight.__getitem__, forest)),
                               want, packed)
        if offsets is not None:
            return forest, tuple(c + 1 for c in offsets)
    return None


def _keyed_subweightings(g, system, starts):
    """(class key, forest, sigma on the forest) of every sub-weighted
    maximal forest, in (forest, sigma)-lexicographic order, toured from
    resolved starts: the walk that builds `BernardiReducer`'s table.
    `system` is g's LaplacianSystem; its key part is linear in D, and a
    unit of sigma on a forest edge adds e_head - e_tail to D, so each key
    so far is followed by it plus 1, ..., w - 1 such units."""
    packed = system.packed
    index = g.vertex_index
    for forest in enumerate_forests(g):
        orient = _orient(g, forest, starts)
        degrees, residue = system.vector_key(_unit_vector(g, forest, orient))
        residues = [residue]
        for eid in forest:
            if g.edge_weight[eid] > 1:
                tail, head = map(index.__getitem__, orient[eid])
                residues = packed.shift(residues, [0] + [
                    system.pair_key(tail, -c, head, c)
                    for c in range(1, g.edge_weight[eid])])
        combos = itertools.product(*(range(1, g.edge_weight[eid] + 1)
                                     for eid in forest))
        for y, combo in zip(residues, combos):
            yield (degrees, y), forest, combo


def tree_divisor(g, ts: SubweightedTree) -> Divisor:
    """The degree g-1 divisor attached to a sub-weighted forest: the
    per-tree path, with its own tour from the tree's resolved starts
    (`enumerate_subweightings` and `reduce` tour each forest once for all
    its sigma).  Raises GraphInputError on a forest that is not maximal."""
    _require_maximal(g, ts.forest_edges)
    return Divisor.from_vector(
        g, _tree_vector(g, ts.sigma, _orient(g, ts.forest_edges, ts.starts)))


def _tree_vector(g, sigma, orient):
    """D_{T,sigma} in vertex order from the tour orientation of T: the
    vector core of `tree_divisor`, which `selfcheck`'s completeness leg
    calls on each table tree.  An edge oriented tail -> head gives sigma
    to its head and w - sigma to its tail, so a loop, off the forest with
    sigma = w, gives w to its vertex."""
    index = g.vertex_index
    vec = [-g.vertex_weight[v] for v in g.vertices]
    for eid, w in g.edge_weight.items():
        tail, head = orient[eid]
        s = sigma[eid]
        vec[index[head]] += s
        vec[index[tail]] += w - s
    return vec


# -- hat-graph correspondence ---------------------------------------------


def hat_pairs(g, hat):
    """(sub-weighted tree of g, tour orientation of the hat tree) for each
    maximal spanning forest of the hat graph, in `enumerate_forests` order,
    touring each once from the hat graph's default roots and starts; the
    trees of g take g's.  `hat` is `expand_hat(g)`, whose copies of an
    edge stand at its place in the edge order, so a hat tree's edges name
    its forest on g in g's edge order."""
    hat_g = hat.graph
    copy_of = hat.copy_of
    copies = {}
    for cid, (eid, _i) in copy_of.items():
        copies.setdefault(eid, []).append(cid)
    # a forest holds at most one of an edge's parallel copies, and an edge
    # with one copy has sigma = w = 1 whether it is in the forest or not
    parallel = [(e.id, copies[e.id]) for e in g.edges
                if len(copies[e.id]) > 1 and not e.is_loop]
    roots, starts = resolve_roots(g)
    _, hat_starts = resolve_roots(hat_g)
    out = []
    for hatT in enumerate_forests(hat_g):
        orient = _orient(hat_g, hatT, hat_starts)
        chosen = {copy_of[c][0]: c for c in hatT}  # edge of g -> its copy
        sigma = dict(g.edge_weight)
        for eid, cs in parallel:
            dirs = [orient[c] for c in cs]
            if eid in chosen:
                sigma[eid] = dirs.count(orient[chosen[eid]])
            # the correspondence presumes parallel non-tree copies agree
            elif dirs.count(dirs[0]) != len(dirs):
                raise InternalError(
                    f"copies of non-tree edge {eid!r} received mixed "
                    f"directions {sorted(set(dirs))}; correspondence "
                    "assumption violated")
        out.append((SubweightedTree(tuple(chosen), sigma, roots, starts),
                    orient))
    return out


def hat_reference_shift(g) -> Divisor:
    """The constant shift between hat orientation divisors and tree divisors."""
    return Divisor({v: g.vertex_weight[v] - 1 for v in g.vertices})


# -- reduction and torsor action ------------------------------------------


def reduce(g, D, roots=None, starts=None):
    """The unique sub-weighted forest equivalent to D (roots and starts as
    in `resolve_roots`) and a chip-firing certificate from `equivalent`.

    D may name only vertices of g.  The forest comes from a walk over the
    forests that solves each one's box of sigma for D's class by meet in
    the middle (`_subweighting_in_class`), in time and memory about the
    square root of the box per forest; the certificate's Laplacian is
    checked to equal D minus the forest's tree divisor."""
    check_on_graph(g, D)
    roots, starts = resolve_roots(g, roots, starts)
    want = tuple(genus - 1 for genus in component_genera(g))
    degrees = component_degrees(g, D)
    if degrees != want:
        raise PreconditionError(
            f"reduce needs degree {want[0]}, got {degrees[0]}" if len(want) == 1
            else "no representative: per-component degrees must equal genus - 1")
    system = LaplacianSystem(g)
    found = _subweighting_in_class(g, system, starts, system.class_key(D)[1])
    if found is None:
        raise InternalError("no sub-weighted forest lands in the class of a "
                            "divisor of the right degrees; completeness is violated")
    ts = _with_sigma(g, *found, roots, starts)
    cert = equivalent(g, D, tree_divisor(g, ts))
    if cert is None:
        raise InternalError("reduction found a representative with no "
                            "chip-firing certificate")
    return ts, cert


def torsor_act(g, D0, ts: SubweightedTree) -> SubweightedTree:
    """Translate the sub-weighted tree ts by the degree-0 class of D0."""
    check_on_graph(g, D0)  # D0 + a tree divisor would turn True into 1
    if any(component_degrees(g, D0)):
        raise PreconditionError(
            "torsor action needs a divisor of degree 0 on each component")
    out, _cert = reduce(g, D0 + tree_divisor(g, ts), ts.roots, ts.starts)
    return out


class BernardiReducer:
    """Table from every class of per-component degree genus - 1 to its
    sub-weighted forest, from `_keyed_subweightings`, one key per
    sub-weighting: the oracle of the completeness checks in `selfcheck`,
    which shares no walk with `reduce`.  Raises InternalError when two
    sub-weighted forests land in one class."""

    def __init__(self, g, roots=None, starts=None):
        roots, starts = resolve_roots(g, roots, starts)
        self.system = LaplacianSystem(g)
        self.table = {}
        for key, forest, combo in _keyed_subweightings(g, self.system, starts):
            if key in self.table:
                raise InternalError(
                    "two sub-weighted forests landed in one class; "
                    "completeness is violated")
            self.table[key] = _with_sigma(g, forest, combo, roots, starts)
