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
from dataclasses import dataclass

from .divisors import Divisor, LaplacianSystem, degree
from .errors import PreconditionError
from .graphs import WeightedMultigraph, weighted_genus
from .trees import enumerate_forests, is_maximal_forest


@dataclass(frozen=True)
class Orientation:
    direction: dict  # edge id -> (tail, head); loops have tail == head


@dataclass(frozen=True)
class SubweightedTree:
    forest_edges: tuple[str, ...]
    sigma: dict  # edge id -> int; equals the edge weight off the forest
    roots: tuple[str, ...]  # one per component
    starts: dict  # root -> half-edge, absent for isolated roots


def default_roots(g):
    roots = tuple(comp[0] for comp in g.components())
    starts = {q: g.ribbon[q][0] for q in roots if g.ribbon[q]}
    return roots, starts


class _TourMachine:
    """Index-based tour runner, built once per graph."""

    def __init__(self, g: WeightedMultigraph):
        self.g = g
        halves = []
        index = {}
        for v in g.vertices:
            for h in g.ribbon[v]:
                index[h] = len(halves)
                halves.append(h)
        self.index = index
        H = len(halves)
        self.vert_of = [None] * H
        self.succ = [0] * H
        for v in g.vertices:
            ring = g.ribbon[v]
            for k, h in enumerate(ring):
                i = index[h]
                self.vert_of[i] = v
                self.succ[i] = index[ring[(k + 1) % len(ring)]]
        self.eid_of = [h[0] for h in halves]
        self.partner = [index[(h[0], 1 - h[1])] for h in halves]
        self.other_end = [g.edge(h[0]).ends[1 - h[1]] for h in halves]

    def run(self, tree_ids, q, e0):
        """Orient every edge of q's component; returns edge id -> (tail, head)."""
        g = self.g
        if e0 not in self.index:
            raise PreconditionError(f"start half-edge {e0!r} does not exist")
        start = self.index[e0]
        if self.vert_of[start] != q:
            raise PreconditionError("start half-edge must be incident to the root")
        orient = {}
        cur = start
        limit = len(self.vert_of) + 1
        for _ in range(limit):
            eid = self.eid_of[cur]
            v = self.vert_of[cur]
            if eid in tree_ids:
                if eid not in orient:
                    orient[eid] = (v, self.other_end[cur])
                cur = self.succ[self.partner[cur]]
            else:
                if eid not in orient:
                    orient[eid] = (self.other_end[cur], v)
                cur = self.succ[cur]
            if cur == start:
                break
        else:
            raise PreconditionError("tour failed to close; tree is not spanning")
        return orient


def _machine(g) -> _TourMachine:
    m = g.__dict__.get("_tour_machine")
    if m is None:
        m = _TourMachine(g)
        object.__setattr__(g, "_tour_machine", m)
    return m


def tour(g, T, q=None, e0=None) -> Orientation:
    """Orientation of q's component from touring the spanning tree T."""
    roots, starts = default_roots(g)
    if q is None:
        q = roots[0]
    comp = next(c for c in g.components() if q in c)
    sub = g.subgraph(comp)
    T = tuple(T)
    if not is_maximal_forest(sub, T):
        raise PreconditionError("T must be a spanning tree of the root's component")
    if e0 is None:
        if not g.ribbon[q]:
            return Orientation({})
        e0 = g.ribbon[q][0]
    elif isinstance(e0, str):
        e0 = _halfedge_at(g, e0, q)
    orient = _TourMachine(sub).run(set(T), q, e0)
    return Orientation(orient)


def _halfedge_at(g, eid, v):
    for h in g.ribbon[v]:
        if h[0] == eid:
            return h
    raise PreconditionError(f"edge {eid!r} is not incident to {v!r}")


def tour_forest(g, forest, roots=None, starts=None):
    """Orient all edges by touring one spanning tree per component."""
    if roots is None or starts is None:
        droots, dstarts = default_roots(g)
        roots = droots if roots is None else roots
        starts = dstarts if starts is None else starts
    forest = set(forest)
    comps = g.components()
    if len(comps) == 1:
        q = next(v for v in roots if v in comps[0])
        T = tuple(e.id for e in g.edges if e.id in forest)
        if not is_maximal_forest(g, T):
            raise PreconditionError(
                "forest must restrict to a spanning tree on each component")
        if not g.ribbon[q]:
            return Orientation({})
        e0 = starts.get(q, g.ribbon[q][0])
        if isinstance(e0, str):
            e0 = _halfedge_at(g, e0, q)
        return Orientation(_machine(g).run(forest, q, e0))
    direction = {}
    for comp in comps:
        q = next(v for v in roots if v in comp)
        sub = g.subgraph(comp)
        T = tuple(eid for eid in (e.id for e in sub.edges) if eid in forest)
        if not is_maximal_forest(sub, T):
            raise PreconditionError(
                "forest must restrict to a spanning tree on each component")
        if not sub.ribbon[q]:
            continue
        e0 = starts.get(q, sub.ribbon[q][0])
        if isinstance(e0, str):
            e0 = _halfedge_at(sub, e0, q)
        direction.update(_TourMachine(sub).run(set(T), q, e0))
    return Orientation(direction)


def orientation_divisor(g, O: Orientation) -> Divisor:
    """Coefficient indeg(v) - 1 at every vertex; a loop adds one at its vertex."""
    missing = {e.id for e in g.edges} - set(O.direction)
    if missing:
        raise PreconditionError(f"orientation is missing edges {sorted(missing)}")
    indeg = {v: 0 for v in g.vertices}
    for eid, (_tail, head) in O.direction.items():
        indeg[head] += 1
    return Divisor({v: indeg[v] - 1 for v in g.vertices})


def _forest_in_edge_order(g, forest):
    fset = set(forest)
    return tuple(e.id for e in g.edges if e.id in fset)


def _sigma_is_balanced(g, orient, sigma):
    for v in g.vertices:
        w = g.vertex_weight[v]
        if w == 1:
            continue
        signed = 0
        for e in g.edges:
            if e.is_loop:
                continue
            tail, head = orient[e.id]
            if head == v:
                signed += sigma[e.id]
            elif tail == v:
                signed -= sigma[e.id]
        if signed % w:
            return False
    return True


def enumerate_subweightings(g, T, balanced_only=False, roots=None, starts=None):
    """All edge sub-weightings of the forest T, in sigma-lexicographic order."""
    forest = _forest_in_edge_order(g, T)
    if not is_maximal_forest(g, forest):
        raise PreconditionError("T must be a maximal spanning forest")
    if roots is None or starts is None:
        droots, dstarts = default_roots(g)
        roots = droots if roots is None else roots
        starts = dstarts if starts is None else starts
    orient = tour_forest(g, forest, roots, starts).direction
    fixed = {e.id: g.edge_weight[e.id] for e in g.edges if e.id not in forest}
    ranges = [range(1, g.edge_weight[eid] + 1) for eid in forest]
    out = []
    for combo in itertools.product(*ranges):
        sigma = dict(fixed)
        sigma.update(zip(forest, combo))
        if balanced_only and not _sigma_is_balanced(g, orient, sigma):
            continue
        out.append(SubweightedTree(forest, sigma, tuple(roots), dict(starts)))
    return out


def trivial_subweighting(g, T, roots=None, starts=None):
    forest = _forest_in_edge_order(g, T)
    if roots is None or starts is None:
        roots, starts = default_roots(g)
    sigma = {e.id: g.edge_weight[e.id] for e in g.edges}
    return SubweightedTree(forest, sigma, tuple(roots), dict(starts))


def tree_divisor(g, ts: SubweightedTree) -> Divisor:
    """The degree g-1 divisor attached to a sub-weighted forest."""
    orient = tour_forest(g, ts.forest_edges, ts.roots, ts.starts).direction
    out = {v: -g.vertex_weight[v] for v in g.vertices}
    for e in g.edges:
        w = g.edge_weight[e.id]
        s = ts.sigma[e.id]
        if e.is_loop:
            out[e.ends[0]] += w
            continue
        tail, head = orient[e.id]
        out[head] += s
        out[tail] += w - s
    return Divisor(out)


# -- hat-graph correspondence ---------------------------------------------


def hat_tree_to_pair(g, hat, hatT) -> SubweightedTree:
    """Spanning tree of the expanded graph -> sub-weighted tree of g."""
    hat_g = hat.graph
    hatT = set(hatT)
    if not is_maximal_forest(hat_g, tuple(hatT)):
        raise PreconditionError("hatT must be a maximal forest of the hat graph")
    orient = tour_forest(hat_g, hatT).direction
    copies = {}
    for cid, (eid, _i) in hat.copy_of.items():
        copies.setdefault(eid, []).append(cid)
    tree_edges = set()
    sigma = {}
    for e in g.edges:
        cs = copies[e.id]
        in_tree = [c for c in cs if c in hatT]
        if in_tree:
            tree_edges.add(e.id)
            ref = orient[in_tree[0]]
            sigma[e.id] = sum(1 for c in cs if orient[c] == ref)
        else:
            sigma[e.id] = g.edge_weight[e.id]
            if not e.is_loop:
                dirs = {orient[c] for c in cs}
                # the correspondence presumes parallel non-tree copies agree
                if len(dirs) != 1:
                    raise AssertionError(
                        f"copies of non-tree edge {e.id!r} received mixed "
                        f"directions {sorted(dirs)}; correspondence assumption violated")
    forest = _forest_in_edge_order(g, tree_edges)
    roots, starts = default_roots(g)
    return SubweightedTree(forest, sigma, roots, starts)


def hat_reference_shift(g) -> Divisor:
    """The constant shift between hat orientation divisors and tree divisors."""
    return Divisor({v: g.vertex_weight[v] - 1 for v in g.vertices})


# -- reduction and torsor action ------------------------------------------


class BernardiReducer:
    """Precomputed table mapping every chip-firing class of per-component
    degree genus-1 to its unique sub-weighted forest representative."""

    def __init__(self, g, roots=None, starts=None):
        if roots is None or starts is None:
            droots, dstarts = default_roots(g)
            roots = droots if roots is None else tuple(roots)
            starts = dstarts if starts is None else dict(starts)
        self.g = g
        self.roots = tuple(roots)
        self.starts = {q: (_halfedge_at(g, h, q) if isinstance(h, str) else h)
                       for q, h in dict(starts).items()}
        self.system = LaplacianSystem(g)
        self.table = {}
        for forest in enumerate_forests(g):
            for ts in enumerate_subweightings(g, forest, roots=self.roots,
                                              starts=self.starts):
                key = self.system.class_key(tree_divisor(g, ts))
                if key in self.table:
                    raise AssertionError(
                        "two sub-weighted forests landed in one class; "
                        "completeness is violated")
                self.table[key] = ts

    def reduce(self, D: Divisor):
        g = self.g
        gtotal = weighted_genus(g)
        if len(g.components()) == 1 and degree(D) != gtotal - 1:
            raise PreconditionError(
                f"reduce needs degree {gtotal - 1}, got {degree(D)}")
        key = self.system.class_key(D)
        ts = self.table.get(key)
        if ts is None:
            raise PreconditionError(
                "no representative: per-component degrees must equal genus - 1")
        cert = self.system.solve_potential(D - tree_divisor(g, ts))
        if cert is None:
            raise AssertionError(
                "reduction found a representative with no chip-firing "
                "certificate")
        from .divisors import EquivalenceCertificate
        return ts, EquivalenceCertificate(potential=cert)


def reduce(g, D, q=None, e0=None):
    """Unique sub-weighted tree equivalent to D, plus the chip-firing certificate."""
    roots = None
    starts = None
    if q is not None:
        droots, dstarts = default_roots(g)
        comps = g.components()
        roots = tuple(q if q in comp else droots[i]
                      for i, comp in enumerate(comps))
        starts = {r: dstarts[r] for r in roots if r in dstarts}
        if e0 is not None:
            starts[q] = e0
        elif g.ribbon[q]:
            starts[q] = g.ribbon[q][0]
    return BernardiReducer(g, roots, starts).reduce(D)


def torsor_act(g, D0, ts: SubweightedTree, reducer=None) -> SubweightedTree:
    """Translate the sub-weighted tree ts by the degree-0 class of D0."""
    if degree(D0) != 0:
        raise PreconditionError("torsor action needs a degree-0 divisor")
    if reducer is None:
        reducer = BernardiReducer(g, ts.roots, ts.starts)
    out, _cert = reducer.reduce(D0 + tree_divisor(g, ts))
    return out
