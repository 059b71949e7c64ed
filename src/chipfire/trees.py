"""Spanning tree and maximal spanning forest enumeration.

Backtracking over edges in declaration order with union-find, so the
emitted order is the lexicographic order on edge-index subsets.  Loops
are never part of a tree.
"""

from __future__ import annotations

from .errors import PreconditionError
from .graphs import _find


def enumerate_forests(g):
    """All maximal spanning forests as tuples of edge ids."""
    target = g.n - len(g.components())
    candidates = [(eid, a, b) for eid, (a, b) in g.edge_ends.items() if a != b]
    out = []
    chosen = []

    def rec(start, parent, count):
        if count == target:
            out.append(tuple(chosen))
            return
        for k in range(start, len(candidates)):
            eid, a, b = candidates[k]
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            child = parent[:]
            child[ra] = rb
            chosen.append(eid)
            rec(k + 1, child, count + 1)
            chosen.pop()

    rec(0, list(range(g.n)), 0)
    return out


def enumerate_trees(g):
    """All spanning trees of a connected graph, as tuples of edge ids."""
    if not g.is_connected():
        raise PreconditionError("spanning trees require a connected graph")
    return enumerate_forests(g)


def is_maximal_forest(g, edge_ids):
    """Whether the ids name distinct edges of g that form a maximal spanning
    forest.  Raises TypeError on an unhashable id."""
    ends_of = g.edge_ends
    ids = list(edge_ids)
    if len(set(ids)) != len(ids) or len(ids) != g.n - len(g.components()):
        return False
    parent = list(range(g.n))
    for eid in ids:
        ends = ends_of.get(eid)
        if ends is None:
            return False
        ra, rb = _find(parent, ends[0]), _find(parent, ends[1])
        if ra == rb:  # a loop or a cycle
            return False
        parent[ra] = rb
    return True
