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
    return list(iter_forests(g))


def iter_forests(g):
    """The forests of `enumerate_forests`, in its order, one at a time."""
    target = g.n - len(g.components())
    candidates = [(eid, a, b) for eid, (a, b) in g.edge_ends.items() if a != b]
    chosen = []

    def rec(start, parent, count):
        if count == target:
            yield tuple(chosen)
            return
        # stop where too few candidates are left to finish a forest
        for k in range(start, len(candidates) - target + count + 1):
            eid, a, b = candidates[k]
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            child = parent[:]
            child[ra] = rb
            chosen.append(eid)
            yield from rec(k + 1, child, count + 1)
            chosen.pop()

    return rec(0, list(range(g.n)), 0)


def enumerate_trees(g):
    """All spanning trees of a connected graph, as tuples of edge ids."""
    if not g.is_connected():
        raise PreconditionError("spanning trees require a connected graph")
    return enumerate_forests(g)


def is_maximal_forest(g, edge_ids):
    """Whether the ids name distinct edges of g that form a maximal spanning
    forest.  Never raises: an unhashable id, as JSON may hold, names no edge."""
    ends_of = g.edge_ends
    ids = list(edge_ids)
    try:
        if len(set(ids)) != len(ids) or len(ids) != g.n - len(g.components()):
            return False
    except TypeError:  # an unhashable id
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
