"""Exhaustive desk-scale test family: every pleasant connected multigraph
up to isomorphism with bounded vertices, edges, and weights.

Loops and parallel edges are included.  One canonically labeled
representative per isomorphism class is emitted; every quantity the
test-suite checks is an isomorphism invariant, so sweeping the
representatives covers the whole family.
"""

from __future__ import annotations

import itertools

from .graphs import WeightedMultigraph, _find


def _connected(n, pairs):
    parent = list(range(n))
    for a, b in pairs:
        parent[_find(parent, a)] = _find(parent, b)
    return len({_find(parent, v) for v in range(n)}) == 1


def _signature(n, vweights, weighted_pairs, perm):
    vw = tuple(vweights[perm.index(i)] for i in range(n))
    edges = tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b]), w)
                         for (a, b), w in weighted_pairs))
    return (vw, edges)


def _edge_weight_options(max_weight, wa, wb):
    return [w for w in range(1, max_weight + 1) if w % wa == 0 and w % wb == 0]


def _unweighted_classes(n, max_edges):
    """Canonical connected multigraphs on n vertices with their automorphisms."""
    perms = list(itertools.permutations(range(n)))
    pair_types = [(a, b) for a in range(n) for b in range(a, n)]
    for m in range(max(n - 1, 0), max_edges + 1):
        seen = set()
        for pairs in itertools.combinations_with_replacement(pair_types, m):
            if not _connected(n, pairs):
                continue
            key = tuple(sorted(pairs))
            images = {p: tuple(sorted((min(p[a], p[b]), max(p[a], p[b]))
                                      for a, b in pairs)) for p in perms}
            canon = min(images.values())
            if canon != key or canon in seen:
                continue
            seen.add(canon)
            aut = [p for p in perms if images[p] == key]
            yield pairs, aut


def pleasant_family(max_vertices=4, max_edges=5, max_weight=3):
    """Yield canonical representatives of all pleasant connected multigraphs
    within the bounds, in a deterministic order."""
    for n in range(1, max_vertices + 1):
        for pairs, aut in _unweighted_classes(n, max_edges):
            seen = set()
            for vweights in itertools.product(range(1, max_weight + 1),
                                              repeat=n):
                options = [_edge_weight_options(max_weight,
                                                vweights[a], vweights[b])
                           for a, b in pairs]
                if any(not o for o in options):
                    continue
                for eweights in itertools.product(*options):
                    weighted_pairs = list(zip(pairs, eweights))
                    sig = min(_signature(n, vweights, weighted_pairs, list(p))
                              for p in aut)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    yield _build(sig)


def _build(sig):
    vw, edges = sig
    n = len(vw)
    vertices = [f"v{i}" for i in range(n)]
    edge_list = [(f"e{k}", (f"v{a}", f"v{b}")) for k, (a, b, _w) in enumerate(edges)]
    return WeightedMultigraph.build(
        vertices, edge_list,
        vertex_weight={f"v{i}": w for i, w in enumerate(vw)},
        edge_weight={f"e{k}": w for k, (_a, _b, w) in enumerate(edges)})
