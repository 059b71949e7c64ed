"""Exhaustive desk-scale test family: every pleasant connected multigraph
up to isomorphism with bounded vertices, edges, and weights.

Loops and parallel edges are included.  One canonically labeled
representative per isomorphism class is emitted; every quantity the
test-suite checks is an isomorphism invariant, so sweeping the
representatives covers the whole family.

The graphs are made with the plain `WeightedMultigraph` constructor: their
ids are the distinct strings `v0`, `v1`, ... and `e0`, `e1`, ..., every
edge joins two of those vertices, the weights are positive ints and the
ribbon is the default one, so `build`'s checks could not fail.
"""

from __future__ import annotations

import itertools

from .graphs import Edge, WeightedMultigraph, _find


def _connected(n, pairs):
    parent = list(range(n))
    for a, b in pairs:
        parent[_find(parent, a)] = _find(parent, b)
    return len({_find(parent, v) for v in range(n)}) == 1


def _edge_weight_options(max_weight, wa, wb):
    return [w for w in range(1, max_weight + 1) if w % wa == 0 and w % wb == 0]


def _unweighted_classes(n, max_edges):
    """Canonical connected multigraphs on n vertices with their automorphisms.

    A class is its sorted list of vertex pairs (a, b), a <= b, the least
    image of the multigraph under the vertex permutations."""
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


def _image_orders(pairs, aut):
    """Per automorphism p, (where, blocks): vertex i of the image takes the
    weight of vertex where[i], and blocks lists, per run of equal pairs in
    `pairs`, the edges that p maps onto that run.

    p maps the class onto itself, so every weighting's image has the same
    sorted pairs and differs from another image only in its weights: a
    weighting's image is fixed by the vertex weights read in `where` order
    and each block's edge weights, sorted."""
    runs = {}
    for k, pair in enumerate(pairs):
        runs.setdefault(pair, []).append(k)
    orders = []
    for p in aut:
        blocks = {pair: [] for pair in runs}
        for k, (a, b) in enumerate(pairs):
            blocks[min(p[a], p[b]), max(p[a], p[b])].append(k)
        where = [0] * len(p)
        for i, pi in enumerate(p):
            where[pi] = i
        orders.append((where, list(blocks.values())))
    return orders


def _least_image(vweights, eweights, orders):
    """The least (vertex weights, edge weights) image of a weighting under
    the automorphisms whose `_image_orders` are `orders`."""
    return min((tuple(vweights[i] for i in where),
                tuple(w for block in blocks
                      for w in sorted(eweights[k] for k in block)))
               for where, blocks in orders)


def pleasant_family(max_vertices=4, max_edges=5, max_weight=3):
    """Yield canonical representatives of all pleasant connected multigraphs
    within the bounds, in a deterministic order."""
    for n in range(1, max_vertices + 1):
        vertices = tuple(f"v{i}" for i in range(n))
        for pairs, aut in _unweighted_classes(n, max_edges):
            orders = _image_orders(pairs, aut)
            edges = tuple(Edge(f"e{k}", (vertices[a], vertices[b]))
                          for k, (a, b) in enumerate(pairs))
            ribbon = WeightedMultigraph._default_ribbon(vertices, edges)
            seen = set()
            for vweights in itertools.product(range(1, max_weight + 1),
                                              repeat=n):
                options = [_edge_weight_options(max_weight,
                                                vweights[a], vweights[b])
                           for a, b in pairs]
                if any(not o for o in options):
                    continue
                for eweights in itertools.product(*options):
                    vw, ew = _least_image(vweights, eweights, orders)
                    if (vw, ew) in seen:
                        continue
                    seen.add((vw, ew))
                    yield WeightedMultigraph(
                        vertices, dict(zip(vertices, vw)), edges,
                        {e.id: w for e, w in zip(edges, ew)}, dict(ribbon))
