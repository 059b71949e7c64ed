"""Seeded generators for the benchmark's inputs, as chipfire file-format
objects.  Every function takes a `random.Random`, so one seed gives one
input set."""

from __future__ import annotations

import math


def _pick_weight(rng, choices):
    """choices: list of (weight, probability); draws one weight."""
    x = rng.random()
    for w, p in choices:
        x -= p
        if x < 0:
            return w
    return choices[-1][0]


def _edge_weights(max_weight, wu, wv):
    unit = math.lcm(wu, wv)
    return list(range(unit, max_weight + 1, unit))


def pleasant_graph(rng, n, extra_edges, max_weight, vertex_weights,
                   loops=0):
    """Random spanning tree plus `extra_edges` random edges, pleasant.

    `vertex_weights` is a list of (weight, probability).  The first vertex
    has weight 1, so every later vertex can attach to some earlier one.
    Edge weights are uniform over the multiples of the endpoint weights'
    lcm up to `max_weight`; pairs with no such weight are redrawn.  Each
    vertex's ribbon is a random cyclic order of its half-edges.
    """
    vw = [1] + [_pick_weight(rng, vertex_weights) for _ in range(n - 1)]
    if any(not _edge_weights(max_weight, w, w) for w in vw):
        raise ValueError("max_weight is below some vertex weight")
    edges = []

    def add(u, v):
        edges.append((u, v, rng.choice(_edge_weights(max_weight, vw[u], vw[v]))))

    for i in range(1, n):
        while True:
            j = rng.randrange(i)
            if _edge_weights(max_weight, vw[i], vw[j]):
                break
        add(i, j)
    while len(edges) < n - 1 + extra_edges and n > 1:
        u, v = rng.sample(range(n), 2)
        if _edge_weights(max_weight, vw[u], vw[v]):
            add(u, v)
    for _ in range(loops):
        u = rng.randrange(n)
        add(u, u)
    order = list(range(n))
    rng.shuffle(order)
    name = {old: f"v{new}" for new, old in enumerate(order)}
    rng.shuffle(edges)
    vertices = [{"id": f"v{i}", "weight": vw[order[i]]} for i in range(n)]
    edge_objs = [{"id": f"e{k}", "ends": [name[u], name[v]], "weight": w}
                 for k, (u, v, w) in enumerate(edges)]
    ribbon = {f"v{i}": [] for i in range(n)}
    for e in edge_objs:
        a, b = e["ends"]
        if a == b:
            ribbon[a] += [f"{e['id']}:0", f"{e['id']}:1"]
        else:
            ribbon[a].append(e["id"])
            ribbon[b].append(e["id"])
    for hs in ribbon.values():
        rng.shuffle(hs)
    return {"vertices": vertices, "edges": edge_objs, "ribbon": ribbon}


def random_divisor(rng, g, degree, spread=3):
    """Coefficient dict of the given total degree (g is an oracle.Graph)."""
    coeffs = {v: rng.randint(-spread, spread) for v in g.vertices}
    coeffs[g.vertices[0]] += degree - sum(coeffs.values())
    return coeffs


def random_potential(rng, g, spread=3):
    return {v: rng.randint(-spread, spread) for v in g.vertices}


def random_spanning_tree(rng, g):
    """Uniformly shuffled Kruskal: a random spanning tree's edge ids, in
    edge declaration order."""
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pool = [e for e in g.edges if e[1] != e[2]]
    rng.shuffle(pool)
    chosen = set()
    for eid, u, v, _w in pool:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            chosen.add(eid)
    return [eid for eid, *_ in g.edges if eid in chosen]


def random_subweighted_tree(rng, g):
    forest = random_spanning_tree(rng, g)
    fset = set(forest)
    sigma = {eid: (rng.randint(1, w) if eid in fset else w)
             for eid, _u, _v, w in g.edges}
    return {"tree": forest, "sigma": sigma}
