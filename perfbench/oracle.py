"""Exact reference computations that the benchmark checks answers against.

Nothing here imports chipfire: every answer the program gives is compared
with a value computed from the graph's JSON object by independent code, so
no chipfire function ever checks itself.  Graph objects use the
`chipfire` file format (vertices, edges, optional ribbon).
"""

from __future__ import annotations

import math
from fractions import Fraction


class Graph:
    """Read-only view of a graph object in the chipfire file format."""

    def __init__(self, obj):
        self.vertices = [v["id"] for v in obj["vertices"]]
        self.vw = {v["id"]: v.get("weight", 1) for v in obj["vertices"]}
        self.edges = [(e["id"], e["ends"][0], e["ends"][1], e.get("weight", 1))
                      for e in obj["edges"]]
        self.ends = {eid: (u, v) for eid, u, v, _ in self.edges}
        self.ew = {eid: w for eid, _, _, w in self.edges}
        self.index = {v: i for i, v in enumerate(self.vertices)}
        ribbon = obj.get("ribbon")
        if ribbon:
            self.ribbon = {v: [self.half_edge(tok, v) for tok in ribbon[v]]
                           for v in self.vertices}
        else:
            self.ribbon = {v: [] for v in self.vertices}
            for eid, u, v, _ in self.edges:
                self.ribbon[u].append((eid, 0))
                self.ribbon[v].append((eid, 1))

    @property
    def n(self):
        return len(self.vertices)

    def half_edge(self, token, at):
        """Parse a ribbon or start token ("e" or "e:side") at vertex `at`."""
        if ":" in token:
            eid, side = token.rsplit(":", 1)
            if eid in self.ends and side in ("0", "1"):
                return (eid, int(side))
        u, v = self.ends[token]
        if u == v:
            raise ValueError(f"loop {token!r} needs an explicit side")
        if at == u:
            return (token, 0)
        if at == v:
            return (token, 1)
        raise ValueError(f"edge {token!r} is not at {at!r}")

    def vector(self, coefficients):
        return [coefficients.get(v, 0) for v in self.vertices]


# -- integer and rational linear algebra ------------------------------------


def laplacian(g):
    """Weighted Laplacian matrix; loops contribute nothing."""
    L = [[0] * g.n for _ in range(g.n)]
    for _eid, u, v, w in g.edges:
        if u == v:
            continue
        i, j = g.index[u], g.index[v]
        L[i][i] += w
        L[j][j] += w
        L[i][j] -= w
        L[j][i] -= w
    return L


def bareiss_det(M):
    """Exact determinant by fraction-free elimination with row pivoting."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(row) for row in M]
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        akk = A[k][k]
        for i in range(k + 1, n):
            aik = A[i][k]
            row_i, row_k = A[i], A[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * A[n - 1][n - 1]


def reduced(L):
    """Delete the first row and column."""
    return [row[1:] for row in L[1:]]


def fraction_solve(A, b):
    """The unique rational x with A x = b, or None when A is singular."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(A, b)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        inv = 1 / M[k][k]
        M[k] = [x * inv for x in M[k]]
        for i in range(n):
            if i != k and M[i][k]:
                f = M[i][k]
                M[i] = [a - f * c for a, c in zip(M[i], M[k])]
    return [M[i][n] for i in range(n)]


def apply_laplacian(g, potential):
    """Laplacian of a potential given as a vertex -> int mapping."""
    L = laplacian(g)
    f = g.vector(potential)
    return [sum(a * x for a, x in zip(row, f)) for row in L]


def is_principal(g, vec):
    """A degree-0 divisor on a connected graph is principal exactly when the
    reduced Laplacian solve of its last n-1 coefficients is integral."""
    if sum(vec) != 0:
        return False
    if g.n == 1:
        return True
    x = fraction_solve(reduced(laplacian(g)), vec[1:])
    return x is not None and all(xi.denominator == 1 for xi in x)


# -- counts and group checks -------------------------------------------------


def pic0_order(g):
    """|Pic0| of a connected graph: the reduced-Laplacian determinant."""
    return bareiss_det(reduced(laplacian(g)))


def picb0_order(g):
    """|Picb0| = |Pic0| * gcd(w) / prod(w) on a pleasant connected graph."""
    weights = [g.vw[v] for v in g.vertices]
    num = pic0_order(g) * math.gcd(*weights)
    den = math.prod(weights)
    if num % den:
        raise ValueError("balanced order is not integral; graph is not pleasant")
    return num // den


def is_divisibility_chain(factors):
    return (all(isinstance(d, int) and d >= 2 for d in factors)
            and all(b % a == 0 for a, b in zip(factors, factors[1:])))


def group_ok(obj, order):
    """A group answer {"invariant_factors", "order"} of the given order."""
    facs = obj["invariant_factors"]
    return (is_divisibility_chain(facs) and math.prod(facs) == order
            and obj["order"] == order)


def is_pleasant(g):
    return all(w % g.vw[u] == 0 and w % g.vw[v] == 0
               for _eid, u, v, w in g.edges)


def genus(g):
    return sum(g.ew.values()) - sum(g.vw.values()) + 1


# -- spanning trees, tours and tree divisors --------------------------------


def is_spanning_tree(g, forest):
    """Connected graphs only: n-1 distinct non-loop edges without a cycle."""
    if len(forest) != g.n - 1 or len(set(forest)) != len(forest):
        return False
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in forest:
        if eid not in g.ends:
            return False
        a, b = find(g.ends[eid][0]), find(g.ends[eid][1])
        if a == b:
            return False
        parent[a] = b
    return True


def sigma_ok(g, forest, sigma):
    """sigma is w off the forest and in [1, w] on it, on every edge."""
    if set(sigma) != set(g.ew):
        return False
    fset = set(forest)
    return all(isinstance(s, int) and (1 <= s <= g.ew[e] if e in fset
                                       else s == g.ew[e])
               for e, s in sigma.items())


def tour_orientation(g, forest, root, start):
    """Edge id -> (tail, head) from touring the spanning tree `forest`.

    The walk crosses tree edges (tail at the vertex it leaves) and continues
    after the partner half-edge; at any other edge it orients the edge
    toward the current vertex and moves on around the same vertex.  It stops
    when the start half-edge comes round again.
    """
    tree = set(forest)
    nxt = {}
    for v in g.vertices:
        ring = g.ribbon[v]
        for k, h in enumerate(ring):
            nxt[h] = ring[(k + 1) % len(ring)]
    orient = {}
    cur = start
    if cur[0] not in g.ends or g.ends[cur[0]][cur[1]] != root:
        raise ValueError("start half-edge is not at the root")
    for _ in range(len(nxt) + 1):
        eid, side = cur
        here, there = g.ends[eid][side], g.ends[eid][1 - side]
        if eid in tree:
            orient.setdefault(eid, (here, there))
            cur = nxt[(eid, 1 - side)]
        else:
            orient.setdefault(eid, (there, here))
            cur = nxt[cur]
        if cur == start:
            return orient
    raise ValueError("tour did not close")


def default_start(g):
    root = g.vertices[0]
    return root, (g.ribbon[root][0] if g.ribbon[root] else None)


def tree_divisor(g, forest, sigma, root=None, start=None):
    """D_{T,sigma} as a coefficient vector in vertex order."""
    if root is None:
        root, start = default_start(g)
    out = {v: -g.vw[v] for v in g.vertices}
    orient = tour_orientation(g, forest, root, start) if start else {}
    for eid, u, v, w in g.edges:
        if u == v:
            out[u] += w
            continue
        tail, head = orient[eid]
        out[head] += sigma[eid]
        out[tail] += w - sigma[eid]
    return g.vector(out)


def tree_obj_divisor(g, tree_obj):
    """D_{T,sigma} of a tree object as written by `chipfire` (root/start
    optional), after checking that it is a valid sub-weighted tree."""
    forest, sigma = tree_obj["tree"], tree_obj["sigma"]
    if not (is_spanning_tree(g, forest) and sigma_ok(g, forest, sigma)):
        return None
    if "root" in tree_obj:
        root = tree_obj["root"]
        if "start" in tree_obj:
            start = g.half_edge(tree_obj["start"], root)
        else:
            start = g.ribbon[root][0] if g.ribbon[root] else None
        return tree_divisor(g, forest, sigma, root, start)
    return tree_divisor(g, forest, sigma)
