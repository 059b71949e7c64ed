"""Weighted multigraphs with ribbon structure, plus the graph rewrites.

A graph is a frozen value: vertices and edges keep their declaration
order, weights are positive ints, and each vertex carries a cyclic
ordering of its incident half-edges.  A half-edge is a pair
(edge_id, side) with side 0 at ends[0] and side 1 at ends[1]; a loop
contributes both sides to its vertex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

from .errors import GraphInputError, PreconditionError

HalfEdge = tuple[str, int]


def is_int(x):
    """An int that is not a bool (JSON's true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _positive_weight(what, x, w):
    """w, the weight at x, if it is a positive int; the one check of a weight."""
    if not is_int(w) or w < 1:
        raise GraphInputError(f"{what} weight at {x!r} must be a positive integer")
    return w


def _json_key(x):
    """The id x as JSON writes it as an object key: a number, true, false or
    null becomes the string of its JSON text."""
    return json.dumps(x) if x is None or isinstance(x, (int, float)) else x


def _distinct_json_keys(what, ids):
    """The table JSON key text (`_json_key`) -> id of the ids; raises
    GraphInputError if two ids are written as the same JSON object key, such
    as 1 and "1"."""
    seen = {}
    for x in ids:
        key = _json_key(x)
        if key in seen:
            raise GraphInputError(f"{what} ids {seen[key]!r} and {x!r} are the "
                                  "same key in JSON output")
        seen[key] = x
    return seen


def _check_weights(what, weights, known):
    """Raises GraphInputError at the first item of weights, in order, whose
    id is not among the first `known` (the ids of the graph, which a dict
    update keeps in front) or whose weight is not a positive int."""
    for k, (x, w) in enumerate(weights.items()):
        if k >= known:
            raise GraphInputError(f"weight given for unknown {what} {x!r}")
        if w.__class__ is not int or w < 1:  # the full check, off the common case
            _positive_weight(what, x, w)


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]

    @property
    def is_loop(self):
        return self.ends[0] == self.ends[1]

    def other_end(self, v):
        a, b = self.ends
        if v == a:
            return b
        if v == b:
            return a
        raise ValueError(f"vertex {v!r} is not an endpoint of edge {self.id!r}")


@dataclass(frozen=True)
class WeightedMultigraph:
    """`build` validates; the plain constructor trusts its caller.

    The fields are the vertex ids, vertex id -> weight, the `Edge`s, edge
    id -> weight, and vertex id -> its tuple of half-edges in cyclic order,
    as `build` would make them.  Graphs from outside the program go
    through `build`; the family generator and the rewrites below, whose
    parts are valid by construction, call the constructor itself.
    """
    vertices: tuple[str, ...]
    vertex_weight: dict
    edges: tuple[Edge, ...]
    edge_weight: dict
    ribbon: dict

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, vertices, edges, vertex_weight=None, edge_weight=None,
              ribbon=None):
        """Assemble and structurally check a graph.

        `edges` is a sequence of (edge_id, (u, v)).  Missing weights
        default to 1; a missing ribbon defaults to declaration order with
        a loop's two half-edges adjacent.

        The first failing check raises, in this order: duplicate vertex
        ids; per edge, a repeated id, a count of ends other than two, an
        unknown end; per vertex, then per edge weight, an unknown id or a
        weight that is not a positive int; two vertex ids, then two edge
        ids, with one JSON key text; a ribbon that does not list every
        vertex; the first vertex whose ribbon is not exactly its incident
        half-edges.  The graph keeps the tables the checks build.
        """
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphInputError("duplicate vertex ids")
        edge_by_id, edge_ends = {}, {}
        for eid, ends in edges:
            if eid in edge_by_id:
                raise GraphInputError(f"duplicate edge id {eid!r}")
            if len(ends) != 2:
                raise GraphInputError(f"edge {eid!r} must have exactly two ends")
            u, v = ends
            try:
                edge_ends[eid] = index[u], index[v]
            except (KeyError, TypeError):  # TypeError: an unhashable end
                raise GraphInputError(f"edge {eid!r} has unknown endpoint") from None
            edge_by_id[eid] = Edge(eid, (u, v))

        vw = dict.fromkeys(vertices, 1)
        if vertex_weight:
            vw.update(vertex_weight)
        _check_weights("vertex", vw, len(vertices))
        ew = dict.fromkeys(edge_by_id, 1)
        if edge_weight:
            ew.update(edge_weight)
        _check_weights("edge", ew, len(edge_by_id))
        vertex_by_key = _distinct_json_keys("vertex", vertices)
        edge_by_key = _distinct_json_keys("edge", edge_by_id)

        if ribbon is None:
            ribbon = cls._default_ribbon(vertices, edge_by_id.values())
        else:
            ribbon = {v: tuple(hs) for v, hs in ribbon.items()}
            cls._check_ribbon(vertices, edge_ends, ribbon)
        g = cls(vertices, vw, tuple(edge_by_id.values()), ew, ribbon)
        g.__dict__.update(vertex_index=index, edge_by_id=edge_by_id,
                          edge_ends=edge_ends, vertex_by_key=vertex_by_key,
                          edge_by_key=edge_by_key)
        return g

    @staticmethod
    def _default_ribbon(vertices, edges):
        ribbon = {v: [] for v in vertices}
        for e in edges:
            if e.is_loop:
                ribbon[e.ends[0]].extend([(e.id, 0), (e.id, 1)])
            else:
                ribbon[e.ends[0]].append((e.id, 0))
                ribbon[e.ends[1]].append((e.id, 1))
        return {v: tuple(hs) for v, hs in ribbon.items()}

    @staticmethod
    def _check_ribbon(vertices, edge_ends, ribbon):
        """Raises GraphInputError unless the ribbon lists every vertex, each
        with exactly its incident half-edges; edge_ends is edge id -> the
        indices of its two ends."""
        if len(ribbon) != len(vertices) or not all(v in ribbon for v in vertices):
            raise GraphInputError("ribbon must list every vertex exactly once")
        unseen = {}  # half-edge not yet met in the walk -> its vertex's index
        degree = [0] * len(vertices)
        for eid, (i, j) in edge_ends.items():
            unseen[eid, 0] = i
            unseen[eid, 1] = j
            degree[i] += 1
            degree[j] += 1
        for i, v in enumerate(vertices):
            hs = ribbon[v]
            # a repeat finds its half-edge gone
            if len(hs) != degree[i] or any(unseen.pop(h, None) != i for h in hs):
                raise GraphInputError(
                    f"ribbon at {v!r} must contain exactly the incident half-edges")

    # -- derived tables ---------------------------------------------------
    # Each table is built on first use and kept in the instance __dict__,
    # which cached_property writes directly, so the frozen dataclass allows
    # it; `build` puts there the five that its checks make on the way.  No
    # caller mutates a graph's fields, so no table goes stale;
    # `forget_tables` drops them all.

    @cached_property
    def vertex_index(self):
        """Vertex -> its position in declaration order."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_by_id(self):
        return {e.id: e for e in self.edges}

    @cached_property
    def vertex_by_key(self):
        """JSON key text (`_json_key`) -> vertex id."""
        return {_json_key(v): v for v in self.vertices}

    @cached_property
    def edge_by_key(self):
        """JSON key text (`_json_key`) -> edge id."""
        return {_json_key(e.id): e.id for e in self.edges}

    @cached_property
    def edge_ends(self):
        """Edge id -> the vertex indices of its two ends."""
        at = self.vertex_index
        return {e.id: (at[e.ends[0]], at[e.ends[1]]) for e in self.edges}

    @cached_property
    def _components(self):
        parent = list(range(self.n))
        for i, j in self.edge_ends.values():
            parent[_find(parent, i)] = _find(parent, j)
        groups = {}
        for i, v in enumerate(self.vertices):
            groups.setdefault(_find(parent, i), []).append(v)
        return [tuple(c) for c in groups.values()]

    @cached_property
    def half_edges(self):
        """The ribbon as arrays over half-edges, numbered vertex by vertex in
        ribbon order: half-edge -> number, and per number its vertex, the
        next half-edge around that vertex, the other half-edge of its edge,
        its edge id, and the vertex at that other half-edge."""
        halves = [h for v in self.vertices for h in self.ribbon[v]]
        index = {h: k for k, h in enumerate(halves)}
        vertex, successor = [], []
        for v in self.vertices:
            first, m = len(vertex), len(self.ribbon[v])
            vertex += [v] * m
            successor += [first + (k + 1) % m for k in range(m)]
        return (index, vertex, successor,
                [index[(eid, 1 - side)] for eid, side in halves],
                [eid for eid, _ in halves],
                [self.edge_by_id[eid].ends[1 - side] for eid, side in halves])

    # -- basic accessors --------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    def vindex(self, v):
        try:
            return self.vertex_index[v]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise GraphInputError(f"unknown vertex {v!r}") from None

    def edge(self, eid):
        try:
            return self.edge_by_id[eid]
        except KeyError:
            raise GraphInputError(f"unknown edge {eid!r}") from None

    def components(self):
        """Connected components as tuples of vertices, in declaration order:
        ordered by their first vertex."""
        return self._components

    def is_connected(self):
        return len(self.components()) <= 1

    def laplacian_matrix(self):
        """Weighted Laplacian as an n x n integer matrix; loops contribute 0."""
        L = [[0] * self.n for _ in range(self.n)]
        for eid, (i, j) in self.edge_ends.items():
            if i == j:
                continue
            w = self.edge_weight[eid]
            L[i][i] += w
            L[j][j] += w
            L[i][j] -= w
            L[j][i] -= w
        return L


def forget_tables(g):
    """Drop every derived table cached on g; each rebuilds on its next use.
    g gets a new instance dict of its fields alone, since a dict keeps the
    size it grew to when keys are popped from it."""
    object.__setattr__(g, "__dict__",
                       {f.name: getattr(g, f.name) for f in fields(g)})


@dataclass(frozen=True)
class ValidationReport:
    pleasant: bool
    connected: bool
    issues: tuple[str, ...]


def validate(g: WeightedMultigraph) -> ValidationReport:
    """Check pleasantness (vertex weights divide incident edge weights)."""
    issues = []
    for e in g.edges:
        for v in dict.fromkeys(e.ends):
            if g.edge_weight[e.id] % g.vertex_weight[v]:
                issues.append(
                    f"edge {e.id!r} has weight {g.edge_weight[e.id]}, "
                    f"not divisible by weight {g.vertex_weight[v]} of vertex {v!r}")
    return ValidationReport(pleasant=not issues, connected=g.is_connected(),
                            issues=tuple(issues))


def is_pleasant(g):
    return validate(g).pleasant


def weighted_genus(g: WeightedMultigraph) -> int:
    return sum(g.edge_weight.values()) - sum(g.vertex_weight.values()) + 1


def component_genera(g):
    return [sum(g.edge_weight[e.id] for e in g.edges if e.ends[0] in c)
            - sum(g.vertex_weight[v] for v in c) + 1
            for c in map(set, g.components())]


def vertex_gcd(g):
    return math.gcd(*g.vertex_weight.values()) if g.vertices else 0


# -- edge replacement ---------------------------------------------------


def _replace_edges(g, pieces, vertices, vertex_weight):
    """g with each edge named in `pieces` replaced by its pieces.

    `pieces` maps an edge id to a list of (new id, ends, weight).  The
    pieces take the edge's place in the edge order, and a piece's ends
    stand in for the edge's own ends, in order.  In the ribbons, each old
    half-edge (id, side) becomes the half-edge (new id, side) of each
    piece, in piece order, at that piece's end `side`: a kept endpoint
    gets the pieces one after another at the old half-edge, and the copies
    of a split vertex get theirs in the order of its old ribbon.

    The caller vouches for the pieces: fresh ids (`_fresh_ids`), ends
    among `vertices`, positive int weights, and a vertex weight for every
    vertex.  The rest is valid because g is.
    """
    edges, ew = [], {}
    for e in g.edges:
        if e.id in pieces:
            for nid, ends, w in pieces[e.id]:
                edges.append(Edge(nid, ends))
                ew[nid] = w
        else:
            edges.append(e)
            ew[e.id] = g.edge_weight[e.id]
    ribbon = {v: [] for v in vertices}
    for v in g.vertices:
        for eid, side in g.ribbon[v]:
            if eid in pieces:
                for nid, ends, _ in pieces[eid]:
                    ribbon[ends[side]].append((nid, side))
            else:
                ribbon[v].append((eid, side))
    return WeightedMultigraph(tuple(vertices), vertex_weight, tuple(edges), ew,
                              {v: tuple(hs) for v, hs in ribbon.items()})


# -- hat graph ------------------------------------------------------------


@dataclass(frozen=True)
class HatGraph:
    graph: WeightedMultigraph
    copy_of: dict  # hat edge id -> (original edge id, copy index 1..w)


def expand_hat(g: WeightedMultigraph) -> HatGraph:
    """Replace each edge by edge-weight many parallel unweighted copies.

    Copies are inserted consecutively, in copy-index order, at the edge's
    former position in both endpoint ribbons.
    """
    copy_of = {}
    pieces = {}
    taken = _keys(e.id for e in g.edges)
    for e in g.edges:
        w = g.edge_weight[e.id]
        ids = [e.id] if w == 1 else _fresh_ids(
            taken, [f"{_json_key(e.id)}#{i}" for i in range(1, w + 1)])
        if w > 1:  # a weight-1 edge stays as it is
            pieces[e.id] = [(cid, e.ends, 1) for cid in ids]
        copy_of.update((cid, (e.id, i)) for i, cid in enumerate(ids, start=1))
    return HatGraph(graph=_replace_edges(g, pieces, g.vertices,
                                         dict.fromkeys(g.vertices, 1)),
                    copy_of=copy_of)


# -- rewrites -------------------------------------------------------------


def _keys(ids):
    """The set of the ids' JSON key texts (`_json_key`)."""
    return {_json_key(x) for x in ids}


def _fresh_ids(taken, stems):
    """A fresh id per stem: the stem, or else the stem followed by the
    least k >= 2 that is not taken.  `taken` is a set of JSON key texts
    (`_keys`); each new id is added to it in turn, so the ids are distinct
    keys in JSON output.  Stems are built from an old id's key text, so a
    rewrite of vertex `true` names its leaf `true_leaf`."""
    ids = []
    for stem in stems:
        nid, k = stem, 2
        while nid in taken:
            nid, k = f"{stem}{k}", k + 1
        taken.add(nid)
        ids.append(nid)
    return ids


def add_leaf(g, v, leaf_weight=1, edge_weight=1):
    """Attach a new degree-1 vertex at v; weights must keep the graph pleasant."""
    g.vindex(v)  # rejects an unknown vertex
    [leaf] = _fresh_ids(_keys(g.vertices), [f"{_json_key(v)}_leaf"])
    [eid] = _fresh_ids(_keys(e.id for e in g.edges), [f"{_json_key(v)}_stem"])
    _positive_weight("vertex", leaf, leaf_weight)
    _positive_weight("edge", eid, edge_weight)
    if edge_weight % leaf_weight or edge_weight % g.vertex_weight[v]:
        raise PreconditionError(
            "leaf edge weight must be divisible by both endpoint weights")
    vw = dict(g.vertex_weight)
    vw[leaf] = leaf_weight
    ew = dict(g.edge_weight)
    ew[eid] = edge_weight
    ribbon = dict(g.ribbon)
    ribbon[v] = g.ribbon[v] + ((eid, 0),)
    ribbon[leaf] = ((eid, 1),)
    return WeightedMultigraph(g.vertices + (leaf,), vw,
                              g.edges + (Edge(eid, (v, leaf)),), ew, ribbon)


def split_edge(g, eid, parts):
    """Replace edge `eid` by parallel parts: GraphInputError on a part that is
    not a positive int, PreconditionError if the parts do not fit the edge."""
    e = g.edge(eid)
    parts = [_positive_weight("part", eid, p) for p in parts]
    if sum(parts) != g.edge_weight[eid]:
        raise PreconditionError("parts must sum to the weight of the split edge")
    for p in parts:
        for v in dict.fromkeys(e.ends):
            if p % g.vertex_weight[v]:
                raise PreconditionError(
                    f"part weight {p} is not divisible by the weight of {v!r}")
    if len(parts) == 1:
        return g
    ids = _fresh_ids(_keys(x.id for x in g.edges),
                     [f"{_json_key(eid)}.{k}" for k in range(1, len(parts) + 1)])
    pieces = {eid: [(nid, e.ends, p) for nid, p in zip(ids, parts)]}
    return _replace_edges(g, pieces, g.vertices, dict(g.vertex_weight))


def shrink_vertex_weight(g, v, new_weight):
    """Lower the weight at v: GraphInputError on a weight that is not a
    positive int, PreconditionError on one that does not divide the old."""
    g.vindex(v)  # rejects an unknown vertex
    _positive_weight("vertex", v, new_weight)
    if g.vertex_weight[v] % new_weight:
        raise PreconditionError("new weight must be a positive divisor of the old one")
    vw = dict(g.vertex_weight)
    vw[v] = new_weight
    return WeightedMultigraph(g.vertices, vw, g.edges, dict(g.edge_weight),
                              dict(g.ribbon))


MALFORMED_PLAN = ('malformed split plan: "parts" must map edge ids to lists '
                  "of [copy, weight], with a pair of copies for a loop")


def split_vertex(g, v, r, plan):
    """Split v into r copies of weight w(v)/r, redistributing its edges.

    `plan` maps each edge at v to a list of (copy_index, weight) parts,
    and each loop at v to a list of ((copy_index, copy_index), weight)
    parts.  Copy indices are ints in 0..r-1, and an edge's part weights
    sum to its weight.  This data comes from the caller; the graph alone
    does not determine it.  Returns the new graph and the map from every
    old vertex to the tuple of its copies.  With r = 1 the copy keeps v's
    id, and a plan with one part per edge gives a graph equal to g.
    Raises GraphInputError on a part of any other shape or a part weight
    that is not a positive int, and PreconditionError on the rest."""
    if not all(isinstance(parts, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2
            and (not isinstance(p[0], (list, tuple)) or len(p[0]) == 2)
            for p in parts) for parts in plan.values()):
        raise GraphInputError(MALFORMED_PLAN)
    for eid, parts in plan.items():
        for _, w in parts:
            _positive_weight("part", eid, w)
    g.vindex(v)  # rejects an unknown vertex
    if not is_int(r) or r < 1 or g.vertex_weight[v] % r:
        raise PreconditionError("number of copies must divide the vertex weight")
    copies = {u: (u,) for u in g.vertices}
    incident = [e for e in g.edges if v in e.ends]
    if set(plan) != {e.id for e in incident}:
        raise PreconditionError("plan must cover exactly the edges at the split vertex")
    # a single copy keeps the vertex's id
    names = [v] if r == 1 else _fresh_ids(
        _keys(g.vertices), [f"{_json_key(v)}_{j}" for j in range(1, r + 1)])

    def copy(c):
        if not is_int(c) or not 0 <= c < r:
            raise PreconditionError("plan copy index out of range")
        return names[c]

    taken = _keys(e.id for e in g.edges)
    pieces = {}
    for e in incident:
        parts = list(plan[e.id])
        if sum(w for _, w in parts) != g.edge_weight[e.id]:
            raise PreconditionError(
                f"plan parts for edge {e.id!r} must sum to its weight")
        ids = [e.id] if len(parts) == 1 else _fresh_ids(
            taken, [f"{_json_key(e.id)}.{k}" for k in range(1, len(parts) + 1)])
        pieces[e.id] = []
        for nid, (c, w) in zip(ids, parts):
            if not e.is_loop:
                ends = tuple(copy(c) if x == v else x for x in e.ends)
            elif isinstance(c, (tuple, list)):  # a pair, checked above
                ends = (copy(c[0]), copy(c[1]))
            else:
                raise PreconditionError(
                    f"plan parts for loop {e.id!r} need a pair of copy indices")
            pieces[e.id].append((nid, ends, w))

    copies[v] = tuple(names)
    out = _replace_edges(
        g, pieces, [x for u in g.vertices for x in copies[u]],
        {x: g.vertex_weight[u] // len(copies[u])
         for u in g.vertices for x in copies[u]})
    if not is_pleasant(out):
        # checked only now, since a split can make a graph pleasant
        issues = validate(g).issues
        raise PreconditionError(f"the graph is not pleasant: {issues[0]}"
                                if issues else "split plan breaks pleasantness")
    return out, copies
