"""Stable JSON encodings for graphs, fibers, divisors, trees, and groups.

Declaration order is preserved everywhere so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import json

from .errors import GraphInputError
from .graphs import WeightedMultigraph, _json_key, is_int
from .divisors import Divisor, EquivalenceCertificate
from .bernardi import SubweightedTree
from .picard import AbelianGroupStructure


def _halfedge_to_json(g, h):
    eid, side = h
    return f"{_json_key(eid)}:{side}" if g.edge(eid).is_loop else eid


def halfedge_from_json(edge_by_key, token):
    """The half-edge (edge id, side) or the edge id that a token names,
    edge_by_key being the graph's `edge_by_key`: "<key>:<side>", as loops
    are written, names side 0 or 1 of the edge whose JSON key text
    (`graphs._json_key`) is key; any other token names an edge as
    `graph_id` resolves it."""
    if isinstance(token, str) and ":" in token:
        key, side = token.rsplit(":", 1)
        if key in edge_by_key and side in ("0", "1"):
            return edge_by_key[key], int(side)
    return graph_id(edge_by_key, token)


def _ribbon_halfedge(token, at_vertex, edge_by_key, ends_by_id):
    h = halfedge_from_json(edge_by_key, token)
    if isinstance(h, tuple):
        return h
    try:
        ends = ends_by_id[h]
    except (KeyError, TypeError):  # TypeError: an unhashable token
        raise GraphInputError(f"ribbon mentions unknown edge {token!r}") from None
    if ends[0] == ends[1]:
        key = _json_key(h)
        raise GraphInputError(
            f"loop {h!r} must appear in the ribbon as '{key}:0' and '{key}:1'")
    if at_vertex == ends[0]:
        return (h, 0)
    if at_vertex == ends[1]:
        return (h, 1)
    raise GraphInputError(f"ribbon lists {h!r} at a non-endpoint vertex")


def graph_to_obj(g: WeightedMultigraph):
    return {
        "vertices": [{"id": v, "weight": g.vertex_weight[v]} for v in g.vertices],
        "edges": [{"id": e.id, "ends": list(e.ends), "weight": g.edge_weight[e.id]}
                  for e in g.edges],
        "ribbon": {v: [_halfedge_to_json(g, h) for h in g.ribbon[v]]
                   for v in g.vertices},
    }


def graph_from_obj(obj) -> WeightedMultigraph:
    try:
        vertices = [v["id"] for v in obj["vertices"]]
        vw = {v["id"]: v.get("weight", 1) for v in obj["vertices"]}
        edges = [(e["id"], e["ends"]) for e in obj["edges"]]
        ew = {e["id"]: e.get("weight", 1) for e in obj["edges"]}
    except (KeyError, TypeError) as exc:
        raise GraphInputError(f"malformed graph object: {exc}") from exc
    for eid, ends in edges:
        if not isinstance(ends, list) or len(ends) != 2:
            raise GraphInputError(f"edge {eid!r} needs a list of two ends")
    edges = [(eid, tuple(ends)) for eid, ends in edges]
    ribbon = obj.get("ribbon")
    if ribbon is not None and not (
            isinstance(ribbon, dict)
            and all(isinstance(tokens, list) for tokens in ribbon.values())):
        raise GraphInputError("ribbon must map vertex ids to lists of half-edges")
    if ribbon:
        # the graph's `vertex_by_key` and `edge_by_key`, before it is built
        vertex = {_json_key(v): v for v in vertices}
        edge = {_json_key(eid): eid for eid, _ in edges}
        ends_by_id = dict(edges)
        ribbon = {graph_id(vertex, v): tokens for v, tokens in ribbon.items()}
        ribbon = {v: tuple(_ribbon_halfedge(tok, v, edge, ends_by_id)
                           for tok in tokens)
                  for v, tokens in ribbon.items()}
    return WeightedMultigraph.build(vertices, edges, vw, ew, ribbon)


def divisor_to_obj(D: Divisor):
    return {"coefficients": dict(D.coefficients)}


def graph_id(by_key, text):
    """The graph id that text names, by_key being the graph's
    `vertex_by_key` or `edge_by_key`: the id whose JSON key text it is, so
    "7" names the number 7 and a string id names itself.  Any other value
    comes back as it is, for the caller's check to reject."""
    return by_key.get(text, text) if isinstance(text, str) else text


def divisor_from_obj(g, obj, key="coefficients") -> Divisor:
    try:
        coeffs = obj[key]
    except (KeyError, TypeError) as exc:
        raise GraphInputError(f"malformed divisor object: missing {key!r}") from exc
    if not isinstance(coeffs, dict) or not all(map(is_int, coeffs.values())):
        raise GraphInputError("divisor coefficients must be integers")
    return Divisor({graph_id(g.vertex_by_key, v): c for v, c in coeffs.items()})


def certificate_to_obj(cert: EquivalenceCertificate):
    return {"potential": dict(cert.potential)}


def tree_to_obj(g, ts: SubweightedTree):
    return {"tree": list(ts.forest_edges),
            "sigma": {e.id: ts.sigma[e.id] for e in g.edges},
            **_roots_to_obj(g, ts.roots, ts.starts)}


def _roots_to_obj(g, roots, starts):
    if len(roots) == 1:
        q = roots[0]
        obj = {"root": q}
        if q in starts:
            obj["start"] = _halfedge_to_json(g, starts[q])
        return obj
    return {"roots": list(roots),
            "starts": {q: _halfedge_to_json(g, h) for q, h in starts.items()}}


def tree_from_obj(g, obj) -> SubweightedTree:
    """The validated tree of a tree object.  "root" and "start" set one
    component's root, "roots" and "starts" several; a start needs its root,
    and the two shapes do not mix.  Ids given as text resolve by
    `graph_id`."""
    shapes = {"tree": list, "sigma": dict, "roots": list, "starts": dict}
    if (not isinstance(obj, dict) or "tree" not in obj or "sigma" not in obj
            or any(not isinstance(obj[k], t) for k, t in shapes.items() if k in obj)
            or isinstance(obj.get("root"), (list, dict))):
        raise GraphInputError("malformed tree object: it needs a 'tree' list, a "
                              "'sigma' object, and vertex ids as roots")
    one = [k for k in ("root", "start") if k in obj]
    several = [k for k in ("roots", "starts") if k in obj]
    if one and several:
        raise GraphInputError(
            f"tree object gives {one[0]!r} and {several[0]!r}: give 'root' and "
            "'start' for one root, or 'roots' and 'starts' for several")
    for start, root in (("start", "root"), ("starts", "roots")):
        if start in obj and root not in obj:
            raise GraphInputError(f"{start!r} needs {root!r}: a start names an "
                                  "edge at its root")
    vertex, edge = g.vertex_by_key, g.edge_by_key
    roots = obj.get("roots", [obj["root"]] if one else None)
    starts = obj.get("starts", {obj["root"]: obj["start"]} if "start" in obj
                     else {})
    return SubweightedTree.build(
        g, [graph_id(edge, x) for x in obj["tree"]],
        {graph_id(edge, x): s for x, s in obj["sigma"].items()},
        None if roots is None else [graph_id(vertex, q) for q in roots],
        {graph_id(vertex, q): halfedge_from_json(edge, h)
         for q, h in starts.items()})


def group_to_obj(s: AbelianGroupStructure):
    return {"invariant_factors": list(s.invariant_factors), "order": s.order}


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _member(key, value, depth):
    """`key: value` of an object whose members `dumps` indents by depth,
    preceded by its newline and indent."""
    pad = "\n" + " " * depth
    return (f"{pad}{json.dumps(_json_key(key))}: "
            + json.dumps(value, indent=2).replace("\n", pad))


def write_representatives(write, g, roots, starts, subweightings, before=(),
                          after=()):
    """Write, through write, the text of
    dumps({**before, "representatives": [tree_to_obj(g, ts), ...], **after})
    one forest at a time, without building a tree or its object.

    subweightings yields (forest, combos), as
    `bernardi.all_subweighting_combos` does: a forest and the sigma values
    on its edges of each of its trees.  roots and starts are resolved, as
    `bernardi.resolve_roots` gives them, and every tree takes them.  The
    representatives of one forest fill one %-template: the JSON text of
    every edge id and of the roots and starts is fixed per graph, the tree
    and sigma off the forest per forest.
    """
    keys = [f"\n        {json.dumps(_json_key(e.id))}: ".replace("%", "%%")
            for e in g.edges]
    ids = {e.id: "\n        " + json.dumps(e.id).replace("%", "%%")
           for e in g.edges}
    tail = "".join("," + _member(k, v, 6) for k, v in
                   _roots_to_obj(g, roots, starts).items()).replace("%", "%%")
    write("{" + "".join(_member(k, v, 2) + "," for k, v in dict(before).items())
          + '\n  "representatives": [')
    sep = ""
    for forest, combos in subweightings:
        in_forest = set(forest)
        sigma = ",".join(key + ("%d" if e.id in in_forest else str(g.edge_weight[e.id]))
                         for key, e in zip(keys, g.edges))
        tree = ("[" + ",".join(map(ids.__getitem__, forest)) + "\n      ]"
                if forest else "[]")
        template = ('\n    {\n      "tree": ' + tree + ',\n      "sigma": '
                    + ("{" + sigma + "\n      }" if keys else "{}")
                    + tail + "\n    }")
        chunk = ",".join(map(template.__mod__, combos))
        if chunk:
            write(sep + chunk)
            sep = ","
    write(("\n  ]" if sep else "]")
          + "".join("," + _member(k, v, 2) for k, v in dict(after).items())
          + "\n}\n")


def _dot_text(x):
    """The id x by its JSON key text (`graphs._json_key`), with backslashes
    and double quotes escaped for a quoted DOT string."""
    return str(_json_key(x)).replace("\\", "\\\\").replace('"', '\\"')


def graph_to_dot(g: WeightedMultigraph) -> str:
    lines = ["graph {"]
    for v in g.vertices:
        t = _dot_text(v)
        lines.append(f'  "{t}" [label="{t} ({g.vertex_weight[v]})"];')
    for e in g.edges:
        u, v = map(_dot_text, e.ends)
        lines.append(f'  "{u}" -- "{v}" '
                     f'[label="{_dot_text(e.id)} ({g.edge_weight[e.id]})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
