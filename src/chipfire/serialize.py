"""Stable JSON encodings for graphs, fibers, divisors, trees, and groups.

Declaration order is preserved everywhere so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import GraphInputError
from .graphs import WeightedMultigraph, _json_key
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


def _ribbon_halfedges(tokens, at_vertex, edge_by_key, ends_by_id):
    """The half-edges that a vertex's ribbon tokens name: each token as
    `halfedge_from_json` reads it, and an edge id that it names taken at
    the side where at_vertex is, which must be the edge's one end."""
    hs = []
    for token in tokens:
        h = halfedge_from_json(edge_by_key, token)
        if isinstance(h, tuple):
            hs.append(h)
            continue
        try:
            ends = ends_by_id[h]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise GraphInputError(f"ribbon mentions unknown edge {token!r}") from None
        if ends[0] == ends[1]:
            key = _json_key(h)
            raise GraphInputError(
                f"loop {h!r} must appear in the ribbon as '{key}:0' and '{key}:1'")
        if at_vertex == ends[0]:
            hs.append((h, 0))
        elif at_vertex == ends[1]:
            hs.append((h, 1))
        else:
            raise GraphInputError(f"ribbon lists {h!r} at a non-endpoint vertex")
    return tuple(hs)


def graph_to_obj(g: WeightedMultigraph):
    return {
        "vertices": [{"id": v, "weight": g.vertex_weight[v]} for v in g.vertices],
        "edges": [{"id": e.id, "ends": list(e.ends), "weight": g.edge_weight[e.id]}
                  for e in g.edges],
        "ribbon": {v: [_halfedge_to_json(g, h) for h in g.ribbon[v]]
                   for v in g.vertices},
    }


def malformed(kind, obj, *lists):
    """The GraphInputError for a `kind` file object that did not parse,
    naming what is wrong: the first of `lists`, each (key, noun, fields),
    that is not a list under its key or has an item that is not a JSON
    object with every field; else an id that cannot be a key (a list or
    an object)."""
    for key, noun, fields in lists:
        records = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(records, list):
            return GraphInputError(
                f'malformed {kind} object: it needs a list under "{key}"')
        if not all(isinstance(r, dict) and all(f in r for f in fields)
                   for r in records):
            return GraphInputError(
                f"malformed {kind} object: every {noun} needs an "
                + " and ".join(f'"{f}"' for f in fields))
    return GraphInputError(f'malformed {kind} object: every "id" must be a '
                           "string, number, boolean or null")


def graph_from_obj(obj) -> WeightedMultigraph:
    try:
        vertices = [v["id"] for v in obj["vertices"]]
        vw = {v["id"]: v.get("weight", 1) for v in obj["vertices"]}
        edges = [(e["id"], e["ends"]) for e in obj["edges"]]
        ew = {e["id"]: e.get("weight", 1) for e in obj["edges"]}
    except (KeyError, TypeError) as exc:
        raise malformed("graph", obj, ("vertices", "vertex", ("id",)),
                        ("edges", "edge", ("id", "ends"))) from exc
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
        ribbon = {v: _ribbon_halfedges(tokens, v, edge, ends_by_id)
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


def divisor_from_obj(g, obj, key="coefficients", what="divisor") -> Divisor:
    """The divisor (or potential, named by `what` in errors) under obj[key],
    unchecked: `divisors.check_on_graph` checks its vertices and values."""
    coeffs = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(coeffs, dict):
        raise GraphInputError(f"malformed {what} object: it needs a {key!r} object")
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
    """json.dumps(obj, indent=2) + "\n", written without the stdlib's
    encoder: given an indent, json uses its pure-Python encoder, whose
    generators cost more than the text they write.  As in json, strings
    are escaped to ASCII, floats are written by their repr (the special
    values as NaN, Infinity and -Infinity), tuples are arrays and object
    keys may be str, int, float, bool or None.  Unlike json, it does not
    look for circular references: every value this module writes is a
    tree."""
    return _value(obj, "\n") + "\n"


_INF = float("inf")


def _scalar(x):
    """The JSON text of None, a bool, an int or a float."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == _INF:
            return "Infinity"
        if x == -_INF:
            return "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {x.__class__.__name__} "
                    "is not JSON serializable")


def _key(k):
    """An object key's JSON text, quoted: json writes a key that is not a
    str as the quoted text of its value."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _scalar(k) + '"'
    raise TypeError("keys must be str, int, float, bool or None, not "
                    f"{k.__class__.__name__}")


def _value(o, pad):
    """The JSON text of o as json.dumps(o, indent=2) writes it on a line
    that starts with pad, a newline and the indent."""
    if o.__class__ is int:  # the common leaf, ahead of the general tests
        return int.__repr__(o)
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join(
            [_key(k) + ": " + _value(v, inner) for k, v in o.items()])
                + pad + "}")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        return ("[" + inner + ("," + inner).join([_value(x, inner) for x in o])
                + pad + "]")
    return _scalar(o)


def _member(key, value, depth):
    """`key: value` of an object whose members `dumps` indents by depth,
    preceded by its newline and indent."""
    pad = "\n" + " " * depth
    return pad + _key(key) + ": " + _value(value, pad)


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
