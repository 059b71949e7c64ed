"""Stable JSON encodings for graphs, fibers, divisors, trees, and groups.

Declaration order is preserved everywhere so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import json

from .errors import GraphInputError
from .graphs import WeightedMultigraph, is_int
from .divisors import Divisor, EquivalenceCertificate
from .bernardi import SubweightedTree
from .picard import AbelianGroupStructure


def _halfedge_to_json(g, h):
    eid, side = h
    return f"{eid}:{side}" if g.edge(eid).is_loop else eid


def _halfedge_from_json(token, at_vertex, edges_by_id):
    if isinstance(token, str) and ":" in token:
        eid, side = token.rsplit(":", 1)
        if eid in edges_by_id and side in ("0", "1"):
            return (eid, int(side))
    eid = token
    try:
        ends = edges_by_id[eid]
    except (KeyError, TypeError):  # TypeError: an unhashable token
        raise GraphInputError(f"ribbon mentions unknown edge {token!r}") from None
    if ends[0] == ends[1]:
        raise GraphInputError(
            f"loop {eid!r} must appear in the ribbon as '{eid}:0' and '{eid}:1'")
    if at_vertex == ends[0]:
        return (eid, 0)
    if at_vertex == ends[1]:
        return (eid, 1)
    raise GraphInputError(f"ribbon lists {eid!r} at a non-endpoint vertex")


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
        edges_by_id = dict(edges)
        ribbon = {
            v: tuple(_halfedge_from_json(tok, v, edges_by_id)
                     for tok in tokens)
            for v, tokens in ribbon.items()
        }
    return WeightedMultigraph.build(vertices, edges, vw, ew, ribbon)


def divisor_to_obj(D: Divisor, key="coefficients"):
    return {key: dict(D.coefficients)}


def divisor_from_obj(obj, key="coefficients") -> Divisor:
    try:
        coeffs = obj[key]
    except (KeyError, TypeError) as exc:
        raise GraphInputError(f"malformed divisor object: missing {key!r}") from exc
    if not isinstance(coeffs, dict) or not all(map(is_int, coeffs.values())):
        raise GraphInputError("divisor coefficients must be integers")
    return Divisor(dict(coeffs))


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
    component's root; "roots" and "starts" set several."""
    shapes = {"tree": list, "sigma": dict, "roots": list, "starts": dict}
    if (not isinstance(obj, dict) or "tree" not in obj or "sigma" not in obj
            or any(not isinstance(obj[k], t) for k, t in shapes.items() if k in obj)
            or isinstance(obj.get("root"), (list, dict))):
        raise GraphInputError("malformed tree object: it needs a 'tree' list, a "
                              "'sigma' object, and vertex ids as roots")
    if "roots" in obj:
        roots, starts = obj["roots"], obj.get("starts")
    else:
        roots = [obj["root"]] if "root" in obj else None
        starts = {obj.get("root"): obj["start"]} if "start" in obj else None
    return SubweightedTree.build(g, obj["tree"], obj["sigma"], roots, starts)


def group_to_obj(s: AbelianGroupStructure):
    return {"invariant_factors": list(s.invariant_factors), "order": s.order}


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _key_text(key):
    """A dict key as `dumps` writes it: a number, true, false or null key
    becomes the string of its JSON text."""
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def _member(key, value, depth):
    """`key: value` of an object whose members `dumps` indents by depth,
    preceded by its newline and indent."""
    pad = "\n" + " " * depth
    return f"{pad}{_key_text(key)}: " + json.dumps(value, indent=2).replace("\n", pad)


def write_representatives(write, g, subweightings, before=(), after=()):
    """Write, through write, the text of
    dumps({**before, "representatives": [tree_to_obj(g, ts), ...], **after})
    one forest at a time, without building a tree or its object.

    subweightings yields (base, combos) per forest, as
    `bernardi.subweighting_combos` returns them: base gives the forest,
    roots and starts, and combos the sigma values on the forest edges.  The
    representatives of one forest fill one %-template: the JSON text of
    every edge id is fixed per graph, the tree and sigma off the forest per
    forest, and the roots and starts per (roots, starts).
    """
    keys = [f"\n        {_key_text(e.id)}: ".replace("%", "%%") for e in g.edges]
    ids = {e.id: "\n        " + json.dumps(e.id).replace("%", "%%")
           for e in g.edges}
    write("{" + "".join(_member(k, v, 2) + "," for k, v in dict(before).items())
          + '\n  "representatives": [')
    roots = tail = None
    sep = ""
    for base, combos in subweightings:
        if (base.roots, base.starts) != roots:
            roots = base.roots, base.starts
            tail = "".join("," + _member(k, v, 6) for k, v in
                           _roots_to_obj(g, *roots).items()).replace("%", "%%")
        forest = base.forest_edges
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


def graph_to_dot(g: WeightedMultigraph) -> str:
    lines = ["graph {"]
    for v in g.vertices:
        lines.append(f'  "{v}" [label="{v} ({g.vertex_weight[v]})"];')
    for e in g.edges:
        u, v = e.ends
        lines.append(f'  "{u}" -- "{v}" [label="{e.id} ({g.edge_weight[e.id]})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
