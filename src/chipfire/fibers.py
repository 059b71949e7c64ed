"""Special-fiber descriptions, their dual graphs, the component group,
and base-change maps with injectivity checks over the caller's
representatives."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .bernardi import balanced_representatives
from .divisors import Divisor, LaplacianSystem, degree, is_balanced
from .errors import GraphInputError, InternalError, PreconditionError
from .graphs import WeightedMultigraph, _distinct_json_keys, is_int, validate
from .picard import picb0_structure
from .serialize import malformed
# unused here; perfbench's tests check that its tracer rebinds this alias
from .trees import enumerate_forests  # noqa: F401

PHI_NOTE_GENERIC = ("arithmetic component group; equals the geometric "
                    "component group when all component indices are 1")


@dataclass(frozen=True)
class SpecialFiberDescription:
    components: tuple  # (component id, index)
    nodes: tuple       # (node id, (component, component), residue degree)

    @classmethod
    def from_obj(cls, obj):
        try:
            comps = tuple((c["id"], c.get("index", 1)) for c in obj["components"])
            nodes = tuple((p["id"], p["ends"], p.get("degree", 1))
                          for p in obj["nodes"])
        except (KeyError, TypeError) as exc:
            raise malformed("fiber", obj, ("components", "component", ("id",)),
                            ("nodes", "node", ("id", "ends"))) from exc
        for node, ends, _ in nodes:
            if not isinstance(ends, list) or len(ends) != 2:
                raise GraphInputError(f"node {node!r} needs a list of two ends")
        for x in [c for c, _ in comps] + [x for node, ends, _ in nodes
                                          for x in (node, *ends)]:
            if not isinstance(x, (str, int, float)):
                raise GraphInputError(f"fiber id {x!r} is not a string or a number")
        return cls(comps, tuple((node, tuple(ends), deg)
                                for node, ends, deg in nodes))

    def to_obj(self):
        return {
            "components": [{"id": c, "index": i} for c, i in self.components],
            "nodes": [{"id": p, "ends": list(ends), "degree": d}
                      for p, ends, d in self.nodes],
        }


def dual_graph(f: SpecialFiberDescription) -> WeightedMultigraph:
    """Components become weighted vertices, nodes weighted edges.

    A node joining a component to itself becomes a loop.  Each incident
    component's index must divide the node's residue degree; that is what
    makes the result pleasant.
    """
    index = dict(f.components)
    for comp, ind in f.components:
        if not is_int(ind) or ind < 1:
            raise GraphInputError(f"component {comp!r} must have a positive index")
    for node, ends, deg in f.nodes:
        if not is_int(deg) or deg < 1:
            raise GraphInputError(f"node {node!r} must have a positive residue degree")
        for comp in dict.fromkeys(ends):
            if comp not in index:
                raise GraphInputError(f"node {node!r} touches unknown component {comp!r}")
            if deg % index[comp]:
                raise GraphInputError(
                    f"node {node!r} has residue degree {deg}, not divisible by "
                    f"index {index[comp]} of component {comp!r}")
    # the same check runs in `build`, but there it would name vertices and edges
    _distinct_json_keys("component", [c for c, _ in f.components])
    _distinct_json_keys("node", [node for node, _, _ in f.nodes])
    g = WeightedMultigraph.build(
        [c for c, _ in f.components],
        [(node, ends) for node, ends, _ in f.nodes],
        vertex_weight=index,
        edge_weight={node: deg for node, _, deg in f.nodes})
    if not validate(g).pleasant:
        raise InternalError("dual graph of a checked fiber is not pleasant")
    return g


def component_group(f: SpecialFiberDescription):
    """Group structure of the arithmetic component group plus its torsor elements."""
    g = dual_graph(f)
    return component_group_structure(g), balanced_representatives(g)


def component_group_structure(g):
    """Group structure of the arithmetic component group of a fiber with
    dual graph g: its balanced Jacobian."""
    if not g.is_connected():
        warnings.warn("special fiber is disconnected; computing the "
                      "component-wise direct sum", stacklevel=2)
    return picb0_structure(g)


def phi_note(f: SpecialFiberDescription) -> str:
    if all(ind == 1 for _, ind in f.components):
        return ("arithmetic component group; all indices are 1, so this "
                "is the geometric component group")
    return PHI_NOTE_GENERIC


def psi_map(old_g, copies, D: Divisor) -> Divisor:
    """Push a balanced divisor through a vertex split, given `split_vertex`'s
    map from each old vertex to its copies: the coefficient at a split
    vertex spreads evenly over its copies."""
    if not is_balanced(old_g, D):
        raise PreconditionError("the base-change divisor map needs a balanced divisor")
    out = {}
    for v in old_g.vertices:
        c = D.coefficients.get(v, 0)
        r = len(copies[v])
        if c % r:  # r divides w(v), which divides c
            raise InternalError(f"{r} copies do not divide the coefficient {c} at {v!r}")
        for name in copies[v]:
            out[name] = c // r
    return Divisor(out)


def check_base_change_injectivity(old_g, new_g, copies, reps):
    """Check that the induced map on balanced Jacobians is injective on
    reps, one balanced degree-0 divisor per class of old_g.  Returns None
    when it is, and otherwise a witness pair (D1, D2) of reps in distinct
    old classes that map to one new class.

    `copies` is `split_vertex`'s map from old vertices to their copies, or
    None when the vertex sets agree (edge split, weight shrink).
    """
    if copies is None:
        images = list(reps)
    else:
        images = [psi_map(old_g, copies, D) for D in reps]
    sys = LaplacianSystem(new_g)
    seen = {}
    for D_old, D_new in zip(reps, images):
        if degree(D_new) != 0:
            raise InternalError(f"base change moved {D_old} out of degree 0")
        key = sys.class_key(D_new)
        if key in seen:
            return seen[key], D_old
        seen[key] = D_old
    return None
