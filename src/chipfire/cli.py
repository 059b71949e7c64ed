"""Command-line front end.

Exit codes: 0 on success, 1 for malformed input or usage errors, 2 for
precondition violations, 3 for a failed internal check.  Identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bernardi, picard, serialize
from .divisors import laplacian
from .errors import GraphInputError, InternalError, PreconditionError
from .fibers import (SpecialFiberDescription, component_group_structure,
                     dual_graph, phi_note)
from .graphs import (MALFORMED_PLAN, add_leaf, component_genera, expand_hat,
                     shrink_vertex_weight, split_edge, split_vertex,
                     validate, weighted_genus)
from .selfcheck import run_selfcheck
# unused here; perfbench's tests check that its tracer rebinds this alias
from .trees import enumerate_forests  # noqa: F401


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for
    # precondition violations here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GraphInputError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"{path!r} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphInputError(f"{path!r} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise GraphInputError(f"{path!r} nests its JSON too deeply") from None


def _load_graph(path):
    return serialize.graph_from_obj(_load_json(path))


def _load_divisor(g, path, potential=False):
    """A divisor file's coefficients, or a potential file's "potential"
    (or "coefficients"), for the library call to check."""
    obj = _load_json(path)
    key = ("potential" if potential and isinstance(obj, dict) and "potential" in obj
           else "coefficients")
    what = "potential" if potential else "divisor"
    return serialize.divisor_from_obj(g, obj, key=key, what=what)


def _emit(text):
    sys.stdout.write(text)


def _emit_graph(g, fmt):
    if fmt == "dot":
        _emit(serialize.graph_to_dot(g))
    else:
        _emit(serialize.dumps(serialize.graph_to_obj(g)))


def _cmd_validate(args):
    g = _load_graph(args.graph)
    if args.format == "dot":
        _emit_graph(g, "dot")
        return 0
    report = validate(g)
    _emit(serialize.dumps({"pleasant": report.pleasant,
                           "connected": report.connected,
                           "issues": list(report.issues)}))
    return 0


def _cmd_genus(args):
    g = _load_graph(args.graph)
    total = weighted_genus(g)
    if args.json or not g.is_connected():
        _emit(serialize.dumps({"genus": total,
                               "component_genera": component_genera(g)}))
    else:
        _emit(f"{total}\n")
    return 0


def _cmd_group(args):
    g = _load_graph(args.graph)
    s = picard.picb0_structure(g) if args.picb0 else picard.pic0_structure(g)
    _emit(serialize.dumps(serialize.group_to_obj(s)))
    return 0


def _cmd_count(args):
    g = _load_graph(args.graph)
    n = picard.count_picb0(g) if args.picb0 else picard.count_pic0(g)
    if args.json:
        _emit(serialize.dumps({"count": n}))
    else:
        _emit(f"{n}\n")
    return 0


def _emit_representatives(g, balanced_only, before=(), after=()):
    """Stream every (balanced) sub-weighted forest of g, one forest at a
    time; an internal check that fails midway leaves the output cut short."""
    serialize.write_representatives(
        _emit, g, *bernardi.resolve_roots(g),
        bernardi.all_subweighting_combos(g, balanced_only), before, after)


def _cmd_trees(args):
    g = _load_graph(args.graph)
    _emit_representatives(g, args.balanced)
    return 0


def _cmd_laplacian(args):
    g = _load_graph(args.graph)
    if args.divisor:
        f = _load_divisor(g, args.divisor, potential=True).coefficients
        _emit(serialize.dumps(serialize.divisor_to_obj(laplacian(g, f))))
    else:
        _emit(serialize.dumps({"vertices": list(g.vertices),
                               "laplacian": g.laplacian_matrix()}))
    return 0


def _cmd_reduce(args):
    if args.start is not None and args.root is None:
        raise GraphInputError("--start needs --root: it names an edge at the root")
    g = _load_graph(args.graph)
    D = _load_divisor(g, args.divisor)
    root = serialize.graph_id(g.vertex_by_key, args.root)
    roots = None if root is None else (root,)
    starts = (None if args.start is None else
              {root: serialize.halfedge_from_json(g.edge_by_key, args.start)})
    ts, cert = bernardi.reduce(g, D, roots, starts)
    _emit(serialize.dumps({"tree": serialize.tree_to_obj(g, ts),
                           "certificate": serialize.certificate_to_obj(cert)}))
    return 0


def _cmd_act(args):
    g = _load_graph(args.graph)
    D0 = _load_divisor(g, args.divisor)
    ts = serialize.tree_from_obj(g, _load_json(args.tree))
    out = bernardi.torsor_act(g, D0, ts)
    _emit(serialize.dumps(serialize.tree_to_obj(g, out)))
    return 0


def _cmd_expand(args):
    g = _load_graph(args.graph)
    hat = expand_hat(g)
    if args.format == "dot":
        _emit_graph(hat.graph, "dot")
        return 0
    _emit(serialize.dumps({"graph": serialize.graph_to_obj(hat.graph),
                           "copy_of": {cid: list(pair)
                                       for cid, pair in hat.copy_of.items()}}))
    return 0


def _parse_parts(text):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise GraphInputError(f"parts must be comma-separated integers, got {text!r}")


def _cmd_rewrite(args):
    g = _load_graph(args.graph)
    # split-edge names an edge, the other rewrites a vertex
    v = serialize.graph_id(g.vertex_by_key, getattr(args, "vertex", None))
    if args.rewrite == "add-leaf":
        out = add_leaf(g, v, args.leaf_weight, args.edge_weight)
    elif args.rewrite == "split-edge":
        out = split_edge(g, serialize.graph_id(g.edge_by_key, args.edge),
                         _parse_parts(args.parts))
    elif args.rewrite == "shrink":
        out = shrink_vertex_weight(g, v, args.weight)
    else:  # split-vertex
        plan = _load_json(args.plan)
        parts = plan.get("parts") if isinstance(plan, dict) else None
        if not isinstance(parts, dict):  # `split_vertex` checks the parts
            raise GraphInputError(MALFORMED_PLAN)
        out = split_vertex(g, v, args.copies,
                           {serialize.graph_id(g.edge_by_key, eid): ps
                            for eid, ps in parts.items()})[0]
    _emit_graph(out, args.format)
    return 0


def _cmd_fiber(args):
    f = SpecialFiberDescription.from_obj(_load_json(args.fiber))
    g = dual_graph(f)
    group = serialize.group_to_obj(component_group_structure(g))
    _emit_representatives(g, True, {"group": group}, {"phi_note": phi_note(f)})
    return 0


def _cmd_selfcheck(args):
    # a family with no graph would pass every sweep criterion vacuously
    for flag, value, least in (("--max-vertices", args.max_vertices, 1),
                               ("--max-edges", args.max_edges, 0),
                               ("--max-weight", args.max_weight, 1)):
        if value < least:
            raise GraphInputError(f"{flag} must be at least {least}, got {value}")
    ok = run_selfcheck(seed=args.seed, max_vertices=args.max_vertices,
                       max_edges=args.max_edges, max_weight=args.max_weight)
    return 0 if ok else 1


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused: parse_args keeps
    no state between calls."""
    parser = _Parser(prog="chipfire",
                     description="Chip-firing toolkit for weighted multigraphs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, "check pleasantness and connectivity")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = add("genus", _cmd_genus, "weighted genus")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")

    p = add("group", _cmd_group, "Jacobian / balanced Jacobian structure")
    p.add_argument("--graph", required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--pic0", action="store_true")
    which.add_argument("--picb0", action="store_true")

    p = add("count", _cmd_count, "number of classes (reduced-Laplacian determinant)")
    p.add_argument("--graph", required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--pic0", action="store_true")
    which.add_argument("--picb0", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("trees", _cmd_trees, "sub-weighted spanning trees")
    p.add_argument("--graph", required=True)
    p.add_argument("--balanced", action="store_true")

    p = add("laplacian", _cmd_laplacian,
            "Laplacian matrix, or its value on a potential")
    p.add_argument("--graph", required=True)
    p.add_argument("--divisor", help="file holding the potential")

    p = add("reduce", _cmd_reduce,
            "canonical sub-weighted tree equivalent to a divisor")
    p.add_argument("--graph", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--root")
    p.add_argument("--start")

    p = add("act", _cmd_act, "torsor action of a degree-0 divisor on a tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--tree", required=True)

    p = add("expand", _cmd_expand, "hat-graph expansion")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = add("rewrite", _cmd_rewrite, "graph rewrites")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    rw = p.add_subparsers(dest="rewrite", required=True, parser_class=_Parser)
    q = rw.add_parser("add-leaf")
    q.add_argument("--vertex", required=True)
    q.add_argument("--leaf-weight", type=int, default=1)
    q.add_argument("--edge-weight", type=int, default=1)
    q = rw.add_parser("split-edge")
    q.add_argument("--edge", required=True)
    q.add_argument("--parts", required=True, help="comma-separated weights")
    q = rw.add_parser("shrink")
    q.add_argument("--vertex", required=True)
    q.add_argument("--weight", type=int, required=True)
    q = rw.add_parser("split-vertex")
    q.add_argument("--vertex", required=True)
    q.add_argument("--copies", type=int, required=True)
    q.add_argument("--plan", required=True, help="JSON file with the edge plan")

    p = add("fiber", _cmd_fiber, "component group of a special fiber")
    p.add_argument("--fiber", required=True)

    p = add("selfcheck", _cmd_selfcheck, "run the full verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=5)
    p.add_argument("--max-weight", type=int, default=3)

    parser.subcommands = sub.choices  # name -> its parser, for `_parse`
    return parser


def _parse(argv):
    """parse_args of the parser, by way of the subcommand's own parser when
    argv starts with a subcommand's name: then the whole of argv after the
    name is the subcommand's, and only its unrecognized arguments are left
    for the top-level parser to reject.  The output and the exit are
    those of parser.parse_args(argv), and so is the answer, less the
    `command` name that no command reads, without the pass of the
    top-level parser over every argument."""
    parser = _build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.fn(args)
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
