"""The benchmark's three workloads.

Each workload has `setup(seed, workdir)`, which imports chipfire and makes
all inputs from the seed, and `materialize(inputs, count, fresh)`, which
turns the first `count` inputs into `Op`s.  Ops get program objects that
no earlier op has touched, so no per-object cache carries over; `fresh`
rebuilds the graphs that sweep's inputs already hold, for a second pass.
`cycle` is the length of the op schedule; a run covers whole cycles.
`setup_repeats` is how many set-ups a run times before its loop, and again
after it.  An op's `run()` calls the program; `check(answer)` compares the answer with `oracle` and returns
None or a message; `replay()` gives what is needed to rerun the op.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random

import gen
import oracle

# Per-op deadline in seconds, per workload.  Ops past it are abandoned and
# counted as failed; they gave no answer, so they do not make a run's
# result incorrect.  On sweep and queries the deadline is well above the
# slowest op that finishes (about 0.12 s and 0.76 s), so only the
# Smith-form blowup fails there: about one queries graph in 5,000 (a
# 6-vertex `act` input, for one) makes `smith_normal_form` run on for
# minutes.  On ladder the deadline splits the ops: the tree sum takes about
# 45 ms at n = 7 and 0.17 s at n = 8, and the Smith-form ops either finish
# within about 20 ms or run on for minutes.
DEADLINE_S = {"sweep": 2.0, "queries": 2.0, "ladder": 0.1}


def chipfire_module(name):
    return importlib.import_module(f"chipfire.{name}")


def encode_graph(g):
    """A chipfire graph object as a file-format object, from its public
    fields (independent of chipfire.serialize)."""
    def token(eid, side):
        e = g.edge(eid)
        return f"{eid}:{side}" if e.ends[0] == e.ends[1] else eid
    return {
        "vertices": [{"id": v, "weight": g.vertex_weight[v]} for v in g.vertices],
        "edges": [{"id": e.id, "ends": list(e.ends), "weight": g.edge_weight[e.id]}
                  for e in g.edges],
        "ribbon": {v: [token(*h) for h in g.ribbon[v]] for v in g.vertices},
    }


class Op:
    name = "op"

    def run(self):
        raise NotImplementedError

    def check(self, answer):
        raise NotImplementedError

    def replay(self):
        raise NotImplementedError


# -- sweep -----------------------------------------------------------------


class SweepOp(Op):
    """One desk-family graph through selfcheck.sweep_family([g])."""

    name = "sweep_family"

    def __init__(self, g):
        self.g = g

    def run(self):
        return chipfire_module("selfcheck").sweep_family([self.g])

    def check(self, res):
        failed = [k for k in ("matrix-tree", "completeness", "hat", "invariance")
                  if not res[k].passed]
        if failed:
            return "criteria failed: " + "; ".join(
                f"{k}: {res[k].detail}" for k in failed)
        g = oracle.Graph(encode_graph(self.g))
        det = oracle.pic0_order(g)
        detb = oracle.picb0_order(g)
        weights = list(g.vw.values())
        heavy = any(w > 1 for w in weights)
        stats = res["_stats"]
        if stats.graphs != 1 or stats.failures:
            return f"sweep stats {stats}"
        if stats.shrink_checks != int(heavy):
            return f"shrink checks {stats.shrink_checks}, expected {int(heavy)}"
        if stats.skipped_unit_leaf != int(1 not in weights):
            return "unit-leaf skip count disagrees with the vertex weights"
        index1 = res["_index1"]
        if heavy:
            if index1:
                return "weighted graph listed as an index-1 fiber"
        else:
            if len(index1) != 1:
                return "index-1 graph missing from the index-1 list"
            _g, s0, reducer, bal = index1[0]
            if (s0.order, len(reducer.table), len(bal)) != (det, det, det):
                return (f"order {s0.order}, table {len(reducer.table)}, "
                        f"balanced {len(bal)}; oracle det {det}")
        expect_torsor = heavy and 2 <= detb <= 12
        if (len(res["_torsor_candidates"]) == 1) != expect_torsor:
            return f"torsor candidacy disagrees with |Picb0| = {detb}"
        return None

    def replay(self):
        return {"op": "selfcheck.sweep_family", "graph": encode_graph(self.g)}


def _stratified_order(rng, family):
    """Family order for one seed: shuffle within each vertex count, then
    interleave the strata so every prefix keeps the family's proportions."""
    strata = {}
    for g in family:
        strata.setdefault(g.n, []).append(g)
    keyed = []
    for n, graphs in strata.items():
        rng.shuffle(graphs)
        keyed.extend(((k + 0.5) / len(graphs), n, g) for k, g in enumerate(graphs))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [g for _, _, g in keyed]


class Sweep:
    name = "sweep"
    cycle = 1
    setup_repeats = 2
    trace_ops = 500

    def setup(self, seed, workdir):
        family = list(chipfire_module("family").pleasant_family())
        return _stratified_order(random.Random(seed), family)

    def materialize(self, graphs, count=None, fresh=False):
        graphs = graphs if count is None else graphs[:count]
        if fresh:
            build = chipfire_module("graphs").WeightedMultigraph.build
            graphs = [build(g.vertices, [(e.id, e.ends) for e in g.edges],
                            dict(g.vertex_weight), dict(g.edge_weight),
                            dict(g.ribbon)) for g in graphs]
        return [SweepOp(g) for g in graphs]


# -- queries ---------------------------------------------------------------

# Op kinds in schedule order, each CLI subcommand variant once.  No record
# of how the CLI is used exists, so every variant and every size class
# below gets an equal share.
QUERY_KINDS = (
    "validate", "genus", "group", "group-picb0", "count", "count-picb0",
    "trees", "trees-balanced", "laplacian", "laplacian-potential", "reduce",
    "act", "expand", "add-leaf", "split-edge", "shrink", "split-vertex",
    "fiber",
)

# |Pic0| windows: reducer tables of about 10^2, 10^3 and 10^4 classes, with
# (vertices, extra edges, max edge weight) shapes that land in them often.
SIZE_CLASSES = {
    "S": ((100, 300), ((5, 3, 2), (4, 4, 4), (5, 4, 2), (6, 4, 2))),
    "M": ((1200, 2400), ((5, 5, 4), (6, 6, 2), (6, 5, 2))),
    "L": ((6000, 10000), ((5, 5, 4), (6, 6, 4), (5, 6, 4))),
}
SIZE_CYCLE = ("S", "M", "L")
QUERY_VERTEX_WEIGHTS = [(1, 0.75), (2, 0.25)]
# Inputs made in set-up.  No graph repeats within a run, so the pool is
# well above the 650-1,030 ops a 30 s run got through on a 2-core x86_64
# host.
QUERY_POOL = len(QUERY_KINDS) * len(SIZE_CYCLE) * 30


def _query_schedule(count):
    """Op i's (kind, size class): each kind cycles through the size classes,
    offset by its position, so heavy ops of every class are spread evenly."""
    k = len(QUERY_KINDS)
    return [(QUERY_KINDS[i % k], SIZE_CYCLE[(i // k + i % k) % len(SIZE_CYCLE)])
            for i in range(count)]


def _needs(kind, g):
    """The graph property an op kind's input needs, or True."""
    if kind == "split-edge":
        return bool(_splittable_edges(g))
    if kind == "shrink":
        return any(w > 1 for w in g.vw.values())
    if kind == "split-vertex":
        return any(w % 2 == 0 for w in g.vw.values())
    return True


def _splittable_edges(g):
    return [(eid, math.lcm(g.vw[u], g.vw[v])) for eid, u, v, w in g.edges
            if w >= 2 * math.lcm(g.vw[u], g.vw[v])]


def _fiber_obj(g):
    return {"components": [{"id": v, "index": g.vw[v]} for v in g.vertices],
            "nodes": [{"id": eid, "ends": [u, v], "degree": w}
                      for eid, u, v, w in g.edges]}


def _split_plan(rng, g, v):
    """Send each edge at v wholly to one of two copies, alternating."""
    parts = {}
    k = 0
    for eid, a, b, w in g.edges:
        if v not in (a, b):
            continue
        if a == b:
            parts[eid] = [[[k % 2, rng.randrange(2)], w]]
        else:
            parts[eid] = [[k % 2, w]]
        k += 1
    return {"parts": parts}


class QueryOp(Op):
    def __init__(self, index, kind, argv, files, expect):
        self.index, self.kind, self.argv = index, kind, argv
        self.files, self.expect = files, expect
        self.name = kind

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = chipfire_module("cli").main(list(self.argv))
        return rc, out.getvalue(), err.getvalue()

    def check(self, answer):
        rc, out, err = answer
        if rc != 0:
            return f"exit {rc}: {err.strip()[:300]}"
        try:
            return check_query(self.kind, self.expect, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    def replay(self):
        return {"op": "chipfire.cli.main", "argv": list(self.argv),
                "files": {p: self.files[p] for p in self.files}}


def check_query(kind, x, out):
    """Compare one CLI answer with the oracle; None when it is right."""
    g = x["graph"]
    det, detb = oracle.pic0_order(g), oracle.picb0_order(g)
    if kind in ("genus", "count", "count-picb0"):
        want = {"genus": oracle.genus(g), "count": det, "count-picb0": detb}[kind]
        return None if int(out) == want else f"got {out.strip()}, want {want}"
    obj = json.loads(out)
    if kind == "validate":
        ok = obj == {"pleasant": True, "connected": True, "issues": []}
    elif kind in ("group", "group-picb0"):
        ok = oracle.group_ok(obj, det if kind == "group" else detb)
    elif kind in ("trees", "trees-balanced", "fiber"):
        reps = obj["representatives"]
        want = det if kind == "trees" else detb
        ok = len(reps) == want and all(
            oracle.is_spanning_tree(g, r["tree"])
            and oracle.sigma_ok(g, r["tree"], r["sigma"]) for r in reps)
        if kind == "fiber":
            ok = ok and oracle.group_ok(obj["group"], detb) and obj["phi_note"]
    elif kind == "laplacian":
        ok = obj == {"vertices": g.vertices, "laplacian": oracle.laplacian(g)}
    elif kind == "laplacian-potential":
        vec = oracle.apply_laplacian(g, x["potential"])
        ok = obj == {"coefficients": dict(zip(g.vertices, vec))}
    elif kind == "reduce":
        D = oracle.tree_obj_divisor(g, obj["tree"])
        diff = [a - b for a, b in zip(g.vector(x["divisor"]), D or [])]
        ok = D is not None and diff == oracle.apply_laplacian(
            g, obj["certificate"]["potential"])
    elif kind == "act":
        D_in = oracle.tree_obj_divisor(g, x["tree"])
        D_out = oracle.tree_obj_divisor(g, obj)
        ok = D_out is not None and oracle.is_principal(g, [
            o - i - d for o, i, d in zip(D_out, D_in, g.vector(x["divisor"]))])
    elif kind == "expand":
        ok = _expand_ok(g, obj)
    else:
        ok = _rewrite_ok(kind, g, x, oracle.Graph(obj))
    return None if ok else f"answer disagrees with the oracle: {out[:300]}"


def _expand_ok(g, obj):
    hat = oracle.Graph(obj["graph"])
    copies = {}
    for cid, (eid, i) in obj["copy_of"].items():
        copies.setdefault(eid, []).append(i)
        if hat.ends[cid] != g.ends[eid] or hat.ew[cid] != 1:
            return False
    return (all(sorted(copies.get(eid, [])) == list(range(1, w + 1))
                for eid, _u, _v, w in g.edges)
            and len(hat.edges) == sum(g.ew.values())
            and set(hat.vw.values()) <= {1} and hat.vertices == g.vertices
            and oracle.laplacian(hat) == oracle.laplacian(g))


def _rewrite_ok(kind, g, x, h):
    if not oracle.is_pleasant(h):
        return False
    if kind == "add-leaf":
        v, lw, ew = x["vertex"], x["leaf_weight"], x["edge_weight"]
        new = [u for u in h.vertices if u not in g.index]
        return (len(new) == 1 and h.vw[new[0]] == lw
                and h.vertices[:g.n] == g.vertices
                and all(h.vw[u] == g.vw[u] for u in g.vertices)
                and any({a, b} == {v, new[0]} and w == ew
                        for _e, a, b, w in h.edges)
                and oracle.pic0_order(h) == oracle.pic0_order(g) * ew)
    if kind in ("split-edge", "shrink"):
        want_vw = dict(g.vw)
        if kind == "shrink":
            want_vw[x["vertex"]] = 1
        return (h.vertices == g.vertices and h.vw == want_vw
                and oracle.laplacian(h) == oracle.laplacian(g)
                and len(h.edges) == len(g.edges) + (kind == "split-edge"))
    # split-vertex: merging the copies back gives the old Laplacian
    v = x["vertex"]
    copies = [u for u in h.vertices if u not in g.index]
    merged = {u: (v if u in copies else u) for u in h.vertices}
    L = [[0] * g.n for _ in range(g.n)]
    for _e, a, b, w in h.edges:
        i, j = g.index[merged[a]], g.index[merged[b]]
        if i != j:
            L[i][i] += w
            L[j][j] += w
            L[i][j] -= w
            L[j][i] -= w
    return (len(copies) == 2 and v not in h.index
            and all(h.vw[c] == g.vw[v] // 2 for c in copies)
            and L == oracle.laplacian(g))


class Queries:
    name = "queries"
    cycle = trace_ops = len(QUERY_KINDS) * len(SIZE_CYCLE)
    setup_repeats = 2

    def _input(self, rng, kind, size, path):
        """Generate one op's graph and argument files; returns
        (argv, files, expectation)."""
        (lo, hi), shapes = SIZE_CLASSES[size]
        while True:
            n, extra, maxw = rng.choice(shapes)
            obj = gen.pleasant_graph(rng, n, extra, maxw, QUERY_VERTEX_WEIGHTS,
                                     loops=int(rng.random() < 0.2))
            g = oracle.Graph(obj)
            if lo <= oracle.pic0_order(g) <= hi and _needs(kind, g):
                break
        files = {}

        def put(stem, content):
            p = f"{path}-{stem}.json"
            files[p] = content
            return p

        x = {"graph": g}
        gp = put("graph", obj)
        argv = {
            "validate": ["validate", "--graph", gp],
            "genus": ["genus", "--graph", gp],
            "group": ["group", "--graph", gp, "--pic0"],
            "group-picb0": ["group", "--graph", gp, "--picb0"],
            "count": ["count", "--graph", gp],
            "count-picb0": ["count", "--graph", gp, "--picb0"],
            "trees": ["trees", "--graph", gp],
            "trees-balanced": ["trees", "--graph", gp, "--balanced"],
            "laplacian": ["laplacian", "--graph", gp],
            "expand": ["expand", "--graph", gp],
        }.get(kind)
        if kind == "laplacian-potential":
            x["potential"] = gen.random_potential(rng, g)
            argv = ["laplacian", "--graph", gp, "--divisor",
                    put("potential", {"potential": x["potential"]})]
        elif kind == "reduce":
            x["divisor"] = gen.random_divisor(rng, g, oracle.genus(g) - 1)
            argv = ["reduce", "--graph", gp, "--divisor",
                    put("divisor", {"coefficients": x["divisor"]})]
        elif kind == "act":
            x["divisor"] = gen.random_divisor(rng, g, 0)
            x["tree"] = gen.random_subweighted_tree(rng, g)
            argv = ["act", "--graph", gp,
                    "--divisor", put("divisor", {"coefficients": x["divisor"]}),
                    "--tree", put("tree", x["tree"])]
        elif kind == "add-leaf":
            v = rng.choice(g.vertices)
            x.update(vertex=v, leaf_weight=rng.choice([1, g.vw[v]]))
            x["edge_weight"] = math.lcm(g.vw[v], x["leaf_weight"]) * rng.randint(1, 2)
            argv = ["rewrite", "--graph", gp, "add-leaf", "--vertex", v,
                    "--leaf-weight", str(x["leaf_weight"]),
                    "--edge-weight", str(x["edge_weight"])]
        elif kind == "split-edge":
            eid, unit = rng.choice(_splittable_edges(g))
            first = unit * rng.randint(1, g.ew[eid] // unit - 1)
            argv = ["rewrite", "--graph", gp, "split-edge", "--edge", eid,
                    "--parts", f"{first},{g.ew[eid] - first}"]
        elif kind == "shrink":
            x["vertex"] = rng.choice([v for v in g.vertices if g.vw[v] > 1])
            argv = ["rewrite", "--graph", gp, "shrink", "--vertex", x["vertex"],
                    "--weight", "1"]
        elif kind == "split-vertex":
            x["vertex"] = rng.choice([v for v in g.vertices if g.vw[v] % 2 == 0])
            argv = ["rewrite", "--graph", gp, "split-vertex",
                    "--vertex", x["vertex"], "--copies", "2",
                    "--plan", put("plan", _split_plan(rng, g, x["vertex"]))]
        elif kind == "fiber":
            argv = ["fiber", "--fiber", put("fiber", _fiber_obj(g))]
        return argv, files, x

    def setup(self, seed, workdir):
        chipfire_module("cli")
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        inputs = []
        for i, (kind, size) in enumerate(_query_schedule(QUERY_POOL)):
            argv, files, x = self._input(rng, kind, size,
                                         os.path.join(workdir, f"op{i:05d}"))
            for p, content in files.items():
                with open(p, "w", encoding="utf-8") as fh:
                    json.dump(content, fh)
            inputs.append((i, kind, argv, files, x))
        return inputs

    def materialize(self, inputs, count=None, fresh=False):
        inputs = inputs if count is None else inputs[:count]
        return [QueryOp(*item) for item in inputs]


# -- ladder ----------------------------------------------------------------

# Below n = 6 every op finishes; from n = 10 up none does.  In between,
# pass or fail depends on the graph, so those rungs come twice per cycle
# to steady the share of ops that pass.
LADDER_RUNGS = (5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 12, 16, 20, 28, 40)
LADDER_CYCLES = 16
LADDER_VERTEX_WEIGHTS = [(1, 0.8), (2, 0.2)]
LADDER_OPS = ("pic0_structure", "picb0_structure", "count_pic0", "equivalent")


class LadderOp(Op):
    def __init__(self, kind, spec, g, D, D2):
        self.name, self.spec, self.g, self.D, self.D2 = kind, spec, g, D, D2

    def run(self):
        if self.name == "equivalent":
            return chipfire_module("divisors").equivalent(self.g, self.D, self.D2)
        return getattr(chipfire_module("picard"), self.name)(self.g)

    def _oracle(self):
        """The oracle's graph and |Pic0|, computed once per spec and outside
        the set-up, since only ops that finish need them."""
        if "oracle" not in self.spec:
            g = oracle.Graph(self.spec["graph"])
            self.spec["oracle"] = g, oracle.pic0_order(g)
        return self.spec["oracle"]

    def check(self, answer):
        g, det = self._oracle()
        if self.name == "pic0_structure":
            ok = (oracle.is_divisibility_chain(list(answer.invariant_factors))
                  and math.prod(answer.invariant_factors) == det)
        elif self.name == "picb0_structure":
            ok = (oracle.is_divisibility_chain(list(answer.invariant_factors))
                  and math.prod(answer.invariant_factors) == oracle.picb0_order(g))
        elif self.name == "count_pic0":
            ok = answer == det
        else:
            want = [a - b for a, b in zip(g.vector(self.spec["divisor"]),
                                          g.vector(self.spec["divisor2"]))]
            ok = answer is not None and oracle.apply_laplacian(
                g, answer.potential) == want
        return None if ok else f"answer disagrees with the oracle: {answer!r:.300}"

    def replay(self):
        args = {"graph": self.spec["graph"]}
        if self.name == "equivalent":
            args.update(D1=self.spec["divisor"], D2=self.spec["divisor2"])
        mod = "divisors" if self.name == "equivalent" else "picard"
        return {"op": f"{mod}.{self.name}", **args}


class Ladder:
    name = "ladder"
    cycle = trace_ops = len(LADDER_RUNGS) * len(LADDER_OPS)
    # a set-up takes about 0.2 s, so more of them are timed for the median
    setup_repeats = 5

    def setup(self, seed, workdir):
        chipfire_module("picard")
        chipfire_module("serialize")
        rng = random.Random(seed)
        specs = []
        for _ in range(LADDER_CYCLES):
            for n in LADDER_RUNGS:
                obj = gen.pleasant_graph(rng, n, 2 * n, 5, LADDER_VERTEX_WEIGHTS)
                g = oracle.Graph(obj)
                D = gen.random_divisor(rng, g, 0)
                Lf = oracle.apply_laplacian(g, gen.random_potential(rng, g))
                D2 = dict(zip(g.vertices, (a + b for a, b in zip(g.vector(D), Lf))))
                specs.append({"graph": obj, "divisor": D, "divisor2": D2})
        return specs

    def materialize(self, specs, count=None, fresh=False):
        serialize = chipfire_module("serialize")
        Divisor = chipfire_module("divisors").Divisor
        ops = []
        for spec in specs:
            if count is not None and len(ops) >= count:
                break
            g = serialize.graph_from_obj(spec["graph"])
            D, D2 = Divisor(dict(spec["divisor"])), Divisor(dict(spec["divisor2"]))
            ops.extend(LadderOp(kind, spec, g, D, D2) for kind in LADDER_OPS)
        return ops if count is None else ops[:count]


WORKLOADS = {w.name: w for w in (Sweep(), Queries(), Ladder())}
