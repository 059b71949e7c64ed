#!/usr/bin/env python3
"""Scaling curves, one checkout against another.

    python3 scripts/curve.py reduce|structure --parent ../parent --out X.json

Each point runs a fresh `python` per (checkout, seeded input, repeat) with
`PYTHONPATH` at that checkout's `src/`, the parent and this one alternating,
and takes each child's wall time and peak RSS from `os.wait4`.  `SUITES`
says what each suite times, when the checkouts agree, and which key of the
JSON file `--out` it writes, keeping the file's other keys.  Exits 1 if the
checkouts disagree on a point.
"""

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# name -> (vertices, edge weight), all vertex weights 1: K_n, or one edge for
# n = 2; 41,472, 314,928, 1,075,648 and 10^6 classes (all in one forest's box)
GRAPHS = {"K6-w2": (6, 2), "K6-w3": (6, 3), "K7-w2": (7, 2),
          "edge-w1e6": (2, 10 ** 6)}
SIZES = (40, 80, 120, 160, 200)

# run in a `structure` child: load the graph, time one call of a `picard`
# function; its answer is the count or the invariant factors
STRUCTURE_CHILD = """
import json, sys, time
from chipfire import picard, serialize
with open(sys.argv[1], encoding="utf-8") as fh:
    g = serialize.graph_from_obj(json.load(fh))
t = time.perf_counter()
s = getattr(picard, sys.argv[2])(g)
t = time.perf_counter() - t
print(json.dumps({"s": t, "answer": s if isinstance(s, int)
                  else list(s.invariant_factors)}))
"""


def reduce_points(name, tmp, seed):
    """Writes one graph, a divisor of degree g - 1 for `reduce`, a degree-0
    divisor and sub-weighted tree for `act`; yields (fields, child argv)."""
    sys.path.insert(0, str(ROOT / "src"))
    import chipfire
    from chipfire import serialize
    n, w = GRAPHS[name]
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"{a}{b}", (a, b)) for a, b in itertools.combinations(vs, 2)]
    g = chipfire.WeightedMultigraph.build(
        vs, edges, edge_weight={eid: w for eid, _ in edges})
    rng = random.Random(f"{seed}-{name}")

    def divisor(degree):
        coeffs = {v: rng.randint(-w, w) for v in vs}
        coeffs[vs[0]] += degree - sum(coeffs.values())
        return {"coefficients": coeffs}

    forest = rng.choice(chipfire.enumerate_forests(g))
    sigma = {**g.edge_weight, **{e: rng.randint(1, w) for e in forest}}
    files = {"graph": serialize.graph_to_obj(g),
             "divisor": divisor(chipfire.weighted_genus(g) - 1),
             "zero": divisor(0), "tree": serialize.tree_to_obj(
                 g, chipfire.SubweightedTree.build(g, forest, sigma))}
    path = {stem: str(Path(tmp) / f"{name}-{stem}.json") for stem in files}
    for stem, obj in files.items():
        Path(path[stem]).write_text(json.dumps(obj), encoding="utf-8")
    for sub, tail in (("reduce", [path["divisor"]]),
                      ("act", [path["zero"], "--tree", path["tree"]])):
        yield ({"graph": name, "subcommand": sub}, ["-m", "chipfire.cli", sub,
               "--graph", path["graph"], "--divisor", *tail])


def structure_points(n, tmp, seed):
    """Writes the graph of size n (a random spanning tree plus 2n edges, edge
    weights up to 6, vertex weights 1-3); yields (fields, child argv)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    graph = gen.pleasant_graph(random.Random(seed * 1000 + n), n, 2 * n, 6,
                               [(1, 0.5), (2, 0.3), (3, 0.2)])
    graph_file = Path(tmp) / f"graph{n}.json"
    graph_file.write_text(json.dumps(graph), encoding="utf-8")
    for structure in ("count_pic0", "pic0_structure", "picb0_structure"):
        yield ({"n": n, "structure": structure},
               ["-c", STRUCTURE_CHILD, str(graph_file), structure])


def structure_agreement(outs):
    answers = [json.loads(out)["answer"] for out in outs]
    last = answers[-1]
    return {"agree": all(a == answers[0] for a in answers),
            **({"count_digits": len(str(last))} if isinstance(last, int)
               else {"invariant_factors": len(last)})}


# A suite: JSON key, seed, input option, points of one input, agreement fields
# of the children's stdouts, verdict field, one child's seconds, description.
Suite = namedtuple("Suite", "key seed option points agreement verdict seconds "
                            "description")
SUITES = {
    "reduce": Suite(
        "reduce_curve", 5, "--graphs", reduce_points,
        lambda outs: {"same_stdout": len(set(outs)) == 1}, "same_stdout",
        lambda wall, out: wall,
        "Median wall seconds of one whole `python -m chipfire.cli reduce` / "
        "`act` process, start to exit, on K6 with edge weight 2 and 3, K7 "
        "with weight 2 and one edge of weight 10^6, seeded inputs, parent "
        "and change alternating; peak RSS is the largest over the point's "
        "processes."),
    "structure": Suite(
        "structure_curve", 11, "--sizes", structure_points,
        structure_agreement, "agree", lambda wall, out: json.loads(out)["s"],
        "Median seconds of one count_pic0 / pic0_structure / picb0_structure "
        "call on one seeded random pleasant graph per n (spanning tree plus "
        "2n edges, edge weights <= 6, vertex weights 1-3), each in a fresh "
        "process, parent and change alternating; count_pic0 is the "
        "elimination alone, without the Smith step; peak RSS is the largest "
        "over the point's processes."),
}


def run_child(checkout, argv):
    """(wall seconds, peak RSS in KiB, stdout) of one child process."""
    with tempfile.TemporaryFile() as err:
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
            env={**os.environ, "PYTHONPATH": str(Path(checkout) / "src")})
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        t = time.perf_counter() - t
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{argv[2:]} in {checkout}: "
                               f"{err.read().decode()[-2000:]}")
    return t, usage.ru_maxrss, out


def curve(suite, parent, inputs, repeats):
    sides = {"parent": parent, "change": ROOT}
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for x in inputs:
            for fields, argv in suite.points(x, tmp, suite.seed):
                runs = {side: [] for side in sides}
                for r in range(repeats):
                    order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                    for side in order:
                        runs[side].append(run_child(sides[side], argv))
                point = {**fields, **suite.agreement(
                    [out for rs in runs.values() for _, _, out in rs])}
                for side, rs in runs.items():
                    point[f"{side}_s"] = round(statistics.median(
                        suite.seconds(t, out) for t, _, out in rs), 4)
                    point[f"{side}_peak_rss_mib"] = round(
                        max(kib for _, kib, _ in rs) / 1024, 1)
                points.append(point)
                print(json.dumps(point), flush=True)
    return points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--parent", default=str(ROOT),
                        help="checkout to compare against (default: this one)")
    common.add_argument("--repeats", type=int, default=3)
    common.add_argument("--out", required=True,
                        help="JSON file to write the curve into")
    subs = parser.add_subparsers(dest="suite", required=True)
    subs.add_parser("reduce", parents=[common]).add_argument(
        "--graphs", nargs="+", choices=list(GRAPHS), default=list(GRAPHS))
    subs.add_parser("structure", parents=[common]).add_argument(
        "--sizes", type=int, nargs="+", default=list(SIZES))
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    inputs = args.graphs if args.suite == "reduce" else args.sizes
    if args.repeats < 1 or args.suite == "structure" and min(inputs) < 1:
        parser.error("--repeats and --sizes must be positive")

    points = curve(suite, Path(args.parent).resolve(), inputs, args.repeats)
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc[suite.key] = {
        "description": suite.description,
        "command": ["python3", "scripts/curve.py", args.suite, suite.option,
                    *map(str, inputs), "--repeats", str(args.repeats)],
        "seed": suite.seed,
        "points": points}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(p[suite.verdict] for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
