#!/usr/bin/env python3
"""Whole-process `chipfire reduce` and `chipfire act`, one checkout against
another.

    python3 scripts/reduce_curve.py --parent ../parent --out BENCH_x.json

Four graphs, each with every vertex weight 1: K6 with every edge weight 2
(41,472 classes), K6 with weight 3 (314,928), K7 with weight 2
(1,075,648), and two vertices joined by one edge of weight 10^6 (10^6
classes, all in one forest's box).  For each graph one seeded divisor of
degree g - 1 goes to `reduce`, and one seeded degree-0 divisor and
sub-weighted tree go to `act`.  Every point runs `python -m chipfire.cli`
in a fresh process, one process per (checkout, graph, subcommand,
repeat), importing chipfire from that checkout's `src/`, the parent's and
this one's in alternating order.  A point records the median wall time of
its processes, from start to exit, and their largest resident set size;
both checkouts must print the same stdout, or the script exits 1.  The
curve is written as the `reduce_curve` key of the JSON file `--out`,
keeping its other keys, and printed as a table.  Without `--parent` this
checkout is timed against itself.
"""

from __future__ import annotations

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# name -> (vertices, edge weight): the complete graph, or one edge for n = 2
GRAPHS = {"K6-w2": (6, 2), "K6-w3": (6, 3), "K7-w2": (7, 2),
          "edge-w1e6": (2, 10 ** 6)}
SUBCOMMANDS = ("reduce", "act")
SEED = 5


def inputs(chipfire, name, tmp):
    """Write the graph, divisors and tree of one graph; returns the argv
    tail of each subcommand."""
    from chipfire import serialize
    n, w = GRAPHS[name]
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"{a}{b}", (a, b)) for a, b in itertools.combinations(vs, 2)]
    g = chipfire.WeightedMultigraph.build(
        vs, edges, edge_weight={eid: w for eid, _ in edges})
    rng = random.Random(f"{SEED}-{name}")

    def divisor(degree):
        coeffs = {v: rng.randint(-w, w) for v in vs}
        coeffs[vs[0]] += degree - sum(coeffs.values())
        return {"coefficients": coeffs}

    forest = rng.choice(chipfire.enumerate_forests(g))
    sigma = {**g.edge_weight, **{e: rng.randint(1, w) for e in forest}}
    tree = serialize.tree_to_obj(g, chipfire.SubweightedTree.build(
        g, forest, sigma))
    files = {"graph": serialize.graph_to_obj(g),
             "divisor": divisor(chipfire.weighted_genus(g) - 1),
             "zero": divisor(0), "tree": tree}
    paths = {}
    for stem, obj in files.items():
        paths[stem] = str(Path(tmp) / f"{name}-{stem}.json")
        Path(paths[stem]).write_text(json.dumps(obj), encoding="utf-8")
    return {"reduce": ["--graph", paths["graph"], "--divisor",
                       paths["divisor"]],
            "act": ["--graph", paths["graph"], "--divisor", paths["zero"],
                    "--tree", paths["tree"]]}


def run_point(checkout, argv):
    """(wall seconds, peak RSS in KiB, stdout) of one CLI process."""
    with tempfile.TemporaryFile() as err:
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "chipfire.cli", *argv],
            stdout=subprocess.PIPE, stderr=err,
            env={**os.environ, "PYTHONPATH": str(Path(checkout) / "src")})
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        t = time.perf_counter() - t
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{argv[0]} in {checkout}: "
                               f"{err.read().decode()[-2000:]}")
    return t, usage.ru_maxrss, out


def curve(parent, names, repeats):
    sys.path.insert(0, str(ROOT / "src"))
    import chipfire
    sides = {"parent": parent, "change": ROOT}
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            argvs = inputs(chipfire, name, tmp)
            for sub in SUBCOMMANDS:
                runs = {side: [] for side in sides}
                for r in range(repeats):
                    order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                    for side in order:
                        runs[side].append(run_point(sides[side],
                                                    [sub, *argvs[sub]]))
                outs = {out for rs in runs.values() for _, _, out in rs}
                point = {"graph": name, "subcommand": sub,
                         "same_stdout": len(outs) == 1}
                for side, rs in runs.items():
                    point[f"{side}_s"] = round(
                        statistics.median(t for t, _, _ in rs), 4)
                    point[f"{side}_peak_rss_mib"] = round(
                        max(kib for _, kib, _ in rs) / 1024, 1)
                points.append(point)
                print(f"{name:10s} {sub:6s}"
                      f" parent {point['parent_s']:8.3f} s"
                      f"  change {point['change_s']:8.3f} s"
                      f"{'' if point['same_stdout'] else '  STDOUT DIFFERS'}",
                      flush=True)
    return points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default=str(ROOT),
                        help="checkout to compare against (default: this one)")
    parser.add_argument("--graphs", nargs="+", choices=list(GRAPHS),
                        default=list(GRAPHS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", required=True,
                        help="JSON file to write the curve into")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    points = curve(Path(args.parent).resolve(), args.graphs, args.repeats)
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc["reduce_curve"] = {
        "description": (
            "Median wall seconds of one whole `python -m chipfire.cli "
            "reduce` / `act` process, start to exit, on K6 with edge "
            "weight 2 and 3, K7 with weight 2 and one edge of weight 10^6, "
            "seeded inputs, parent and change alternating; peak RSS is the "
            "largest over the point's processes."),
        "command": ["python3", "scripts/reduce_curve.py", "--graphs",
                    *args.graphs, "--repeats", str(args.repeats)],
        "seed": SEED,
        "points": points}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(p["same_stdout"] for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
