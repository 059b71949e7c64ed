#!/usr/bin/env python3
"""Scaling curve of the two group structures, one checkout against another.

    python3 scripts/structure_curve.py --parent ../parent --out BENCH_x.json

For each size n (default 40, 80, 120, 160 and 200) draws one seeded
random pleasant graph of the shape `perfbench/gen.py`'s ladder graphs
have, scaled up: a random spanning tree plus 2n random edges, edge
weights up to 6, vertex weights 1-3.  Then it times `pic0_structure` and
`picb0_structure` on that graph in a fresh Python process per point:
one process per (checkout, n, structure, repeat), importing chipfire
from that checkout's `src/`, the parent's and this one's in alternating
order.  Each point records the median call time over the repeats and
the largest resident set size of its processes; the two checkouts must
give the same invariant factors, or the script exits 1.  The curve is
written as the `structure_curve` key of the JSON file `--out`, keeping
its other keys, and printed as a table.  Without `--parent` this
checkout is timed against itself.  The graphs are drawn from a fixed
seed, so every run times the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (40, 80, 120, 160, 200)
VERTEX_WEIGHTS = [(1, 0.5), (2, 0.3), (3, 0.2)]
STRUCTURES = ("pic0_structure", "picb0_structure")
SEED = 11

# run in the child: load the graph, time one structure call, print JSON
CHILD = """
import json, resource, sys, time
from chipfire import picard, serialize
with open(sys.argv[1], encoding="utf-8") as fh:
    g = serialize.graph_from_obj(json.load(fh))
t = time.perf_counter()
s = getattr(picard, sys.argv[2])(g)
t = time.perf_counter() - t
rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"s": t, "factors": list(s.invariant_factors),
                  "rss_kib": rss_kib}))
"""


def graph_obj(gen, n):
    return gen.pleasant_graph(random.Random(SEED * 1000 + n), n, 2 * n, 6,
                              VERTEX_WEIGHTS)


def run_point(checkout, graph_file, structure):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(graph_file), structure],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(Path(checkout) / "src")})
    if proc.returncode != 0:
        raise RuntimeError(f"{structure} in {checkout}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def curve(parent, sizes, repeats):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    sides = {"parent": parent, "change": ROOT}
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            graph_file = Path(tmp) / f"graph{n}.json"
            graph_file.write_text(json.dumps(graph_obj(gen, n)),
                                  encoding="utf-8")
            for structure in STRUCTURES:
                runs = {side: [] for side in sides}
                for r in range(repeats):
                    order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                    for side in order:
                        runs[side].append(run_point(sides[side], graph_file,
                                                    structure))
                factors = {side: [run["factors"] for run in rs]
                           for side, rs in runs.items()}
                agree = all(f == factors["change"][0]
                            for fs in factors.values() for f in fs)
                point = {"n": n, "structure": structure, "agree": agree,
                         "invariant_factors": len(factors["change"][0])}
                for side, rs in runs.items():
                    point[f"{side}_s"] = round(
                        statistics.median(run["s"] for run in rs), 4)
                    point[f"{side}_peak_rss_mib"] = round(
                        max(run["rss_kib"] for run in rs) / 1024, 1)
                points.append(point)
                print(f"n={n:4d} {structure:16s}"
                      f" parent {point['parent_s']:9.4f} s"
                      f"  change {point['change_s']:9.4f} s"
                      f"  factors {point['invariant_factors']:3d}"
                      f"{'' if agree else '  DISAGREE'}", flush=True)
    return points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default=str(ROOT),
                        help="checkout to compare against (default: this one)")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", required=True,
                        help="JSON file to write the curve into")
    args = parser.parse_args(argv)
    if args.repeats < 1 or any(n < 1 for n in args.sizes):
        parser.error("--repeats and --sizes must be positive")

    points = curve(Path(args.parent).resolve(), args.sizes, args.repeats)
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc["structure_curve"] = {
        "description": (
            "Median seconds of one pic0_structure / picb0_structure call on "
            "one seeded random pleasant graph per n (spanning tree plus 2n "
            "edges, edge weights <= 6, vertex weights 1-3), each in a fresh "
            "process, parent and change alternating; peak RSS is the "
            "largest over the point's processes."),
        "command": ["python3", "scripts/structure_curve.py", "--sizes",
                    *map(str, args.sizes), "--repeats", str(args.repeats)],
        "seed": SEED,
        "points": points}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(p["agree"] for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
