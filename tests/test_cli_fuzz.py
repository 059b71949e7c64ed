"""Seeded mutation fuzzing of the CLI's input files.

Each run takes one well-formed input file (a graph, divisor, potential,
tree, special fiber or split plan), changes one place in it (a value
replaced by an odd one, a key or list item dropped, or a key renamed) and
runs `cli.main` in process on a command that reads it.  Whatever the file
holds, the CLI must answer with an exit code and never a traceback: 0
with output, or 1 (malformed input) or 2 (a precondition) with an
`error:` line and no output, and never 3 (a failed internal check).  An
exit 2 must carry one of the preconditions listed below.
"""

import copy
import json
import random
import re

from chipfire.cli import main

# v1 (weight 2) and two weight-2 edges to it, a weight-1 edge and a loop:
# genus 3, so `reduce` takes degree 2
GRAPH = {"vertices": [{"id": "v1", "weight": 2}, {"id": "v2", "weight": 1},
                      {"id": "v3"}],
         "edges": [{"id": "a", "ends": ["v1", "v2"], "weight": 2},
                   {"id": "b", "ends": ["v1", "v3"], "weight": 2},
                   {"id": "c", "ends": ["v2", "v3"], "weight": 1},
                   {"id": "l", "ends": ["v3", "v3"]}],
         "ribbon": {"v1": ["a", "b"], "v2": ["a", "c"],
                    "v3": ["b", "l:0", "c", "l:1"]}}
DIVISOR = {"coefficients": {"v1": 2, "v2": 0, "v3": 0}}
ZERO = {"coefficients": {"v1": 0, "v2": 1, "v3": -1}}
POTENTIAL = {"potential": {"v1": 1, "v2": 0, "v3": -2}}
TREE = {"tree": ["a", "b"], "sigma": {"a": 1, "b": 2, "c": 1, "l": 1},
        "root": "v2", "start": "a"}
ROOTS_TREE = {"tree": ["b", "c"], "sigma": {"a": 2, "b": 1, "c": 1, "l": 1},
              "roots": ["v3"], "starts": {"v3": "l:1"}}
PLAN = {"parts": {"a": [[0, 1], [1, 1]], "b": [[1, 2]]}}
FIBER = {"components": [{"id": "C", "index": 2}, {"id": "D"}],
         "nodes": [{"id": "p", "ends": ["C", "D"], "degree": 2},
                   {"id": "q", "ends": ["C", "D"], "degree": 4},
                   {"id": "r", "ends": ["D", "D"]}]}

# per file kind: the commands that read it, each with the other files it
# reads, left well-formed
GRAPH_COMMANDS = [
    ["validate"], ["validate", "--format", "dot"], ["genus", "--json"],
    ["group"], ["group", "--picb0"], ["count", "--picb0"], ["trees"],
    ["trees", "--balanced"], ["laplacian"],
    ["laplacian", "--divisor", POTENTIAL], ["reduce", "--divisor", DIVISOR],
    ["reduce", "--divisor", DIVISOR, "--root", "v3", "--start", "l:1"],
    ["act", "--divisor", ZERO, "--tree", TREE], ["expand"],
    ["rewrite", "add-leaf", "--vertex", "v1", "--edge-weight", "2",
     "--leaf-weight", "2"],
    ["rewrite", "split-edge", "--edge", "b", "--parts", "2"],
    ["rewrite", "shrink", "--vertex", "v1", "--weight", "1"],
    ["rewrite", "split-vertex", "--vertex", "v1", "--copies", "2",
     "--plan", PLAN],
]
FILE_COMMANDS = {
    "graph": [[*argv[:1], "--graph", None, *argv[1:]] for argv in GRAPH_COMMANDS],
    "divisor": [["reduce", "--graph", GRAPH, "--divisor", None],
                ["act", "--graph", GRAPH, "--divisor", None, "--tree", TREE]],
    "potential": [["laplacian", "--graph", GRAPH, "--divisor", None]],
    "tree": [["act", "--graph", GRAPH, "--divisor", ZERO, "--tree", None]],
    "fiber": [["fiber", "--fiber", None]],
    "plan": [["rewrite", "--graph", GRAPH, "split-vertex", "--vertex", "v1",
              "--copies", "2", "--plan", None]],
}
BASE = {"graph": [GRAPH], "divisor": [DIVISOR, ZERO],
        "potential": [POTENTIAL, {"coefficients": POTENTIAL["potential"]}],
        "tree": [TREE, ROOTS_TREE], "fiber": [FIBER], "plan": [PLAN]}

# these write output, or walk boxes of sigma, that grow with a weight, so
# their odd ints stop at 10^3 (10^30 would take minutes)
HEAVY = {"trees", "fiber", "expand", "act", "reduce"}

ODD = [None, True, False, 0, -1, 1, 2, 3, 0.5, 1.0, -2.5, "", "x", "1",
       "v1", "a", "l:0", "v1:0", [], [1], ["v1"], [["a"]], {}, {"id": "v1"},
       {"v1": 1}]

# every message that an exit 2 may carry: a relation between valid values
PRECONDITIONS = re.compile("|".join([
    r"[a-z ]+ requires a pleasant weighting",
    r"reduce needs degree -?\d+, got -?\d+",
    r"no representative: per-component degrees must equal genus - 1",
    r"torsor action needs a divisor of degree 0 on each component",
    r"leaf edge weight must be divisible by both endpoint weights",
    r"parts must sum to the weight of the split edge",
    r"part weight \d+ is not divisible by the weight of .+",
    r"new weight must be a positive divisor of the old one",
    r"number of copies must divide the vertex weight",
    r"plan must cover exactly the edges at the split vertex",
    r"plan copy index out of range",
    r"plan parts for edge .+ must sum to its weight",
    r"plan parts for loop .+ need a pair of copy indices",
    r"plan parts for edge .+ need one copy index",
    r"the graph is not pleasant: .+",
    r"split plan breaks pleasantness",
]))

# each run's file kind, in turn: a graph file feeds every command
KINDS = ["graph", "graph", "graph", "divisor", "potential", "tree", "fiber",
         "plan"]
RUNS = 600


def _places(obj, path=()):
    """The path of every value inside obj, a JSON document."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from _places(v, path + (k,))


def _mutate(rng, doc, big):
    """A copy of doc with one place changed, and what changed."""
    doc = copy.deepcopy(doc)
    *where, last = rng.choice(list(_places(doc)))
    parent = doc
    for k in where:
        parent = parent[k]
    moves = ["replace", "drop"] + ["rename"] * isinstance(parent, dict)
    move = rng.choice(moves)
    if move == "replace":
        parent[last] = rng.choice(ODD + [big, -big])
        return doc, f"{[*where, last]} = {parent[last]!r}"
    value = parent.pop(last)
    if move == "drop":
        return doc, f"{[*where, last]} dropped"
    key = rng.choice(["", "x", "1", "true", last.upper(), last + "_",
                      *map(str, parent)])
    parent[key] = value
    return doc, f"{[*where, last]} renamed {key!r}"


def _files(argv, kind, mutated, tmp_path):
    """argv with each file object written to a file and replaced by its
    path, the mutated file in the place of None."""
    out = []
    for k, arg in enumerate(argv):
        if arg is None or isinstance(arg, (dict, list)):
            path = tmp_path / f"{kind}{k}.json"
            path.write_text(json.dumps(mutated if arg is None else arg))
            arg = str(path)
        out.append(arg)
    return out


def test_mutated_input_files_never_crash_the_cli(tmp_path, capsys):
    failures, codes = [], {0: 0, 1: 0, 2: 0}
    for seed in range(RUNS):
        rng = random.Random(seed)
        kind = KINDS[seed % len(KINDS)]
        argv = rng.choice(FILE_COMMANDS[kind])
        big = 10 ** 3 if argv[0] in HEAVY else 10 ** 30
        doc, change = _mutate(rng, rng.choice(BASE[kind]), big)
        command = " ".join(x if isinstance(x, str) else "FILE" for x in argv)
        case = f"seed {seed}: {kind} {change}, {command}"
        try:
            code = main(_files(argv, kind, doc, tmp_path))
        except Exception as exc:  # a traceback at the command line
            failures.append(f"{case}: raised {exc!r}")
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        if code not in codes:
            failures.append(f"{case}: exit {code}: {err}")
            continue
        codes[code] += 1
        if code == 0:
            ok = bool(out)
        else:
            ok = out == "" and err.startswith("error: ") and err.count("\n") == 1
        if code == 2:
            ok = ok and PRECONDITIONS.fullmatch(err[len("error: "):-1])
        if not ok:
            failures.append(f"{case}: exit {code}, {len(out)} bytes out, {err!r}")
    assert failures == []
    # every outcome is reached, so the mutations reach past the first checks
    assert min(codes.values()) >= 20, codes
