import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from chipfire import WeightedMultigraph, bernardi, picard, serialize
from chipfire.cli import _build_parser, _parse, main
from chipfire.errors import InternalError
from chipfire.graphs import is_int

TW_OBJ = {
    "vertices": [{"id": "v1", "weight": 2}, {"id": "v2", "weight": 1},
                 {"id": "v3", "weight": 1}],
    "edges": [{"id": "a", "ends": ["v1", "v2"], "weight": 2},
              {"id": "b", "ends": ["v1", "v3"], "weight": 2},
              {"id": "c", "ends": ["v2", "v3"], "weight": 1}],
}


@pytest.fixture
def tw_file(tmp_path):
    path = tmp_path / "tw.json"
    path.write_text(json.dumps(TW_OBJ))
    return str(path)


def _write(tmp_path, name, obj):
    """A file of obj's JSON text, or of obj itself if it is bytes."""
    path = tmp_path / name
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_picb0(tw_file, capsys):
    code, out, _ = _run(capsys, "group", "--graph", tw_file, "--picb0")
    assert code == 0
    assert json.loads(out) == {"invariant_factors": [4], "order": 4}


def test_count(tw_file, capsys):
    code, out, _ = _run(capsys, "count", "--graph", tw_file)
    assert code == 0 and out == "8\n"
    code, out, _ = _run(capsys, "count", "--graph", tw_file, "--picb0")
    assert code == 0 and out == "4\n"


def test_genus(tw_file, capsys):
    code, out, _ = _run(capsys, "genus", "--graph", tw_file)
    assert code == 0 and out == "2\n"
    code, out, _ = _run(capsys, "genus", "--graph", tw_file, "--json")
    assert json.loads(out) == {"genus": 2, "component_genera": [2]}


def test_validate(tw_file, capsys):
    code, out, _ = _run(capsys, "validate", "--graph", tw_file)
    assert code == 0
    assert json.loads(out) == {"pleasant": True, "connected": True,
                               "issues": []}


def test_act(tw_file, tmp_path, capsys):
    d = _write(tmp_path, "d.json",
               {"coefficients": {"v1": 2, "v2": -1, "v3": -1}})
    t = _write(tmp_path, "t.json",
               {"tree": ["a", "b"], "sigma": {"a": 2, "b": 2, "c": 1},
                "root": "v2", "start": "a"})
    code, out, _ = _run(capsys, "act", "--graph", tw_file,
                        "--divisor", d, "--tree", t)
    assert code == 0
    obj = json.loads(out)
    assert obj["tree"] == ["b", "c"]
    assert obj["sigma"] == {"a": 2, "b": 2, "c": 1}


def test_reduce(tw_file, tmp_path, capsys):
    d = _write(tmp_path, "d.json",
               {"coefficients": {"v1": 2, "v2": -2, "v3": 1}})
    code, out, _ = _run(capsys, "reduce", "--graph", tw_file, "--divisor", d,
                        "--root", "v2", "--start", "a")
    assert code == 0
    obj = json.loads(out)
    assert obj["tree"]["tree"] == ["b", "c"]


def test_laplacian(tw_file, tmp_path, capsys):
    code, out, _ = _run(capsys, "laplacian", "--graph", tw_file)
    assert json.loads(out)["laplacian"] == [[4, -2, -2], [-2, 3, -1],
                                            [-2, -1, 3]]
    f = _write(tmp_path, "f.json", {"potential": {"v1": 0, "v2": 0, "v3": 1}})
    code, out, _ = _run(capsys, "laplacian", "--graph", tw_file,
                        "--divisor", f)
    assert json.loads(out)["coefficients"] == {"v1": -2, "v2": -1, "v3": 3}


def test_trees(tw_file, capsys):
    code, out, _ = _run(capsys, "trees", "--graph", tw_file)
    assert len(json.loads(out)["representatives"]) == 8
    code, out, _ = _run(capsys, "trees", "--graph", tw_file, "--balanced")
    assert len(json.loads(out)["representatives"]) == 4


def test_expand(tw_file, capsys):
    code, out, _ = _run(capsys, "expand", "--graph", tw_file)
    obj = json.loads(out)
    assert len(obj["graph"]["edges"]) == 5
    assert obj["copy_of"]["a#1"] == ["a", 1]


def test_rewrite_round_trip(tw_file, capsys):
    code, out, _ = _run(capsys, "rewrite", "--graph", tw_file, "shrink",
                        "--vertex", "v1", "--weight", "1")
    assert code == 0
    g = serialize.graph_from_obj(json.loads(out))
    assert g.vertex_weight["v1"] == 1


def test_fiber(tmp_path, capsys):
    f = _write(tmp_path, "f.json", {
        "components": [{"id": "v1", "index": 2}, {"id": "v2", "index": 1},
                       {"id": "v3", "index": 1}],
        "nodes": [{"id": "a", "ends": ["v1", "v2"], "degree": 2},
                  {"id": "b", "ends": ["v1", "v3"], "degree": 2},
                  {"id": "c", "ends": ["v2", "v3"], "degree": 1}]})
    code, out, _ = _run(capsys, "fiber", "--fiber", f)
    assert code == 0
    obj = json.loads(out)
    assert obj["group"] == {"invariant_factors": [4], "order": 4}
    assert len(obj["representatives"]) == 4
    assert "component group" in obj["phi_note"]


def test_dot_output(tw_file, capsys):
    code, out, _ = _run(capsys, "validate", "--graph", tw_file,
                        "--format", "dot")
    assert code == 0
    assert out.startswith("graph {") and '"v1" -- "v2"' in out


# ids with a double quote, a trailing backslash, and true, which JSON writes
# as "true"; plus a numeric id, which DOT writes as before
QUOTED = {"vertices": [{"id": 'a"b'}, {"id": "v\\"}, {"id": True},
                       {"id": 7}],
          "edges": [{"id": 'e"1', "ends": ['a"b', "v\\"]},
                    {"id": "f\\", "ends": ["v\\", True]},
                    {"id": False, "ends": [True, 'a"b']},
                    {"id": 3, "ends": [7, True]}]}


@pytest.mark.parametrize("command, extra", [
    ("validate", []), ("rewrite", ["shrink", "--vertex", "true",
                                   "--weight", "1"])])
def test_dot_output_escapes_quoted_ids(tmp_path, capsys, command, extra):
    code, out, err = _run(capsys, command, "--graph",
                          _write(tmp_path, "g.json", QUOTED), "--format",
                          "dot", *extra)
    assert code == 0, err
    assert out == "\n".join([
        'graph {',
        '  "a\\"b" [label="a\\"b (1)"];',
        '  "v\\\\" [label="v\\\\ (1)"];',
        '  "true" [label="true (1)"];',
        '  "7" [label="7 (1)"];',
        '  "a\\"b" -- "v\\\\" [label="e\\"1 (1)"];',
        '  "v\\\\" -- "true" [label="f\\\\ (1)"];',
        '  "true" -- "a\\"b" [label="false (1)"];',
        '  "7" -- "true" [label="3 (1)"];',
        '}', ''])


def test_byte_identical_output(tw_file, capsys):
    _, out1, _ = _run(capsys, "trees", "--graph", tw_file)
    _, out2, _ = _run(capsys, "trees", "--graph", tw_file)
    assert out1 == out2


def test_exit_codes(tw_file, tmp_path, capsys):
    code, _, err = _run(capsys, "group", "--graph", str(tmp_path / "no.json"))
    assert code == 1 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, _ = _run(capsys, "group", "--graph", str(bad))
    assert code == 1
    # degree precondition violated -> 2
    d = _write(tmp_path, "d.json", {"coefficients": {"v1": 0, "v2": 0, "v3": 0}})
    code, _, err = _run(capsys, "reduce", "--graph", tw_file, "--divisor", d)
    assert code == 2
    # unknown subcommand -> 1
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 1


def test_reused_parser_keeps_usage_errors_and_help(tw_file, capsys):
    # the parser is built once per process; earlier calls leave no trace
    helps = []
    for _ in range(2):
        code, _, err = _run(capsys, "count", "--graph", tw_file, "--pic0",
                            "--picb0")
        assert code == 1 and "not allowed with argument" in err
        code, _, err = _run(capsys, "rewrite", "--graph", tw_file)
        assert code == 1 and "required" in err
        code, out, _ = _run(capsys, "count", "--graph", tw_file)
        assert code == 0 and out == "8\n"
        code, out, _ = _run(capsys, "rewrite", "--help")
        assert code == 0
        helps.append(out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: chipfire rewrite")


DISPATCH = {
    "help": ["-h"],
    "no-arguments": [],
    "unknown-subcommand": ["frobnicate", "--graph", "g.json"],
    "missing-required-option": ["group", "--pic0"],
    "option-missing-its-value": ["validate", "--graph"],
    "bad-choice": ["validate", "--graph", "g.json", "--format", "xml"],
    "bad-int": ["selfcheck", "--seed", "x"],
    "trailing-unknown-after-validate": ["validate", "--graph", "g.json", "--bogus"],
    "trailing-unknowns-after-add-leaf": [
        "rewrite", "--graph", "g.json", "add-leaf", "--vertex", "v1", "x",
        "--bogus"],
    "unknown-before-rewrite-named": ["rewrite", "--bogus", "--graph", "g.json",
                                     "shrink", "--vertex", "v", "--weight", "1"],
    "option-before-subcommand": ["--graph", "g.json", "validate"],
    "pic0-and-picb0": ["count", "--graph", "g.json", "--pic0", "--picb0"],
    "no-rewrite-named": ["rewrite", "--graph", "g.json"],
    "subcommand-help": ["rewrite", "--help"],
    "rewrite-help": ["rewrite", "--graph", "g.json", "split-vertex", "-h"],
}


def _exit_of(call):
    """call()'s exit code, as main returns it, or 0 if it returns."""
    try:
        call()
    except SystemExit as exc:
        return exc.code or 0
    return 0


@pytest.mark.parametrize("argv", DISPATCH.values(), ids=DISPATCH)
def test_dispatch_answers_as_the_top_level_parser(capsys, argv):
    # main hands argv to the subcommand's parser; every usage error and
    # help text must stay that of the top-level parser's parse_args
    want = (_exit_of(lambda: _build_parser().parse_args(argv)),
            *capsys.readouterr())
    assert _run(capsys, *argv) == want
    assert want[0] == 0 or want[2].startswith("usage: chipfire")


@pytest.mark.parametrize("argv", [
    ["validate", "--graph", "g.json"],
    ["count", "--graph", "g.json", "--picb0", "--json"],
    ["rewrite", "--format", "dot", "--graph", "g.json", "split-edge",
     "--edge", "7", "--parts", "2,2"],
    ["selfcheck", "--max-vertices", "2"],
])
def test_dispatch_parses_as_the_top_level_parser(argv):
    want = vars(_build_parser().parse_args(argv))
    assert want.pop("command") == argv[0]
    assert vars(_parse(argv)) == want


def test_validate_output_does_not_depend_on_the_hash_seed(tmp_path):
    # one edge, two issues: their order must follow the edge's ends
    path = _write(tmp_path, "g.json", {
        "vertices": [{"id": "p", "weight": 2}, {"id": "q", "weight": 2}],
        "edges": [{"id": "e", "ends": ["p", "q"], "weight": 3}]})
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "chipfire.cli", "validate", "--graph", path],
            capture_output=True, text=True, env=env, check=False, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    issues = json.loads(outs[0])["issues"]
    assert len(issues) == 2 and "'p'" in issues[0] and "'q'" in issues[1]


def test_act_needs_degree_zero_on_each_component(tmp_path, capsys):
    two = {"vertices": [{"id": v} for v in "abcd"],
           "edges": [{"id": "ab", "ends": ["a", "b"], "weight": 2},
                     {"id": "cd", "ends": ["c", "d"], "weight": 2}]}
    tree = {"tree": ["ab", "cd"], "sigma": {"ab": 1, "cd": 1},
            "roots": ["a", "c"]}
    argv = ["act", "--graph", _write(tmp_path, "g.json", two),
            "--tree", _write(tmp_path, "t.json", tree), "--divisor"]
    bad = {"coefficients": {"a": 1, "b": 0, "c": -1, "d": 0}}
    code, out, err = _run(capsys, *argv, _write(tmp_path, "d.json", bad))
    assert (code, out) == (2, "") and "degree 0 on each component" in err
    good = {"coefficients": {"a": 1, "b": -1, "c": 0, "d": 0}}
    code, out, _ = _run(capsys, *argv, _write(tmp_path, "d0.json", good))
    assert code == 0 and json.loads(out)["roots"] == ["a", "c"]


# the unweighted triangle: e = a-b, f = a-c, h = b-c
TRIANGLE = {"vertices": [{"id": v} for v in "abc"],
            "edges": [{"id": "e", "ends": ["a", "b"]},
                      {"id": "f", "ends": ["a", "c"]},
                      {"id": "h", "ends": ["b", "c"]}]}


@pytest.mark.parametrize("keys, named", [
    ({"starts": {"a": "f"}}, ["'starts'", "'roots'"]),
    ({"root": "b", "roots": ["a"]}, ["'root'", "'roots'"]),
    ({"start": "e", "roots": ["a"]}, ["'start'", "'roots'"]),
    ({"start": "f"}, ["'start'", "'root'"]),
], ids=["starts-without-roots", "root-with-roots", "start-with-roots",
        "start-without-root"])
def test_tree_root_keys_that_do_not_pair_exit_1(tmp_path, capsys, keys, named):
    # each was read as another root or start, or as a start for None
    tree = {"tree": ["e", "f"], "sigma": {"e": 1, "f": 1, "h": 1}, **keys}
    code, out, err = _run(
        capsys, "act", "--graph", _write(tmp_path, "g.json", TRIANGLE),
        "--divisor", _write(tmp_path, "d.json",
                            {"coefficients": {"a": 1, "b": -1}}),
        "--tree", _write(tmp_path, "t.json", tree))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and all(k in err for k in named)


# vertex ids "a" and 2, edge ids 7 and "f"; JSON writes 2 and 7 as the
# object keys "2" and "7", and the command line gives them as text
NUMERIC = {"vertices": [{"id": "a"}, {"id": 2, "weight": 2}],
           "edges": [{"id": 7, "ends": ["a", 2], "weight": 4},
                     {"id": "f", "ends": ["a", 2], "weight": 2}]}


@pytest.mark.parametrize("extra, root", [([], "a"),
                                         (["--root", "2", "--start", "7"], 2)])
def test_numeric_ids_round_trip_from_reduce_to_act(tmp_path, capsys, extra,
                                                   root):
    g = _write(tmp_path, "g.json", NUMERIC)
    d = _write(tmp_path, "d.json", {"coefficients": {"a": 1, "2": 2}})
    code, out, err = _run(capsys, "reduce", "--graph", g, "--divisor", d,
                          *extra)
    assert code == 0, err
    tree = json.loads(out)["tree"]
    assert (tree["root"], tree["start"]) == (root, 7)
    assert set(tree["sigma"]) == {"7", "f"}
    t = _write(tmp_path, "t.json", tree)
    zero = _write(tmp_path, "z.json", {"coefficients": {"a": 0, "2": 0}})
    code, out, err = _run(capsys, "act", "--graph", g, "--divisor", zero,
                          "--tree", t)
    assert code == 0 and json.loads(out) == tree, err
    moved = _write(tmp_path, "m.json", {"coefficients": {"a": 1, "2": -1}})
    code, out, err = _run(capsys, "act", "--graph", g, "--divisor", moved,
                          "--tree", t)
    assert code == 0 and json.loads(out) != tree, err


def test_a_potential_names_a_numeric_vertex(tmp_path, capsys):
    code, out, err = _run(
        capsys, "laplacian", "--graph", _write(tmp_path, "g.json", NUMERIC),
        "--divisor", _write(tmp_path, "f.json", {"potential": {"a": 1, "2": 0}}))
    assert code == 0, err
    assert json.loads(out) == {"coefficients": {"a": 6, "2": -6}}


@pytest.mark.parametrize("argv, plan, vertices, edges", [
    (["add-leaf", "--vertex", "2", "--edge-weight", "2"], None,
     ["a", 2, "2_leaf"], [7, "f", "2_stem"]),
    (["shrink", "--vertex", "2", "--weight", "1"], None, ["a", 2], [7, "f"]),
    (["split-edge", "--edge", "7", "--parts", "2,2"], None,
     ["a", 2], ["7.1", "7.2", "f"]),
    (["split-vertex", "--vertex", "2", "--copies", "2"],
     {"parts": {"7": [[0, 2], [1, 2]], "f": [[0, 1], [1, 1]]}},
     ["a", "2_1", "2_2"], ["7.1", "7.2", "f.1", "f.2"]),
], ids=["add-leaf", "shrink", "split-edge", "split-vertex"])
def test_rewrites_name_numeric_ids(tmp_path, capsys, argv, plan, vertices,
                                   edges):
    if plan is not None:
        argv = [*argv, "--plan", _write(tmp_path, "p.json", plan)]
    code, out, err = _run(capsys, "rewrite", "--graph",
                          _write(tmp_path, "g.json", NUMERIC), *argv)
    assert code == 0, err
    obj = json.loads(out)
    assert [v["id"] for v in obj["vertices"]] == vertices
    assert [e["id"] for e in obj["edges"]] == edges


# new ids are told apart from the old by their JSON key text, and built
# from it: edge 3 splits into "3.12" and "3.2", since the number 3.1 is
# written as the key "3.1"; vertex true grows "true_leaf", not "True_leaf"
ODD_IDS = {"vertices": [{"id": True, "weight": 2}, {"id": "u"}],
           "edges": [{"id": 3, "ends": [True, "u"], "weight": 4},
                     {"id": 3.1, "ends": [True, "u"], "weight": 2},
                     {"id": "3#1", "ends": ["u", "u"]}]}


@pytest.mark.parametrize("argv, plan, vertices, edges", [
    (["split-edge", "--edge", "3", "--parts", "2,2"], None,
     [True, "u"], ["3.12", "3.2", 3.1, "3#1"]),
    (["add-leaf", "--vertex", "true", "--edge-weight", "2"], None,
     [True, "u", "true_leaf"], [3, 3.1, "3#1", "true_stem"]),
    (["split-vertex", "--vertex", "true", "--copies", "2"],
     {"parts": {"3": [[0, 2], [1, 2]], "3.1": [[1, 2]]}},
     ["true_1", "true_2", "u"], ["3.12", "3.2", 3.1, "3#1"]),
], ids=["split-edge", "add-leaf", "split-vertex"])
def test_rewrites_name_new_ids_by_json_key_text(tmp_path, capsys, argv, plan,
                                                vertices, edges):
    if plan is not None:
        argv = [*argv, "--plan", _write(tmp_path, "p.json", plan)]
    code, out, err = _run(capsys, "rewrite", "--graph",
                          _write(tmp_path, "g.json", ODD_IDS), *argv)
    assert code == 0, err
    obj = json.loads(out)
    assert [v["id"] for v in obj["vertices"]] == vertices
    assert [e["id"] for e in obj["edges"]] == edges
    path = tmp_path / "out.json"
    path.write_text(out)
    assert _run(capsys, "validate", "--graph", str(path))[0] == 0


def test_expand_names_copies_by_json_key_text(tmp_path, capsys):
    # edge 3's first copy would be "3#1", which the loop already is
    code, out, err = _run(capsys, "expand", "--graph",
                          _write(tmp_path, "g.json", ODD_IDS))
    assert code == 0, err
    obj = json.loads(out)
    assert [e["id"] for e in obj["graph"]["edges"]] == [
        "3#12", "3#2", "3#3", "3#4", "3.1#1", "3.1#2", "3#1"]
    assert obj["copy_of"]["3#12"] == [3, 1]
    assert obj["copy_of"]["3.1#2"] == [3.1, 2]


# loops 8, "l" and true at u; a loop's half-edges are written by the
# loop's JSON key text, as "8:0" and "true:1"
LOOPS = {"vertices": [{"id": "u", "weight": 2}, {"id": "v"}],
         "edges": [{"id": eid, "ends": ends, "weight": 2}
                   for eid, ends in ((8, ["u", "u"]), ("l", ["u", "u"]),
                                     (True, ["u", "u"]), ("e", ["u", "v"]))]}


@pytest.mark.parametrize("graph, argv", [
    (NUMERIC, ["add-leaf", "--vertex", "a"]),
    (LOOPS, ["shrink", "--vertex", "u", "--weight", "1"]),
], ids=["add-leaf", "shrink"])
def test_rewritten_numeric_ids_validate(tmp_path, capsys, graph, argv):
    code, out, err = _run(capsys, "rewrite", "--graph",
                          _write(tmp_path, "g.json", graph), *argv)
    assert code == 0, err
    path = tmp_path / "out.json"
    path.write_text(out)
    code, out, err = _run(capsys, "validate", "--graph", str(path))
    assert code == 0, err


def test_a_loop_start_names_the_loop_by_its_key_text(tmp_path, capsys):
    g = _write(tmp_path, "g.json", LOOPS)
    d = _write(tmp_path, "d.json", {"coefficients": {"u": 5, "v": 0}})
    code, out, err = _run(capsys, "reduce", "--graph", g, "--divisor", d,
                          "--root", "u", "--start", "true:0")
    assert code == 0, err
    tree = json.loads(out)["tree"]
    assert (tree["root"], tree["start"]) == ("u", "true:0")
    zero = _write(tmp_path, "z.json", {"coefficients": {"u": 0, "v": 0}})
    code, out, err = _run(capsys, "act", "--graph", g, "--divisor", zero,
                          "--tree", _write(tmp_path, "t.json", tree))
    assert code == 0 and json.loads(out) == tree, err
    code, out, err = _run(capsys, "reduce", "--graph", g, "--divisor", d,
                          "--root", "u", "--start", "True:0")
    assert (code, out) == (1, "") and "True:0" in err


TREE = {"tree": ["a", "b"], "sigma": {"a": 2, "b": 2, "c": 1}, "root": "v2",
        "start": "a"}
ZERO = {"coefficients": {"v1": 0, "v2": 0, "v3": 0}}
DEGREE_1 = {"coefficients": {"v1": 1, "v2": 0, "v3": 0}}
TRUE_WEIGHT = {**TW_OBJ, "vertices": [{"id": "v1", "weight": 2},
                                      {"id": "v2", "weight": True},
                                      {"id": "v3"}]}


def _act(tree, id, graph=TW_OBJ, divisor=ZERO):
    files = {"--graph": graph, "--divisor": divisor, "--tree": tree}
    return pytest.param("act", files, [], id=id)


def _reduce(extra, id, divisor=DEGREE_1):
    files = {"--graph": TW_OBJ, "--divisor": divisor}
    return pytest.param("reduce", files, extra, id=id)


def _group(graph, id):
    return pytest.param("group", {"--graph": graph}, [], id=id)


def _fiber(components, ends, id):
    fiber = {"components": components, "nodes": [{"id": "p", "ends": ends}]}
    return pytest.param("fiber", {"--fiber": fiber}, [], id=id)


TW_RIBBON = {"v1": ["a", "b"], "v2": ["a", "c"], "v3": ["b", "c"]}
# a loop's two half-edges must be listed as "l:0" and "l:1"
LOOP_ONCE = {"vertices": [{"id": "u"}, {"id": "v"}],
             "edges": [{"id": "l", "ends": ["u", "u"]},
                       {"id": "e", "ends": ["u", "v"]}],
             "ribbon": {"u": ["l", "e"], "v": ["e"]}}
# ids that JSON output would write as one object key
TWIN_VERTICES = {"vertices": [{"id": 1}, {"id": "1"}],
                 "edges": [{"id": "e", "ends": [1, "1"]}]}
TWIN_EDGES = {"vertices": [{"id": "u"}, {"id": "v"}],
              "edges": [{"id": 3, "ends": ["u", "v"]},
                        {"id": "3", "ends": ["u", "v"]}]}


@pytest.mark.parametrize("command, files, extra", [
    _act({**TREE, "sigma": {"a": 2, "b": 2}}, "sigma-missing"),
    _act({**TREE, "sigma": {"a": 3, "b": 2, "c": 1}}, "sigma-above-w"),
    _act({**TREE, "sigma": {"a": 2, "b": 2, "c": 2}}, "sigma-off-forest"),
    _act({**TREE, "sigma": {"a": True, "b": 2, "c": 1}}, "sigma-true"),
    _act({"tree": ["a", "b"], "sigma": TREE["sigma"], "root": "zz"},
         "root-unknown"),
    _act({**TREE, "start": "b"}, "start-not-at-root"),
    _act({"tree": ["a", "b"], "sigma": TREE["sigma"], "roots": ["zz"]},
         "roots-unknown"),
    _act({"tree": ["a", "b"], "sigma": TREE["sigma"], "roots": ["v1", "v2"]},
         "roots-share-component"),
    _act({"tree": ["a", "b"], "sigma": TREE["sigma"], "roots": [["v1"]]},
         "roots-unhashable"),
    _act({**TREE, "tree": ["a", "zz"]}, "tree-unknown-edge"),
    _act({**TREE, "tree": "ab"}, "tree-string"),
    _act({**TREE, "tree": ["a"]}, "tree-not-spanning"),
    _act(TREE, "weight-true", graph=TRUE_WEIGHT),
    _reduce(["--root", "zz"], "reduce-root-unknown"),
    _reduce(["--root", "v2", "--start", "b"], "reduce-start-not-at-root"),
    _reduce(["--start", "a"], "reduce-start-without-root"),
    _reduce([], "divisor-true",
            divisor={"coefficients": {"v1": True, "v2": 0, "v3": 0}}),
    _reduce([], "divisor-list", divisor=[DEGREE_1]),
    _reduce([], "divisor-unknown-vertex",
            divisor={"coefficients": {"v1": 2, "v2": -2, "v3": 1, "zz": 5}}),
    _act(TREE, "act-divisor-unknown-vertex",
         divisor={"coefficients": {"v1": 0, "v2": 0, "zz": 0}}),
    _act(TREE, "act-divisor-unknown-vertex-off-class",
         divisor={"coefficients": {"v1": 1, "v2": 0, "zz": -1}}),
    pytest.param("laplacian", {"--graph": TW_OBJ, "--divisor": {
        "potential": {"v1": 0, "v2": 0, "v3": 0, "zz": 7}}}, [],
        id="potential-unknown-vertex"),
    pytest.param("laplacian", {"--graph": TW_OBJ, "--divisor": {
        "coefficients": {"v1": 0, "v2": 0, "v3": 0, "zz": 7}}}, [],
        id="potential-coefficients-unknown-vertex"),
    pytest.param("laplacian", {"--graph": TW_OBJ, "--divisor": {
        "potential": {"v1": 0, "v2": 0, "v3": "3"}}}, [],
        id="potential-coefficient-string"),
    _group({**TW_OBJ, "ribbon": [TW_RIBBON["v1"]]}, "ribbon-list"),
    _group({**TW_OBJ, "ribbon": {**TW_RIBBON, "v1": [1, "b"]}}, "ribbon-token-int"),
    _group({**TW_OBJ, "ribbon": {"v1": ["a", "b"], "v2": ["a", "c"]}},
           "ribbon-omits-vertex"),
    _group(LOOP_ONCE, "ribbon-loop-bare-id"),
    _group({**TW_OBJ, "ribbon": {**TW_RIBBON, "v3": ["b", "a"]}},
           "ribbon-token-off-edge"),
    _group([TW_OBJ], "graph-list"),
    _group({**TW_OBJ, "vertices": ["v1", "v2", "v3"]}, "vertices-strings"),
    _group({**TW_OBJ, "edges": [{"id": "a", "ends": ["v1"]}]}, "ends-one"),
    _group({**TW_OBJ, "edges": [{"id": "a", "ends": ["v1", "v2", "v3"]}]},
           "ends-three"),
    _group({"vertices": [{"id": "a"}]}, "graph-no-edges"),
    _group({**TW_OBJ, "edges": [{"id": "a"}]}, "edge-no-ends"),
    _group({**TW_OBJ, "vertices": [{"id": ["v1"]}]}, "vertex-id-list"),
    _group(b"\xff\xfe" + json.dumps(TW_OBJ).encode(), "not-utf-8"),
    _group(b"[" * 2000 + b"]" * 2000, "nested-2000-deep"),
    pytest.param("fiber", {"--fiber": {
        "components": [{"id": "C"}],
        "nodes": [{"id": "p", "ends": ["C", "C"], "degree": "x"}]}}, [],
        id="fiber-degree-string"),
    _fiber([{"id": "C"}], "CC", "fiber-ends-string"),
    _fiber([{"id": "C"}], [["C"], "C"], "fiber-end-list"),
    _fiber([{"id": ["C"]}], ["C", "C"], "fiber-component-id-list"),
    pytest.param("fiber", {"--fiber": {"components": [{"id": "C"}]}}, [],
                 id="fiber-no-nodes"),
    pytest.param("fiber", {"--fiber": {"components": [{"id": "C"}],
                                       "nodes": [3]}}, [],
                 id="fiber-node-int"),
    _fiber([{"id": "C", "index": 0}], ["C", "C"], "fiber-index-0"),
    _fiber([{"id": "C", "index": "2"}], ["C", "C"], "fiber-index-string"),
    _fiber([{"id": "C"}], ["C", "D"], "fiber-unknown-component"),
    pytest.param("rewrite", {"--graph": TW_OBJ},
                 ["add-leaf", "--vertex", "v1", "--leaf-weight", "0"],
                 id="leaf-weight-zero"),
    pytest.param("rewrite", {"--graph": TW_OBJ},
                 ["add-leaf", "--vertex", "v1", "--leaf-weight", "-2"],
                 id="leaf-weight-negative"),
    pytest.param("rewrite", {"--graph": TW_OBJ},
                 ["split-edge", "--edge", "a", "--parts", "1,x"],
                 id="split-edge-parts-not-int"),
    pytest.param("rewrite", {"--graph": TWIN_VERTICES},
                 ["add-leaf", "--vertex", "1"], id="vertex-ids-twin"),
    pytest.param("trees", {"--graph": TWIN_EDGES}, [], id="edge-ids-twin"),
    _fiber([{"id": 1}, {"id": "1"}], [1, "1"], "fiber-component-ids-twin"),
    pytest.param("fiber", {"--fiber": {
        "components": [{"id": "C"}],
        "nodes": [{"id": 3, "ends": ["C", "C"]},
                  {"id": "3", "ends": ["C", "C"]}]}}, [],
        id="fiber-node-ids-twin"),
    # a family with no graph would PASS every criterion
    pytest.param("selfcheck", {}, ["--max-vertices", "0"], id="max-vertices-0"),
    pytest.param("selfcheck", {}, ["--max-vertices", "-3"],
                 id="max-vertices-negative"),
    pytest.param("selfcheck", {}, ["--max-weight", "0"], id="max-weight-0"),
    pytest.param("selfcheck", {}, ["--max-edges", "-1"], id="max-edges-negative"),
])
def test_malformed_input_exits_1(tmp_path, capsys, command, files, extra):
    argv = [command]
    for k, (flag, obj) in enumerate(files.items()):
        argv += [flag, _write(tmp_path, f"in{k}.json", obj)]
    code, out, err = _run(capsys, *argv, *extra)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    if command == "laplacian":
        potential, = files["--divisor"].values()
        assert ("potential mentions" if all(map(is_int, potential.values()))
                else "potential coefficients must be integers") in err
    if "--start" in extra and "--root" not in extra:
        assert "--start" in err and "--root" in err
    if command == "selfcheck":
        assert extra[0] in err


@pytest.mark.parametrize("command, obj, message", [
    ("group", {"vertices": [{"id": "a"}]},
     'malformed graph object: it needs a list under "edges"'),
    ("group", [TW_OBJ],
     'malformed graph object: it needs a list under "vertices"'),
    ("group", {**TW_OBJ, "vertices": ["v1", "v2", "v3"]},
     'malformed graph object: every vertex needs an "id"'),
    ("group", {**TW_OBJ, "edges": [{"id": "a"}]},
     'malformed graph object: every edge needs an "id" and "ends"'),
    ("group", {**TW_OBJ, "vertices": [{"id": ["v1"]}]},
     'malformed graph object: every "id" must be a string, number, boolean '
     "or null"),
    ("fiber", {"components": [{"id": "C"}], "nodes": [3]},
     'malformed fiber object: every node needs an "id" and "ends"'),
    ("fiber", {"components": [{"id": "C"}]},
     'malformed fiber object: it needs a list under "nodes"'),
    ("fiber", {"nodes": [], "components": [{"index": 2}]},
     'malformed fiber object: every component needs an "id"'),
], ids=["graph-no-edges", "graph-list", "vertices-strings", "edge-no-ends",
        "vertex-id-list", "fiber-node-int", "fiber-no-nodes",
        "fiber-component-no-id"])
def test_a_malformed_object_names_the_field(tmp_path, capsys, command, obj,
                                            message):
    flag = "--graph" if command == "group" else "--fiber"
    code, out, err = _run(capsys, command, flag,
                          _write(tmp_path, "in.json", obj))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("graph, argv, files", [
    (TW_OBJ, ["validate"], {}),
    ({"vertices": [{"id": "p", "weight": 2}, {"id": 'q"é', "weight": 2}],
        "edges": [{"id": "e", "ends": ["p", 'q"é'], "weight": 3}]},
     ["validate"], {}),
    (TW_OBJ, ["genus", "--json"], {}),
    (TW_OBJ, ["group", "--picb0"], {}),
    (TW_OBJ, ["count", "--json"], {}),
    (TW_OBJ, ["laplacian"], {}),
    (TW_OBJ, ["laplacian"],
     {"--divisor": {"potential": {"v1": 1, "v2": 0, "v3": -2}}}),
    (TW_OBJ, ["reduce"], {"--divisor": DEGREE_1}),
    (TW_OBJ, ["act"], {"--divisor": ZERO, "--tree": TREE}),
    (TW_OBJ, ["expand"], {}),
    (NUMERIC, ["reduce", "--root", "2", "--start", "7"],
     {"--divisor": {"coefficients": {"a": 1, "2": 2}}}),
    (ODD_IDS, ["expand"], {}),
    (ODD_IDS, ["rewrite", "add-leaf", "--vertex", "true", "--edge-weight", "2"],
     {}),
    (LOOPS, ["rewrite", "shrink", "--vertex", "u", "--weight", "1"], {}),
    (LOOPS, ["reduce", "--root", "u", "--start", "true:0"],
     {"--divisor": {"coefficients": {"u": 5, "v": 0}}}),
], ids=["validate", "validate-issues", "genus", "group", "count", "laplacian",
        "laplacian-potential", "reduce", "act", "expand", "reduce-numeric",
        "expand-odd-ids", "add-leaf", "shrink", "reduce-loop-start"])
def test_every_output_is_what_json_dumps_writes(tmp_path, capsys, monkeypatch,
                                                graph, argv, files):
    # trees and fiber stream their text; test_serialize holds it to dumps
    dumps, written = serialize.dumps, []

    def checked(obj):
        text = dumps(obj)
        assert text == json.dumps(obj, indent=2) + "\n"
        written.append(text)
        return text

    monkeypatch.setattr(serialize, "dumps", checked)
    argv = [argv[0], "--graph", _write(tmp_path, "g.json", graph), *argv[1:]]
    for k, (flag, obj) in enumerate(files.items()):
        argv += [flag, _write(tmp_path, f"in{k}.json", obj)]
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert written == [out]


@pytest.mark.parametrize("fiber, message", [
    ({"components": [{"id": 1}, {"id": "1"}],
      "nodes": [{"id": "p", "ends": [1, "1"]}]},
     "component ids 1 and '1' are the same key in JSON output"),
    ({"components": [{"id": "C"}],
      "nodes": [{"id": 3, "ends": ["C", "C"]}, {"id": "3", "ends": ["C", "C"]}]},
     "node ids 3 and '3' are the same key in JSON output"),
])
def test_fiber_twin_ids_name_components_and_nodes(tmp_path, capsys, fiber,
                                                  message):
    code, out, err = _run(capsys, "fiber", "--fiber",
                          _write(tmp_path, "f.json", fiber))
    assert (code, out, err) == (1, "", f"error: {message}\n")


# not pleasant: the edges at a and b have weights that 2 and 3 do not divide
NOT_PLEASANT = {
    "vertices": [{"id": "a", "weight": 2}, {"id": "b", "weight": 3},
                 {"id": "c", "weight": 1}],
    "edges": [{"id": "ab", "ends": ["a", "b"], "weight": 5},
              {"id": "bc", "ends": ["b", "c"], "weight": 4},
              {"id": "ac", "ends": ["a", "c"], "weight": 2},
              {"id": "aa", "ends": ["a", "a"], "weight": 3}]}


@pytest.mark.parametrize("argv", [["count", "--picb0"], ["group", "--picb0"],
                                  ["trees", "--balanced"]],
                         ids=["count-picb0", "group-picb0", "trees-balanced"])
def test_balanced_answers_need_a_pleasant_graph(tmp_path, capsys, argv):
    path = _write(tmp_path, "g.json", NOT_PLEASANT)
    code, out, err = _run(capsys, argv[0], "--graph", path, *argv[1:])
    assert (code, out) == (2, "")
    assert err.endswith("requires a pleasant weighting\n")
    code, out, _ = _run(capsys, argv[0], "--graph", path)
    assert code == 0 and out


def test_potential_missing_a_vertex_exits_1(tmp_path, capsys):
    g = {"vertices": [{"id": "u"}, {"id": "v"}],
         "edges": [{"id": "e", "ends": ["u", "v"]}]}
    code, out, err = _run(capsys, "laplacian",
                          "--graph", _write(tmp_path, "g.json", g),
                          "--divisor", _write(tmp_path, "f.json",
                                              {"potential": {"v": 1}}))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "undefined" in err


# v (weight 2) with a weight-2 loop l and a weight-2 edge e to u
SPLIT_G = {"vertices": [{"id": "v", "weight": 2}, {"id": "u"}],
           "edges": [{"id": "l", "ends": ["v", "v"], "weight": 2},
                     {"id": "e", "ends": ["v", "u"], "weight": 2}]}
LOOP_OK = [[[0, 1], 2]]
EDGE_OK = [[0, 1], [1, 1]]
OUT_OF_RANGE = "plan copy index out of range"


def _plan(loop, edge, code, id, copies=2, message="malformed split plan"):
    return pytest.param({"parts": {"l": loop, "e": edge}}, code, copies,
                        message, id=id)


@pytest.mark.parametrize("plan, code, copies, message", [
    _plan(LOOP_OK, EDGE_OK, 0, "well-formed"),
    _plan([[[-1, 0], 2]], EDGE_OK, 2, "loop-copy-negative",
          message=OUT_OF_RANGE),
    _plan(LOOP_OK, [[True, 1], [1, 1]], 1, "copy-true"),
    _plan([[[5, 0], 2]], EDGE_OK, 2, "loop-copy-above-r",
          message=OUT_OF_RANGE),
    _plan(LOOP_OK, [["x", 1], [1, 1]], 1, "copy-string"),
    _plan([[0, 2]], EDGE_OK, 2, "loop-copy-not-a-pair",
          message="plan parts for loop 'l' need a pair of copy indices"),
    _plan(LOOP_OK, [[0, "x"], [1, 1]], 1, "weight-string",
          message="part weight at 'e' must be a positive integer"),
    _plan(LOOP_OK, [[0], [1, 1]], 1, "part-without-weight"),
    _plan([[[0, 1, 1], 2]], EDGE_OK, 1, "loop-copy-triple"),
    _plan([[[0, "x"], 2]], EDGE_OK, 1, "loop-copy-string"),
    _plan(LOOP_OK, [[[0, 1], 1], [1, 1]], 2, "edge-copy-pair",
          message="plan parts for edge 'e' need one copy index"),
    pytest.param({"parts": [["e", 0, 2]]}, 1, 2, "malformed split plan",
                 id="parts-list"),
    _plan([[[0, 0], 2]], [[0, 2]], 0, "one-copy", copies=1),
    _plan([[[0, 0], 2]], [[2, 2]], 2, "one-copy-index-2", copies=1,
          message=OUT_OF_RANGE),
])
def test_split_vertex_plans(tmp_path, capsys, plan, code, copies, message):
    got, out, err = _run(capsys, "rewrite",
                         "--graph", _write(tmp_path, "g.json", SPLIT_G),
                         "split-vertex", "--vertex", "v", "--copies",
                         str(copies),
                         "--plan", _write(tmp_path, "p.json", plan))
    assert got == code and "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ")
        assert message in err


# a (weight 2) with one weight-3 edge x: not pleasant until a is split in two
SPLIT_NOT_PLEASANT = {"vertices": [{"id": "a", "weight": 2}, {"id": "b"}],
                      "edges": [{"id": "x", "ends": ["a", "b"], "weight": 3}]}


@pytest.mark.parametrize("copies, parts, code", [
    (1, [[0, 3]], 2), (2, [[0, 1], [1, 2]], 0)],
    ids=["one-copy-names-the-graph", "two-copies-make-it-pleasant"])
def test_split_vertex_of_a_graph_that_is_not_pleasant(tmp_path, capsys,
                                                      copies, parts, code):
    got, out, err = _run(capsys, "rewrite",
                         "--graph", _write(tmp_path, "g.json",
                                           SPLIT_NOT_PLEASANT),
                         "split-vertex", "--vertex", "a", "--copies",
                         str(copies), "--plan",
                         _write(tmp_path, "p.json", {"parts": {"x": parts}}))
    if code:
        assert (got, out) == (2, "")
        assert err == ("error: the graph is not pleasant: edge 'x' has "
                       "weight 3, not divisible by weight 2 of vertex 'a'\n")
    else:
        assert (got, err) == (0, "")
        assert [v["weight"] for v in json.loads(out)["vertices"]] == [1, 1, 1]


def test_graph_json_round_trip(tw_file):
    g = serialize.graph_from_obj(TW_OBJ)
    assert serialize.graph_from_obj(serialize.graph_to_obj(g)) == g


def test_loop_ribbon_serialization():
    g = WeightedMultigraph.build(["v"], [("l", ("v", "v"))])
    obj = serialize.graph_to_obj(g)
    assert obj["ribbon"]["v"] == ["l:0", "l:1"]
    assert serialize.graph_from_obj(obj) == g


class _Sink:
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_trees_output_memory_does_not_grow_with_the_group(tmp_path, monkeypatch):
    """K5 with every edge weight 3 has 10,125 representatives; the CLI
    holds one forest's text at a time."""
    vertices = [str(i) for i in range(5)]
    path = tmp_path / "k5.json"
    path.write_text(json.dumps({
        "vertices": [{"id": v} for v in vertices],
        "edges": [{"id": u + v, "ends": [u, v], "weight": 3}
                  for u, v in itertools.combinations(vertices, 2)]}))
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["trees", "--graph", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size > 10125 * 200
    assert peak < 2 * 2**20


def test_selfcheck_with_no_edges_sweeps_the_one_vertex_graphs(capsys):
    code, out, _ = _run(capsys, "selfcheck", "--max-vertices", "1",
                        "--max-edges", "0")
    assert code == 0 and "FAIL" not in out
    assert "matrix-tree sweep" in out and "[3 graphs]" in out


SELFCHECK_GOLDEN = Path(__file__).resolve().parent / "data" / "selfcheck_v3_e4.txt"


def test_selfcheck_matches_its_golden_file(capsys):
    """`chipfire selfcheck --max-vertices 3 --max-edges 4` (1,774 graphs,
    about 3 s) against `tests/data/selfcheck_v3_e4.txt`, line by line.

    A change that alters selfcheck's stdout on purpose regenerates the file
    (`chipfire selfcheck --max-vertices 3 --max-edges 4 >
    tests/data/selfcheck_v3_e4.txt`) and says why in CHANGES.md."""
    code, out, err = _run(capsys, "selfcheck", "--max-vertices", "3",
                          "--max-edges", "4")
    assert (code, err) == (0, "")
    assert out.splitlines() == SELFCHECK_GOLDEN.read_text(
        encoding="utf-8").splitlines()


def test_selfcheck_prints_a_check_that_raises_as_its_failure(capsys,
                                                             monkeypatch):
    def fault(g):
        raise InternalError("no structure")
    monkeypatch.setattr(picard, "picb0_structure", fault)
    code, out, err = _run(capsys, "selfcheck", "--max-vertices", "1",
                          "--max-edges", "0")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  matrix-tree sweep: tree sum = determinant = Smith order = "
        "brute-force count (plain and balanced)  "
        "[3 failures, first: raised InternalError: no structure]"]
    # the raise ends each graph's later legs, which report no graph
    lines = out.splitlines()
    assert [line[line.rindex("["):] for line in lines[4:7]] == [
        "[0 graphs]", "[0 graphs]", "[0 graphs, 0 shrinks, 0 vertex splits]"]


def test_selfcheck_prints_a_single_example_that_raises_as_its_failure(
        capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise InternalError("no tour")
    monkeypatch.setattr(bernardi, "tour_forest", fault)
    code, out, err = _run(capsys, "selfcheck", "--max-vertices", "1",
                          "--max-edges", "0")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  triangle tours from v2 match the three reference orientations  "
        "[1 failures, first: raised InternalError: no tour]"]
