"""Smoke tests of the scripts under scripts/, which use the package's
public API: the weighted-triangle walkthrough, the CLI digest against its
golden file, and the smallest rung of each `scripts/curve.py` suite
(`reduce` and `structure`)."""

import contextlib
import io
import json
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN_DIGEST = Path(__file__).resolve().parent / "data" / "cli_digest_seed7.txt"


def test_walkthrough_counts_each_trees_sub_weightings():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(SCRIPTS / "tw_walkthrough.py"), run_name="__main__")
    counts = [line.split(": ", 1)[1] for line in out.getvalue().splitlines()
              if line.startswith("tree ")]
    assert counts == ["4 sub-weightings, 2 balanced",
                      "2 sub-weightings, 1 balanced",
                      "2 sub-weightings, 1 balanced"]
    assert "torsor: " in out.getvalue()


def test_cli_digest_without_a_seed_prints_its_usage():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "cli_digest.py")],
                          capture_output=True, text=True, check=False,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "usage: cli_digest.py SEED\n"


def test_cli_digest_matches_its_golden_file():
    """`scripts/cli_digest.py 7`, the exit code and stdout digest of each of
    the 1,620 CLI calls in the benchmark's `queries` pool for seed 7,
    against `tests/data/cli_digest_seed7.txt`.

    A change that alters CLI stdout or exit codes on purpose regenerates
    the file (`python3 scripts/cli_digest.py 7 >
    tests/data/cli_digest_seed7.txt`) and names each changed kind in
    CHANGES.md.  So does a benchmark change to the `queries` pool."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / "cli_digest.py"), "7"],
                          capture_output=True, text=True, check=False,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = proc.stdout.splitlines()
    want = GOLDEN_DIGEST.read_text(encoding="utf-8").splitlines()
    differ = [line.split()[:2] for line, old in zip(got, want) if line != old]
    assert not differ, (f"{len(differ)} ops differ; the first is index "
                        f"{differ[0][0]}, kind {differ[0][1]}")
    assert len(got) == len(want) == 1620


def test_structure_curve_smallest_rung(tmp_path):
    """`scripts/curve.py structure` at n = 40 only, this checkout against
    itself: one process per point, the count and both structures."""
    out = tmp_path / "bench.json"
    out.write_text('{"kept": 1}', encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "curve.py"), "structure", "--sizes",
         "40", "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text(encoding="utf-8"))
    points = doc["structure_curve"]["points"]
    assert doc["kept"] == 1
    assert [(p["n"], p["structure"]) for p in points] == \
        [(40, "count_pic0"), (40, "pic0_structure"), (40, "picb0_structure")]
    assert all(p["agree"] and p["parent_s"] > 0 and p["change_s"] > 0
               for p in points)
    assert points[0]["count_digits"] > 1
    assert all(p["invariant_factors"] > 1 for p in points[1:])


def test_reduce_curve_smallest_rung(tmp_path):
    """`scripts/curve.py reduce` on K6 with edge weight 2 only, this
    checkout against itself."""
    out = tmp_path / "bench.json"
    out.write_text('{"kept": 1}', encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "curve.py"), "reduce", "--graphs",
         "K6-w2", "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text(encoding="utf-8"))
    points = doc["reduce_curve"]["points"]
    assert doc["kept"] == 1
    assert [(p["graph"], p["subcommand"]) for p in points] == \
        [("K6-w2", "reduce"), ("K6-w2", "act")]
    assert all(p["same_stdout"] and p["parent_s"] > 0 and p["change_s"] > 0
               for p in points)


def test_every_script_is_documented_and_run():
    """Each `scripts/*.py` is named in README's *Layout* and run by a test
    in this file."""
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    tests = Path(__file__).read_text(encoding="utf-8")
    for script in sorted(p.name for p in SCRIPTS.glob("*.py")):
        assert f"scripts/{script}" in layout, script
        assert f'SCRIPTS / "{script}"' in tests, script
