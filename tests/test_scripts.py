"""Smoke tests of the scripts under scripts/, which use the package's
public API."""

import contextlib
import io
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
