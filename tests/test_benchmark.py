"""The benchmark's own unit tests, `python -m unittest discover -s
perfbench/tests` from the repository root, so that a change to the
package that breaks the benchmark's generators, oracle, tracer or
workloads fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
