#!/usr/bin/env python3
"""Digest of the CLI's answers on one `queries` benchmark input pool.

    python3 scripts/cli_digest.py 7 > digest.txt

Builds the pool of the benchmark's `queries` workload for the seed with
`perfbench`'s own `Queries.setup` (in a temporary directory), runs every
argv in-process through `chipfire.cli.main`, and prints one line per op:
index, kind, exit code and the sha256 of stdout.  chipfire is imported from
this checkout's `src/`.  Diffing the output of two checkouts checks that
their stdout and exit codes are byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].lstrip("-").isdigit():
        print("usage: cli_digest.py SEED", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import Queries
    from chipfire import cli

    with tempfile.TemporaryDirectory() as workdir:
        for i, kind, argv_, _files, _x in Queries().setup(int(args[0]), workdir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(argv_))
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(f"{i} {kind} {rc} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
