"""chipfire benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory.  With `--trace 0` the run sets up the workload's
`setup_repeats` times, runs ops for `--seconds`, sets up as many times more,
and reports the end-to-end metrics, with the median of the set-up times.  With `--trace 1` it runs a fixed number of
ops twice, untraced and then traced with `spans.Tracer`, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; a fuller record, with every failed op and its
replay inputs, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

def _load_program():
    """Put the checkout's `src` first on the path and check that chipfire
    comes from there."""
    src = ROOT / "src"
    if not (src / "chipfire" / "__init__.py").is_file():
        raise SystemExit(f"error: no chipfire sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import chipfire
    if Path(chipfire.__file__).resolve().parent != (src / "chipfire").resolve():
        raise SystemExit(f"error: chipfire imported from {chipfire.__file__}")


def _purge_program():
    for name in [m for m in sys.modules if m == "chipfire" or m.startswith("chipfire.")]:
        del sys.modules[name]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _set_up(workload, seed, workdir):
    """One set-up from a fresh import of the program: (seconds, ops)."""
    _purge_program()
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    _load_program()
    ops = workload.materialize(workload.setup(seed, str(workdir)))
    return time.perf_counter() - t0, ops


def run_plain(workload, seed, seconds, workdir):
    from harness import percentile, run_loop
    from workloads import DEADLINE_S

    setups = []
    for _ in range(workload.setup_repeats):
        ops = None
        dt, ops = _set_up(workload, seed, workdir)
        setups.append(dt)
    gc.collect()
    deadline = DEADLINE_S[workload.name]
    res = run_loop(ops, seconds, deadline, cycle=workload.cycle)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A shared host's speed can drift over spans of seconds, so set-up is
    # timed both before and after the loop, in two such spans.
    ops = None
    setups.extend(_set_up(workload, seed, workdir)[0]
                  for _ in range(workload.setup_repeats))
    # ops_per_s is per second spent inside ops, not per second of loop wall
    # time, so the benchmark's own oracle checks stay out of the figure.
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(res.ok / res.op_seconds, "1/s"),
        "op_p50_ms": _metric(1000 * percentile(res.latencies, 50), "ms"),
        "op_p90_ms": _metric(1000 * percentile(res.latencies, 90), "ms"),
        "ok_ratio": _metric(res.ok / res.attempted, "ratio"),
        "peak_rss_mib": _metric(peak_rss, "MiB"),
    }
    extra = {"setup_runs_s": setups, "deadline_s": deadline,
             "op_seconds": res.op_seconds, "inputs_exhausted": res.exhausted,
             "latencies_s": [round(t, 6) for t in res.latencies]}
    return res, metrics, extra


def run_traced(workload, seed, seconds, workdir):
    from harness import run_loop
    from spans import Tracer
    from workloads import DEADLINE_S
    import layer_metrics

    _load_program()
    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.setup(seed, str(workdir))
    finally:
        tracer.uninstall()
    deadline = DEADLINE_S[workload.name]
    # a fixed op count, so counts repeat exactly for a seed and compare
    # across commits
    count = workload.trace_ops
    gc.collect()
    plain = run_loop(workload.materialize(inputs, count, fresh=True),
                     seconds, deadline)
    ops = workload.materialize(inputs, plain.attempted, fresh=True)
    gc.collect()
    tracer.install()
    try:
        traced = run_loop(ops, float("inf"), deadline, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics.compute(tracer, traced.attempted,
                                    traced.op_seconds / plain.op_seconds)
    extra = {"deadline_s": deadline, "untraced_op_seconds": plain.op_seconds,
             "traced_op_seconds": traced.op_seconds,
             "untraced_failed": plain.attempted - plain.ok,
             "span_summary": tracer.summary(ops_only=False)}
    return traced, metrics, extra, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    tracer = None
    try:
        if args.trace:
            res, metrics, extra, tracer = run_traced(workload, args.seed,
                                                     args.seconds, workdir)
        else:
            res, metrics, extra = run_plain(workload, args.seed, args.seconds,
                                            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = res.attempted - res.ok
    correct = res.correct()
    by_kind = {}
    for f in res.failures:
        by_kind.setdefault(f"{f['op']}:{f['failure']}", 0)
        by_kind[f"{f['op']}:{f['failure']}"] += 1
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": res.attempted,
        "ok": res.ok, "failed": failed, "fail_ratio": failed / res.attempted,
        "failures_by_kind": by_kind, "metrics": metrics, **extra,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "failures": res.failures,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=repr)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv.gz")

    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} fail_ratio = {failed}/{res.attempted} "
          f"({', '.join(f'{k} x{v}' for k, v in sorted(by_kind.items())) or 'none'})")
    for f in res.failures[:5]:
        print(f"failed op {f['index']} {f['op']}: {f['failure']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
