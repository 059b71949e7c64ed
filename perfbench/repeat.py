"""Run the benchmark once per seed and report each metric's median and
quartile spread.

    python3 perfbench/repeat.py --workload sweep --seeds 1-10 --seconds 30

Runs are untraced and sequential, one process at a time.  For every
metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (third minus first
quartile, as a share of the median).  With `--save FILE` the per-run
results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(runs):
    values = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    out = {}
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "runs": len(vals)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--save")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}", flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
