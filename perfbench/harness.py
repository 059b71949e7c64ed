"""Closed-loop runner: one client, no threads, a per-op deadline.

The deadline uses `signal.setitimer` in the main thread; an op past it is
abandoned by raising `OpTimeout` inside it (the ops are pure functions, so
nothing is left half-written) and counted as failed.
"""

from __future__ import annotations

import gc
import signal
import time
import traceback
from dataclasses import dataclass, field


class OpTimeout(BaseException):
    """Raised inside an op when its deadline passes.  A BaseException, so
    the program's own `except Exception`-style handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def timed_call(fn, deadline):
    """(answer, error, seconds): error is None, "timeout" or a traceback."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            answer, error = fn(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        answer, error = None, "timeout"
    except Exception:  # an op that raises is a failed op; keep running
        answer, error = None, traceback.format_exc(limit=8)
    return answer, error, time.perf_counter() - t0


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # seconds, failed at >= deadline
    op_seconds: float = 0.0                        # time spent inside ops
    attempted: int = 0
    ok: int = 0
    failures: list = field(default_factory=list)
    exhausted: bool = False

    def correct(self):
        """False when an op gave a wrong answer or raised.  An op past its
        deadline gave no answer: it is a failed op, not a wrong one."""
        return not any(f["failure"] in ("wrong", "error") for f in self.failures)


def run_loop(ops, seconds, deadline, tracer=None, cycle=1):
    """Run ops in order until `seconds` of wall time pass or ops run out.

    The clock is read only at multiples of `cycle` ops, so a run covers
    whole cycles of a workload's schedule and every run sees the same mix
    of ops.  Every op's answer is checked outside the timed region.  Each
    failure is kept with what is needed to replay it.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    res = LoopResult()
    stop = time.perf_counter() + seconds
    try:
        for i, op in enumerate(ops):
            if i % cycle == 0 and time.perf_counter() >= stop:
                break
            span = tracer.begin_op(i, f"op.{op.name}") if tracer else None
            try:
                answer, error, dt = timed_call(op.run, deadline)
            finally:
                if tracer:
                    tracer.end_op(span)
            if error is None:
                try:
                    problem = op.check(answer)
                except Exception:
                    problem = "answer check raised:\n" + traceback.format_exc(limit=8)
                kind = "wrong" if problem else None
            else:
                kind, problem = ("timeout" if error == "timeout" else "error"), error
                # An abandoned op can leave its partial results in reference
                # cycles (the recursion closure of trees.enumerate_forests
                # holds every forest found so far).  Free them here, outside
                # the timed region, so no later op pays for them and they do
                # not pile up in the peak RSS.
                gc.collect()
            res.attempted += 1
            res.op_seconds += dt
            if kind is None:
                res.ok += 1
                res.latencies.append(dt)
            else:
                res.latencies.append(max(dt, deadline))
                res.failures.append({"index": i, "op": op.name, "failure": kind,
                                     "detail": problem, "elapsed_s": dt,
                                     "replay": op.replay()})
        else:
            res.exhausted = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return res


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
