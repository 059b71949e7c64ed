"""Span tracing of chipfire's public functions, applied from outside.

`Tracer.install()` wraps every public function and method of the chipfire
layer modules and rebinds each wrapper wherever the original function
object is bound: in every loaded `chipfire*` module namespace (modules
import functions by name, e.g. `from .trees import enumerate_forests`) and
on the class for methods.  `uninstall()` restores the originals.

Each wrapped call records one span: name, start, end, parent span and op
id, kept in flat arrays and written out when the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("intlinalg", "graphs", "divisors", "trees", "picard", "bernardi",
          "fibers", "family", "selfcheck", "serialize", "cli")

# Accessors that run in well under a microsecond and are called from the
# inner loops of other layers; a span costs more than the call itself, so
# wrapping them would mostly measure the tracer.
HOT_ACCESSORS = frozenset({
    "graphs.Edge.other_end", "graphs.WeightedMultigraph.vindex",
    "graphs.WeightedMultigraph.edge", "graphs.WeightedMultigraph.half_edge_vertex",
    "graphs.WeightedMultigraph.components",
    "graphs.WeightedMultigraph.is_connected",
    "divisors.Divisor.vector", "divisors.Divisor.from_vector",
    "divisors.Divisor.zero", "graphs.VertexSplitMap.ratio",
})


def _max_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Collects spans and the per-call counts named in `observe`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_id = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self.op_id = -1
        self.counts = defaultdict(int)      # "<span>.<counter>" -> total
        self.maxima = defaultdict(int)      # "<span>.<measure>" -> max
        self.distinct = defaultdict(set)    # span -> distinct input keys
        self._alive = []                    # keeps keyed objects alive per op
        self._restore = []

    # -- recording ------------------------------------------------------

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.start)
        self.name_of.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self._stack.remove(idx)

    def begin_op(self, op_id, name):
        self.op_id = op_id
        self._alive.clear()
        return self.open(name)

    def end_op(self, idx):
        self.close(idx)
        self.op_id = -1
        self._alive.clear()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        elif observe is None:
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            before, after = observe

            def wrapper(*args, **kwargs):
                if before:
                    before(tracer, name, args, kwargs)
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after:
                    after(tracer, name, args, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get(f"chipfire.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
                elif inspect.isclass(obj):
                    out.extend(self._method_targets(layer, obj))
        return [t for t in out if t[0] not in HOT_ACCESSORS]

    @staticmethod
    def _method_targets(layer, cls):
        out = []
        for attr, obj in vars(cls).items():
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and not hasattr(cls, "__dataclass_fields__"):
                out.append((f"{layer}.{cls.__name__}", cls, attr, obj))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj) or isinstance(obj, (classmethod, staticmethod)):
                out.append((name, cls, attr, obj))
        return out

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replace = {}
        for name, owner, attr, obj in self.targets():
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(name, obj.__func__))
            else:
                wrapped = self._wrap(name, obj)
                replace[id(obj)] = (obj, wrapped)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "chipfire" and not modname.startswith("chipfire."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def self_times(self):
        return self_times(self.start, self.end, self.parent)

    def summary(self, ops_only=True):
        """name -> {"calls", "total_s", "self_s"} over op spans (or all)."""
        selfs = self.self_times()
        out = {}
        for i in range(len(self.start)):
            if ops_only and self.op[i] < 0:
                continue
            row = out.setdefault(self.names[self.name_of[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return out

    def write(self, path):
        """Spans as gzipped CSV: name,start_s,end_s,parent,op."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}\n")


def self_times(start, end, parent):
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], min(end[i], end[p]))
    return [end[i] - start[i] - covered[i] for i in range(n)]


# -- per-call observers: (before, after), each may be None ------------------


def _snf_before(tracer, name, args, kwargs):
    A = args[0] if args else kwargs["A"]
    tracer.distinct[name].add(tuple(map(tuple, A)))


def _snf_after(tracer, name, args, result):
    key = f"{name}.max_entry_bits"
    tracer.maxima[key] = max(tracer.maxima[key], *(_max_bits(m) for m in result))


def _tour_before(tracer, name, args, kwargs):
    g, forest = args[0], args[1] if len(args) > 1 else kwargs["forest"]
    roots = args[2] if len(args) > 2 else kwargs.get("roots")
    starts = args[3] if len(args) > 3 else kwargs.get("starts")
    tracer._alive.append(g)
    tracer.distinct[name].add((tracer.op_id, id(g), frozenset(forest),
                               None if roots is None else tuple(roots),
                               None if starts is None else tuple(sorted(starts.items()))))


def _counter(counter):
    def after(tracer, name, args, result):
        tracer.counts[f"{name}.{counter}"] += len(result)
    return after


def _table_after(tracer, name, args, result):
    tracer.counts[f"{name}.table_entries"] += len(args[0].table)


OBSERVERS = {
    "intlinalg.smith_normal_form": (_snf_before, _snf_after),
    "bernardi.tour_forest": (_tour_before, None),
    "trees.enumerate_forests": (None, _counter("forests")),
    "picard.enumerate_coset_representatives_bruteforce": (None, _counter("reps")),
    "bernardi.BernardiReducer": (None, _table_after),
}
