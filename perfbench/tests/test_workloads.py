"""Each workload end to end at a tiny size, and the loop's failure handling."""

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def scratch_dir():
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


def run_tiny(name, count):
    w = workloads.WORKLOADS[name]
    with scratch_dir() as tmp:
        inputs = w.setup(11, tmp)
        ops = w.materialize(inputs, count, fresh=True)
        return ops, harness.run_loop(ops, 600, workloads.DEADLINE_S[name])


class WorkloadTest(unittest.TestCase):
    def test_sweep(self):
        ops, res = run_tiny("sweep", 30)
        self.assertEqual((res.attempted, res.ok), (30, 30), res.failures)
        self.assertEqual({g.n for g in (op.g for op in ops)}, {2, 3, 4})

    def test_queries_cover_every_kind(self):
        count = len(workloads.QUERY_KINDS)
        ops, res = run_tiny("queries", count)
        self.assertEqual((res.attempted, res.ok), (count, count), res.failures)
        self.assertEqual({op.kind for op in ops}, set(workloads.QUERY_KINDS))

    def test_query_schedule_gives_every_kind_every_size(self):
        cycle = workloads.Queries.cycle
        schedule = workloads._query_schedule(2 * cycle)
        self.assertEqual(schedule[:cycle], schedule[cycle:])
        for kind in set(workloads.QUERY_KINDS):
            sizes = sorted(size for k, size in schedule[:cycle] if k == kind)
            reps = workloads.QUERY_KINDS.count(kind)
            self.assertEqual(sizes, sorted(workloads.SIZE_CYCLE * reps))

    def test_ladder_small_rungs(self):
        ops, res = run_tiny("ladder", 8)
        self.assertEqual([op.g.n for op in ops], [5] * 8)
        self.assertEqual((res.attempted, res.ok), (8, 8), res.failures)

    def test_same_seed_same_inputs(self):
        w = workloads.WORKLOADS["ladder"]
        with scratch_dir() as tmp:
            self.assertEqual(json.dumps(w.setup(4, tmp)), json.dumps(w.setup(4, tmp)))
            self.assertNotEqual(json.dumps(w.setup(4, tmp)), json.dumps(w.setup(5, tmp)))

    def test_wrong_answers_are_caught(self):
        corrupt = {
            "count": lambda out: str(int(out) + 1),
            "genus": lambda out: str(int(out) - 1),
            "group": lambda out: json.dumps(dict(json.loads(out), order=0)),
            "trees": lambda out: json.dumps(
                {"representatives": json.loads(out)["representatives"][1:]}),
            "reduce": lambda out: json.dumps(
                dict(json.loads(out), certificate={"potential": {}})),
            "act": lambda out: json.dumps(dict(json.loads(out), sigma={})),
        }
        w = workloads.WORKLOADS["queries"]
        with scratch_dir() as tmp:
            ops = w.materialize(w.setup(2, tmp), len(workloads.QUERY_KINDS))
            for op in ops:
                rc, out, err = op.run()
                self.assertIsNone(op.check((rc, out, err)), op.kind)
                self.assertIsNotNone(op.check((2, out, "boom")), op.kind)
                if op.kind in corrupt:
                    self.assertIsNotNone(op.check((0, corrupt[op.kind](out), "")), op.kind)

    def test_traced_metrics_match_benchmark_json(self):
        import layer_metrics
        import spans
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        w = workloads.WORKLOADS["sweep"]
        tracer = spans.Tracer()
        tracer.install()
        try:
            with scratch_dir() as tmp:
                ops = w.materialize(w.setup(1, tmp), 3)
            res = harness.run_loop(ops, 600, 2.0, tracer)
        finally:
            tracer.uninstall()
        got = layer_metrics.compute(tracer, res.attempted, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {name: m["unit"] for name, m in got.items()})
        self.assertEqual(got["bernardi.BernardiReducer.calls"]["value"], 3)
        self.assertGreater(got["family.pleasant_family.self_s"]["value"], 0)


class FakeOp(workloads.Op):
    def __init__(self, name, fn, right):
        self.name, self.fn, self.right = name, fn, right

    def run(self):
        return self.fn()

    def check(self, answer):
        return None if answer == self.right else "wrong"

    def replay(self):
        return {"op": self.name}


def spin():
    while True:
        time.sleep(0.001)


class LoopTest(unittest.TestCase):
    def test_every_failure_is_kept_and_counted_at_the_deadline(self):
        ops = [FakeOp("good", lambda: 1, 1), FakeOp("wrong", lambda: 2, 1),
               FakeOp("raises", lambda: 1 // 0, 1), FakeOp("hangs", spin, 1),
               FakeOp("good", lambda: 1, 1)]
        res = harness.run_loop(ops, 60, 0.05)
        self.assertEqual((res.attempted, res.ok), (5, 2))
        self.assertEqual([(f["op"], f["failure"]) for f in res.failures],
                         [("wrong", "wrong"), ("raises", "error"), ("hangs", "timeout")])
        self.assertIn("ZeroDivisionError", res.failures[1]["detail"])
        self.assertTrue(all(t >= 0.05 for t in res.latencies[1:4]))
        self.assertTrue(res.exhausted)

    def test_an_op_that_raises_makes_the_run_incorrect(self):
        ops = [FakeOp("good", lambda: 1, 1), FakeOp("raises", lambda: 1 // 0, 1)]
        self.assertFalse(harness.run_loop(ops, 60, 1.0).correct())

    def test_a_wrong_answer_makes_the_run_incorrect(self):
        ops = [FakeOp("good", lambda: 1, 1), FakeOp("wrong", lambda: 2, 1)]
        self.assertFalse(harness.run_loop(ops, 60, 1.0).correct())

    def test_a_timeout_is_a_failed_op_not_a_wrong_answer(self):
        res = harness.run_loop([FakeOp("good", lambda: 1, 1),
                                FakeOp("hangs", spin, 1)], 60, 0.05)
        self.assertEqual((res.attempted, res.ok), (2, 1))
        self.assertTrue(res.correct())

    def test_runs_whole_cycles(self):
        ops = [FakeOp("slow", lambda: time.sleep(0.02), None) for _ in range(10)]
        res = harness.run_loop(ops, 0.01, 1.0, cycle=4)
        self.assertEqual(res.attempted, 4)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.percentile(values, 50), 50)
        self.assertEqual(harness.percentile(values, 90), 90)
        self.assertEqual(harness.percentile([3.0], 90), 3.0)


if __name__ == "__main__":
    unittest.main()
