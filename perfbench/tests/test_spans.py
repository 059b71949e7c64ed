"""Self-time arithmetic and wrapping of the span tracer."""

import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,10] > a [1,3], b [4,8] > c [5,6]
        start = [0.0, 1.0, 4.0, 5.0]
        end = [10.0, 3.0, 8.0, 6.0]
        parent = [-1, 0, 0, 2]
        self.assertEqual(spans.self_times(start, end, parent), [4.0, 2.0, 3.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        # children [1,5] and [3,7] overlap; [9,12] runs past the parent's end
        start = [0.0, 1.0, 3.0, 9.0]
        end = [10.0, 5.0, 7.0, 12.0]
        parent = [-1, 0, 0, 0]
        self.assertEqual(spans.self_times(start, end, parent)[0], 10.0 - 6.0 - 1.0)

    def test_children_given_out_of_order(self):
        start = [0.0, 6.0, 1.0]
        end = [10.0, 9.0, 2.0]
        parent = [-1, 0, 0]
        self.assertEqual(spans.self_times(start, end, parent), [6.0, 3.0, 1.0])

    def test_tracer_records_parents_and_ops(self):
        tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 9.0, 10.0]))
        op = tracer.begin_op(7, "op.x")          # t=0
        outer = tracer.open("outer")             # t=1
        inner = tracer.open("inner")             # t=2
        tracer.close(inner)                      # t=5
        tracer.close(outer)                      # t=6
        tracer.end_op(op)                        # t=9
        summary = tracer.summary()
        self.assertEqual(list(tracer.parent), [-1, 0, 1])
        self.assertEqual(list(tracer.op), [7, 7, 7])
        self.assertEqual(summary["outer"], {"calls": 1, "total_s": 5.0, "self_s": 2.0})
        self.assertEqual(summary["op.x"]["self_s"], 4.0)


class WrappingTest(unittest.TestCase):
    def test_install_rebinds_every_alias_and_uninstall_restores(self):
        from chipfire import bernardi, cli, fibers, trees
        from chipfire.graphs import WeightedMultigraph
        original = trees.enumerate_forests
        laplacian = WeightedMultigraph.laplacian_matrix
        tracer = spans.Tracer()
        tracer.install()
        try:
            for mod in (trees, bernardi, fibers, cli):
                self.assertIsNot(mod.enumerate_forests, original)
                self.assertIs(mod.enumerate_forests.__wrapped__, original)
            g = WeightedMultigraph.build(["a", "b"], [("e", ("a", "b"))])
            op = tracer.begin_op(0, "op")
            self.assertEqual(bernardi.enumerate_forests(g), [("e",)])
            g.laplacian_matrix()
            tracer.end_op(op)
        finally:
            tracer.uninstall()
        self.assertIs(bernardi.enumerate_forests, original)
        self.assertIs(WeightedMultigraph.laplacian_matrix, laplacian)
        summary = tracer.summary()
        self.assertEqual(summary["trees.enumerate_forests"]["calls"], 1)
        self.assertEqual(summary["graphs.WeightedMultigraph.laplacian_matrix"]["calls"], 1)
        self.assertEqual(tracer.counts["trees.enumerate_forests.forests"], 1)


if __name__ == "__main__":
    unittest.main()
