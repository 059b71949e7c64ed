"""The benchmark's oracle on known values.

Run with `python3 -m unittest discover -s perfbench/tests` from the
repository root.
"""

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
import oracle  # noqa: E402

TRIANGLE = {
    "vertices": [{"id": "v1", "weight": 2}, {"id": "v2"}, {"id": "v3"}],
    "edges": [{"id": "a", "ends": ["v1", "v2"], "weight": 2},
              {"id": "b", "ends": ["v1", "v3"], "weight": 2},
              {"id": "c", "ends": ["v2", "v3"]}],
}


def complete_graph(n):
    return {"vertices": [{"id": f"v{i}"} for i in range(n)],
            "edges": [{"id": f"e{i}{j}", "ends": [f"v{i}", f"v{j}"]}
                      for i in range(n) for j in range(i + 1, n)]}


class OracleTest(unittest.TestCase):
    def test_weighted_triangle_orders(self):
        g = oracle.Graph(TRIANGLE)
        self.assertEqual(oracle.pic0_order(g), 8)
        self.assertEqual(oracle.picb0_order(g), 4)
        self.assertEqual(oracle.genus(g), 2)

    def test_unweighted_k4_order(self):
        self.assertEqual(oracle.pic0_order(oracle.Graph(complete_graph(4))), 16)

    def test_bareiss_det_needs_pivoting(self):
        self.assertEqual(oracle.bareiss_det([[0, 2], [3, 1]]), -6)
        self.assertEqual(oracle.bareiss_det([[2, 4], [1, 2]]), 0)

    def test_group_checks(self):
        self.assertTrue(oracle.group_ok({"invariant_factors": [2, 4], "order": 8}, 8))
        self.assertFalse(oracle.group_ok({"invariant_factors": [4, 2], "order": 8}, 8))
        self.assertFalse(oracle.group_ok({"invariant_factors": [8], "order": 8}, 16))

    def test_principal_divisors(self):
        rng = random.Random(3)
        for _ in range(20):
            g = oracle.Graph(gen.pleasant_graph(rng, 5, 4, 4, [(1, .7), (2, .3)], loops=1))
            lf = oracle.apply_laplacian(g, gen.random_potential(rng, g))
            self.assertTrue(oracle.is_principal(g, lf))
            unit = [1, -1] + [0] * (g.n - 2)
            # e_v0 - e_v1 is principal only when the group is trivial
            self.assertEqual(oracle.is_principal(g, unit), oracle.pic0_order(g) == 1)

    def test_triangle_tours_match_reference_orientations(self):
        g = oracle.Graph({"vertices": [{"id": v} for v in ("v1", "v2", "v3")],
                          "edges": [{"id": e["id"], "ends": e["ends"]}
                                    for e in TRIANGLE["edges"]]})
        # the unweighted triangle's three tours from v2, starting at edge a
        want = {
            ("a", "b"): {"a": ("v2", "v1"), "b": ("v1", "v3"), "c": ("v2", "v3")},
            ("a", "c"): {"a": ("v2", "v1"), "b": ("v3", "v1"), "c": ("v2", "v3")},
            ("b", "c"): {"a": ("v1", "v2"), "b": ("v3", "v1"), "c": ("v2", "v3")},
        }
        for tree, orient in want.items():
            self.assertEqual(oracle.tour_orientation(g, tree, "v2", ("a", 1)), orient)

    def test_triangle_subweighted_trees_are_a_complete_set(self):
        g = oracle.Graph(TRIANGLE)
        keys = set()
        trees = [("a", "b"), ("a", "c"), ("b", "c")]
        for tree in trees:
            ranges = [range(1, g.ew[e] + 1) for e in tree]
            for s0 in ranges[0]:
                for s1 in ranges[1]:
                    sigma = dict(g.ew, **{tree[0]: s0, tree[1]: s1})
                    D = oracle.tree_divisor(g, tree, sigma)
                    self.assertEqual(sum(D), oracle.genus(g) - 1)
                    keys.add(tuple(D))
        # 8 sub-weighted trees, pairwise inequivalent
        self.assertEqual(len(keys), 8)
        for a in keys:
            for b in keys:
                diff = [x - y for x, y in zip(a, b)]
                self.assertEqual(oracle.is_principal(g, diff), a == b)

    def test_generated_graphs_are_pleasant_and_connected(self):
        rng = random.Random(5)
        for n in (1, 2, 7, 20):
            g = oracle.Graph(gen.pleasant_graph(rng, n, 2 * n, 5, [(1, .7), (2, .2), (3, .1)]))
            self.assertTrue(oracle.is_pleasant(g))
            self.assertGreater(oracle.pic0_order(g), 0)
            self.assertTrue(oracle.is_spanning_tree(g, gen.random_spanning_tree(rng, g)))


if __name__ == "__main__":
    unittest.main()
