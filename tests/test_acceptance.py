"""Acceptance suite: nine exact, exhaustive checks at desk scale.

Criteria 4-6 and 8 share one pass over the full graph family (every
pleasant connected multigraph up to isomorphism with <=4 vertices,
<=5 edges, loops and parallels included, all weights <=3); the sweep
must finish in under five minutes.  Every check is exact integer
equality -- there are no tolerances to pin.
"""

import time

import pytest

from chipfire.family import pleasant_family
from chipfire.selfcheck import (check_divisor_properties, check_fig2_tours,
                                check_index1, check_laplacian_example,
                                check_torsor, check_triangle_example,
                                sweep_family, triangle_tw)

SWEEP_BUDGET_SECONDS = 300.0


@pytest.fixture(scope="module")
def family():
    return list(pleasant_family(max_vertices=4, max_edges=5, max_weight=3))


@pytest.fixture(scope="module")
def sweep(family):
    t0 = time.perf_counter()
    results = sweep_family(family)
    results["_elapsed"] = time.perf_counter() - t0
    return results


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"\ncriterion {num}: {status}  {label}{extra}", flush=True)
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_triangle_example():
    t0 = time.perf_counter()
    res = check_triangle_example()
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 1.0
    _report(1, "weighted triangle: 8 sub-weightings (4+2+2), 4 balanced, "
               "one nontrivial, under 1 s", ok,
            f"{res.detail}, {elapsed:.3f}s")


def test_criterion_2_laplacian_example():
    res = check_laplacian_example()
    _report(2, "Laplacian at the v3 indicator is exactly (-2,-3,5)",
            res.passed, res.detail)


def test_criterion_3_tour_reproduction():
    res = check_fig2_tours()
    _report(3, "triangle tours from v2 give the three reference orientations "
               "edge-for-edge", res.passed)


def test_criterion_4_weighted_matrix_tree(sweep):
    res = sweep["matrix-tree"]
    elapsed = sweep["_elapsed"]
    ok = res.passed and elapsed < SWEEP_BUDGET_SECONDS
    _report(4, "tree-sum = reduced-Laplacian determinant = Smith order = "
               "brute-force coset count (plain and balanced) on the full "
               "family", ok, f"{res.detail}, sweep {elapsed:.1f}s")


def test_criterion_5_completeness(sweep):
    res = sweep["completeness"]
    _report(5, "sub-weighted trees are complete irredundant class "
               "representatives, balanced ones for balanced classes",
            res.passed, res.detail)


def test_criterion_6_hat_identity(sweep):
    res = sweep["hat"]
    _report(6, "hat-graph correspondence is bijective with the constant-shift "
               "divisor identity", res.passed, res.detail)


def test_criterion_7_torsor_axioms(sweep):
    graphs = [triangle_tw()] + sweep["_torsor_candidates"][:5]
    res = check_torsor(graphs)
    _report(7, "free transitive torsor action on balanced representatives "
               "(identity, compatibility, full orbits) on six graphs",
            res.passed, res.detail)


def test_criterion_8_invariance_suite(sweep):
    res = sweep["invariance"]
    _report(8, "leaf and edge-split invariance plus shrink/vertex-split "
               "injectivity, zero witnesses", res.passed, res.detail)


def test_criterion_9_index1_collapse(sweep):
    res = check_index1(sweep["_index1"])
    _report(9, "all-index-1 fibers: component group equals the Jacobian, "
               "elementwise", res.passed, res.detail)


def test_supporting_divisor_properties(family):
    # not one of the numbered criteria; guards the randomized spot checks
    res = check_divisor_properties(family, seed=0)
    assert res.passed, res.detail
