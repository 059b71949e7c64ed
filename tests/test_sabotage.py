"""Named faults, each one monkeypatch of one layer, and the criteria each
must fail on a small fixed sub-family: the sweep's four and the reference
tours.  A later cache or shared
computation that makes a leg compare a value with itself lets its fault
pass, and the test that names it fails."""

import dataclasses

import pytest

from chipfire import bernardi, picard
from chipfire.family import pleasant_family
from chipfire.selfcheck import check_fig2_tours, sweep_family

# the sweep's criteria, and criterion 3's reference tours
CRITERIA = ("matrix-tree", "completeness", "hat", "invariance", "tours")


def _unit_vector_one_chip_more(original):
    # D_{T,sigma} at sigma = 1 with one chip more at the first vertex
    def fault(g, forest, orient):
        vec = original(g, forest, orient)
        vec[0] += 1
        return vec
    return fault


def _crt_shifted(original):
    # the closing congruence of the balanced walk off by one
    def fault(a, m, b, n):
        am = original(a, m, b, n)
        return None if am is None else (am[0] + 1, am[1])
    return fault


def _hat_sigma_reversed(original):
    # sigma read as w + 1 - sigma on the forest edges of every hat pair
    def fault(g, hat, hat_trees):
        return [(dataclasses.replace(ts, sigma={
                    **ts.sigma, **{e: g.edge_weight[e] + 1 - ts.sigma[e]
                                   for e in ts.forest_edges}}), O)
                for ts, O in original(g, hat, hat_trees)]
    return fault


def _last_generator_dropped(original):
    # the balanced degree-0 lattice one generator short
    def fault(g):
        return original(g)[:-1]
    return fault


def _non_tree_edges_reversed(original):
    # every edge off the forest oriented away from the vertex the tour
    # meets it at
    def fault(g, forest, starts):
        return {eid: ends if eid in forest else ends[::-1]
                for eid, ends in original(g, forest, starts).items()}
    return fault


FAULTS = [
    pytest.param(bernardi, "_unit_vector", _unit_vector_one_chip_more,
                 {"completeness"}, id="unit-vector-one-chip"),
    pytest.param(bernardi, "_crt", _crt_shifted, {"completeness"},
                 id="crt-residue-plus-1"),
    pytest.param(bernardi, "hat_pairs", _hat_sigma_reversed, {"hat"},
                 id="hat-sigma-reversed"),
    pytest.param(picard, "_balanced_deg0_generators", _last_generator_dropped,
                 {"matrix-tree"}, id="balanced-generator-dropped"),
    # every sweep leg that tours a forest goes through `_orient`, so only
    # criterion 3's reference orientations see this
    pytest.param(bernardi, "_orient", _non_tree_edges_reversed, {"tours"},
                 id="non-tree-edges-reversed"),
]


@pytest.fixture(scope="module")
def family():
    # 1,774 graphs; a sweep takes about 3 s
    return list(pleasant_family(max_vertices=3, max_edges=4, max_weight=3))


def _failed(family):
    results = {**sweep_family(family), "tours": check_fig2_tours()}
    return {name for name in CRITERIA if not results[name].passed}


def test_the_clean_sub_family_passes_every_criterion(family):
    assert len(family) == 1774
    assert _failed(family) == set()


@pytest.mark.parametrize("layer, name, fault, fails", FAULTS)
def test_each_fault_fails_its_criteria_and_no_other(monkeypatch, family,
                                                    layer, name, fault, fails):
    monkeypatch.setattr(layer, name, fault(getattr(layer, name)))
    assert _failed(family) == fails
