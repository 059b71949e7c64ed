"""Named faults, each one monkeypatch of one layer, and the sweep criteria
each must fail on a small fixed sub-family.  A later cache or shared
computation that makes a leg compare a value with itself lets its fault
pass, and the test that names it fails."""

import pytest

from chipfire import bernardi
from chipfire.family import pleasant_family
from chipfire.selfcheck import sweep_family

CRITERIA = ("matrix-tree", "completeness", "hat", "invariance")


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


FAULTS = [
    pytest.param(bernardi, "_unit_vector", _unit_vector_one_chip_more,
                 {"completeness"}, id="unit-vector-one-chip"),
    pytest.param(bernardi, "_crt", _crt_shifted, {"completeness"},
                 id="crt-residue-plus-1"),
]


@pytest.fixture(scope="module")
def family():
    # 1,774 graphs; a sweep takes about 3 s
    return list(pleasant_family(max_vertices=3, max_edges=4, max_weight=3))


def _failed(family):
    results = sweep_family(family)
    return {name for name in CRITERIA if not results[name].passed}


def test_the_clean_sub_family_passes_every_criterion(family):
    assert len(family) == 1774
    assert _failed(family) == set()


@pytest.mark.parametrize("layer, name, fault, fails", FAULTS)
def test_each_fault_fails_its_criteria_and_no_other(monkeypatch, family,
                                                    layer, name, fault, fails):
    monkeypatch.setattr(layer, name, fault(getattr(layer, name)))
    assert _failed(family) == fails
