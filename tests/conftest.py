import pytest

from chipfire import WeightedMultigraph


@pytest.fixture
def triangle():
    """Unweighted triangle, edges declared a, b, c."""
    return WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("a", ("v1", "v2")), ("b", ("v1", "v3")), ("c", ("v2", "v3"))])


@pytest.fixture
def tw():
    """Weighted triangle: w(v1)=2 and the two edges at v1 have weight 2."""
    return WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("a", ("v1", "v2")), ("b", ("v1", "v3")), ("c", ("v2", "v3"))],
        {"v1": 2}, {"a": 2, "b": 2})


@pytest.fixture
def four_edge_pleasant():
    """w(v1)=2; edges v1v2 and v1v3 weight 2; v2v3 doubled, weights 2 and 1."""
    return WeightedMultigraph.build(
        ["v1", "v2", "v3"],
        [("e1", ("v1", "v2")), ("e2", ("v1", "v3")),
         ("e3", ("v2", "v3")), ("e4", ("v2", "v3"))],
        {"v1": 2}, {"e1": 2, "e2": 2, "e3": 2})


@pytest.fixture
def roadmap_7x7():
    """Laplacian of a 7-vertex weighted graph on which a Smith form that
    carries its unimodular transforms blows its entries past 4,000 bits."""
    return [[14, -3, -1, -4, 0, -1, -5], [-3, 11, -3, -5, 0, 0, 0],
            [-1, -3, 18, 0, -9, -5, 0], [-4, -5, 0, 25, -7, -9, 0],
            [0, 0, -9, -7, 22, -6, 0], [-1, 0, -5, -9, -6, 27, -6],
            [-5, 0, 0, 0, 0, -6, 11]]
