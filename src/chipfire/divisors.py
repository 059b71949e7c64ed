"""Divisors on weighted graphs: degrees, balancedness, the weighted
Laplacian, and exact chip-firing equivalence with certificates."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import intlinalg
from .errors import GraphInputError, InternalError, PreconditionError
from .graphs import WeightedMultigraph, is_pleasant


@dataclass(frozen=True)
class Divisor:
    coefficients: dict  # vertex -> int

    def __add__(self, other):
        keys = dict(self.coefficients)
        for v, c in other.coefficients.items():
            keys[v] = keys.get(v, 0) + c
        return Divisor(keys)

    def __sub__(self, other):
        keys = dict(self.coefficients)
        for v, c in other.coefficients.items():
            keys[v] = keys.get(v, 0) - c
        return Divisor(keys)

    def __neg__(self):
        return Divisor({v: -c for v, c in self.coefficients.items()})

    def vector(self, g):
        return [self.coefficients.get(v, 0) for v in g.vertices]

    @classmethod
    def from_vector(cls, g, vec):
        return cls(dict(zip(g.vertices, vec)))

    @classmethod
    def zero(cls, g):
        return cls({v: 0 for v in g.vertices})


def check_on_graph(g, D, what="divisor"):
    """Raises GraphInputError if the divisor (or potential) D names a
    vertex that g does not have."""
    extra = set(D.coefficients) - set(g.vertices)
    if extra:
        raise GraphInputError(
            f"{what} mentions unknown vertices {sorted(extra, key=repr)}")


def degree(D: Divisor) -> int:
    return sum(D.coefficients.values())


def is_balanced(g, D) -> bool:
    check_on_graph(g, D)
    return all(D.coefficients.get(v, 0) % g.vertex_weight[v] == 0
               for v in g.vertices)


def unbalancing_class(g, D) -> dict:
    """Vertex -> the residue of D there mod w(v), an int in [0, w(v))."""
    check_on_graph(g, D)
    return {v: D.coefficients.get(v, 0) % g.vertex_weight[v] for v in g.vertices}


def laplacian(g, f) -> Divisor:
    """Weighted Laplacian of a potential f (vertex -> int); loops contribute 0.
    f must give exactly the vertices of g."""
    missing = set(g.vertices) - set(f)
    if missing:
        raise GraphInputError(f"potential is undefined at {sorted(missing)}")
    check_on_graph(g, Divisor(f), "potential")
    out = {v: 0 for v in g.vertices}
    for e in g.edges:
        if e.is_loop:
            continue
        u, v = e.ends
        w = g.edge_weight[e.id]
        out[u] += w * (f[u] - f[v])
        out[v] += w * (f[v] - f[u])
    return Divisor(out)


def chip_fire(g, v) -> Divisor:
    """One chip-firing move: the Laplacian of the indicator of v."""
    return laplacian(g, {u: 1 if u == v else 0 for u in g.vertices})


@dataclass(frozen=True)
class EquivalenceCertificate:
    potential: dict  # vertex -> int, zero at the least vertex of each component


def reduced_laplacian(g):
    """The Laplacian without the row and column of each component's first
    vertex (its root), which leaves it nonsingular, and the indices of the
    vertices it keeps."""
    roots = {comp[0] for comp in g.components()}
    keep = [i for i, v in enumerate(g.vertices) if v not in roots]
    L = g.laplacian_matrix()
    return [[L[i][j] for j in keep] for i in keep], keep


class LaplacianSystem:
    """Class keys from the exact inverse of the reduced Laplacian L_r of one
    graph: L_r X = e I, with e the exponent of the Jacobian.

    A divisor D is principal iff its degree on every component is 0 and
    X D_r is divisible by e, where D_r drops the roots' coefficients, so
    two divisors are chip-firing equivalent iff their keys (per-component
    degrees and X D_r mod e) agree.  Keys are taken of int vectors in
    vertex order (`vector_key`) or of divisors (`class_key`); the key part
    X D_r mod e is linear in the vector.  Certificates come from
    `equivalent`, which solves its own system.
    """

    def __init__(self, g: WeightedMultigraph):
        self.g = g
        Lr, self.keep = reduced_laplacian(g)
        self.X, self.e = intlinalg.inverse(Lr)
        self.comps = [[g.vindex(v) for v in comp] for comp in g.components()]

    def vector_key(self, vec):
        """Class key of the divisor with coefficients vec in vertex order."""
        degrees = tuple(sum(vec[i] for i in comp) for comp in self.comps)
        vr = [vec[i] for i in self.keep]
        return degrees, tuple(sum(map(mul, row, vr)) % self.e for row in self.X)

    def class_key(self, D: Divisor):
        return self.vector_key(D.vector(self.g))


def equivalent(g, D1, D2):
    """Certificate f with Laplacian(f) = D1 - D2, or None if inequivalent.

    D1 - D2 is principal iff its degree on every component is 0 and
    L_r f_r = (D1 - D2)_r has an integer solution.  One fraction-free solve
    gives y = d f_r with d = det(L_r), so f_r is integral iff d divides y.
    """
    check_on_graph(g, D1)
    check_on_graph(g, D2)
    diff = (D1 - D2).vector(g)
    if any(sum(diff[g.vindex(v)] for v in comp) for comp in g.components()):
        return None
    f = dict.fromkeys(g.vertices, 0)
    Lr, keep = reduced_laplacian(g)
    if keep:
        y, d = intlinalg.solve(Lr, [diff[i] for i in keep])
        if any(c % d for c in y):
            return None
        for i, c in zip(keep, y):
            f[g.vertices[i]] = c // d
    if laplacian(g, f).vector(g) != diff:
        raise InternalError("certificate potential's Laplacian is not D1 - D2")
    return EquivalenceCertificate(potential=f)


def require_pleasant(g, what="this operation"):
    if not is_pleasant(g):
        raise PreconditionError(f"{what} requires a pleasant weighting")
