"""Divisors on weighted graphs: degrees, balancedness, the weighted
Laplacian, and exact chip-firing equivalence with certificates."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import intlinalg
from .errors import GraphInputError, InternalError, PreconditionError
from .graphs import WeightedMultigraph, is_int, is_pleasant


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
    vertex that g does not have or has a coefficient that is not an int
    (a bool is not)."""
    extra = set(D.coefficients) - set(g.vertices)
    if extra:
        raise GraphInputError(
            f"{what} mentions unknown vertices {sorted(extra, key=repr)}")
    if not all(map(is_int, D.coefficients.values())):
        raise GraphInputError(f"{what} coefficients must be integers")


def degree(D: Divisor) -> int:
    return sum(D.coefficients.values())


def component_degrees(g, D) -> tuple:
    """D's degree on each component of g, in component order."""
    return tuple(sum(D.coefficients.get(v, 0) for v in comp)
                 for comp in g.components())


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
    g.vindex(v)  # rejects an unknown or unhashable vertex
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
    degrees, X D_r mod e packed by `packed`) agree.  Keys are taken of int
    vectors in vertex order (`vector_key`) or of divisors (`class_key`);
    the key part X D_r mod e is linear in the vector.  Only this module
    makes and steps keys.  Certificates come from `equivalent`, which
    solves its own system.
    """

    def __init__(self, g: WeightedMultigraph):
        self.g = g
        Lr, keep = reduced_laplacian(g)
        X, self.e = intlinalg.inverse(Lr)
        # wide enough for every sum of keys that `bernardi.reduce` takes
        self.packed = _PackedResidues(len(X), self.e, len(g.edges) + g.n + 1)
        # a key is dot products with vec itself: per component its
        # indicator, and the rows of X spread over all vertices, 0 at roots,
        # each with the bit offset of its residue in the packed int
        self._degree_rows = [[int(v in comp) for v in g.vertices]
                             for comp in map(set, g.components())]
        self._residue_rows = [([0] * g.n, at) for at in self.packed._offsets]
        for (full, _), row in zip(self._residue_rows, X):
            for i, c in zip(keep, row):
                full[i] = c

    def vector_key(self, vec):
        """Class key of the divisor with coefficients vec in vertex order."""
        e = self.e
        return (tuple([sum(map(mul, row, vec)) for row in self._degree_rows]),
                sum([sum(map(mul, row, vec)) % e << at
                     for row, at in self._residue_rows]))

    def class_key(self, D: Divisor):
        return self.vector_key(D.vector(self.g))

    def pair_key(self, i, a, j, b):
        """The key part of a e_i + b e_j, with e_v the unit divisor at the
        vertex of index v: a chip move is (tail, -1, head, 1)."""
        e = self.e
        return sum([(a * row[i] + b * row[j]) % e << at
                    for row, at in self._residue_rows])


class _PackedResidues:
    """Vectors of k residues mod e packed into one int, `width` bits per
    coordinate, wide enough for a sum of `terms` reduced vectors.

    `shift` adds two reduced vectors by one int addition and a correction
    that subtracts e from every coordinate that reached e, found from the
    top bit of each coordinate after adding 2^(width-1) - e to it, with no
    carry between coordinates; so a step of a walk costs a few int
    operations, not one per coordinate.  It steps a whole level of a walk
    in one call.
    """

    def __init__(self, k, e, terms=2):
        self.k, self.e = k, e
        self.width = width = (terms * e).bit_length() + 1
        self._offsets = range(0, width * k, width)  # of each coordinate
        ones = ((1 << (width * k)) - 1) // ((1 << width) - 1)  # k 1s, spaced
        self.high = ones << (width - 1)
        self.bias = ((1 << (width - 1)) - e) * ones
        self.mask = (1 << width) - 1
        self._fix = e, self.high, self.bias, width - 1  # what `shift` reads

    def pack(self, vec):
        """The packed vector of ints, each coordinate reduced mod e."""
        e = self.e
        return sum([c % e << at for c, at in zip(vec, self._offsets)])

    def unpack(self, x):
        mask = self.mask
        return [x >> at & mask for at in self._offsets]

    def canonical(self, x):
        """x, a sum of at most `terms` reduced vectors, reduced."""
        return self.pack(self.unpack(x))

    def shift(self, xs, steps):
        """Each reduced vector of the list xs plus each of the list steps,
        reduced, x by x: x0 + steps[0], x0 + steps[1], ..., x1 + steps[0],
        ..."""
        e, high, bias, top = self._fix
        return [s - (((s + bias) & high) >> top) * e
                for x in xs for s in map(x.__add__, steps)]

    def scale(self, x, c):
        """The reduced vector x times the int c, reduced."""
        return self.pack([c * y for y in self.unpack(x)])


def equivalent(g, D1, D2):
    """Certificate f with Laplacian(f) = D1 - D2, or None if inequivalent.

    D1 - D2 is principal iff its degree on every component is 0 and
    L_r f_r = (D1 - D2)_r has an integer solution.  One fraction-free solve
    gives y = d f_r with d = det(L_r), so f_r is integral iff d divides y.
    """
    check_on_graph(g, D1)
    check_on_graph(g, D2)
    if any(component_degrees(g, D1 - D2)):
        return None
    diff = (D1 - D2).vector(g)
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
