"""Group structure and cardinality of the Jacobian and its balanced subgroup."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from . import intlinalg
from .divisors import (Divisor, LaplacianSystem, reduced_laplacian,
                       require_pleasant)
from .errors import InternalError, PreconditionError


@dataclass(frozen=True)
class AbelianGroupStructure:
    invariant_factors: tuple[int, ...]  # d1 | d2 | ..., each >= 2; () is trivial

    @property
    def order(self):
        return math.prod(self.invariant_factors)


def _structure(A, m1, m2):
    """Invariant factors of the torsion T of Z^rows / col-span(A), for
    coprime m1 and m2 with |T| dividing m1 * m2 and the part of T at the
    primes of m2 cyclic of order m2.  That part sits wholly in the largest
    invariant factor, so this is the Smith diagonal modulo m1 alone, with
    its last entry times m2."""
    diag = intlinalg.smith_diagonal(A, m1)
    if diag:
        diag[-1] *= m2
    return AbelianGroupStructure(tuple(d for d in diag if d > 1))


def pic0_structure(g) -> AbelianGroupStructure:
    """Invariant factors of degree-0 divisors modulo principal divisors.

    The Jacobian is the cokernel of the reduced Laplacian L_r, of order
    m = |det L_r|.  `intlinalg.cyclic_split` writes m = m1 * m2 with the
    part of order m2 cyclic, so the Smith elimination runs modulo m1 only,
    and not at all when m1 = 1.
    """
    Lr, _ = reduced_laplacian(g)
    m, m1 = intlinalg.cyclic_split(Lr)
    return _structure(Lr, m1, m // m1)


def picb0_structure(g) -> AbelianGroupStructure:
    """Invariant factors of balanced degree-0 divisors modulo principal ones.

    Row v of the Laplacian divided by w(v) is integral on a pleasant graph,
    and a -> (w(v) a_v) maps the kernel of the per-component weighted
    degree onto the balanced degree-0 divisors, so the balanced Jacobian is
    the torsion of the cokernel of W^-1 L, whose root columns are redundant.
    It is a subgroup of the Jacobian, of order m = m1 * m2 as in
    `pic0_structure`, so its exponent divides m, and its part at the
    primes of m2 is a subgroup of a cyclic group: cyclic, of order
    gcd(|Picb0|, m2).
    """
    require_pleasant(g, "the balanced Jacobian")
    Lr, keep = reduced_laplacian(g)
    m, m1 = intlinalg.cyclic_split(Lr)
    L = g.laplacian_matrix()
    return _structure([[L[i][j] // g.vertex_weight[v] for j in keep]
                       for i, v in enumerate(g.vertices)],
                      m1, math.gcd(_balanced_order(g, m), m // m1))


def _balanced_deg0_generators(g):
    """Columns generating the lattice of balanced degree-0 divisors."""
    weights = [g.vertex_weight[v] for v in g.vertices]
    kernel = intlinalg.gcd_basis(weights)[1:]
    return [[a * w for a, w in zip(vec, weights)] for vec in kernel]


def count_pic0(g) -> int:
    """|Pic0| as the determinant of the reduced Laplacian, which by the
    weighted matrix-tree theorem equals the sum over maximal spanning
    forests of the product of their edge weights (`selfcheck.tree_sum`)."""
    return intlinalg.det(reduced_laplacian(g)[0])


def count_picb0(g) -> int:
    """Closed-form count of the balanced Jacobian: |Pic0| times, per
    component, the gcd of its vertex weights over their product."""
    require_pleasant(g, "the balanced count")
    return _balanced_order(g, count_pic0(g))


def _balanced_order(g, m):
    """|Picb0| of a pleasant graph from m = |Pic0|, by `count_picb0`'s
    closed form.  Both callers check pleasantness first, so a count that
    is not an integer means m is not |Pic0|."""
    gcds = math.prod(math.gcd(*(g.vertex_weight[v] for v in comp))
                     for comp in g.components())
    ratio = math.prod(g.vertex_weight.values()) // gcds
    if m % ratio:
        raise InternalError(
            f"balanced count came out non-integral: |Pic0| = {m} is not a "
            f"multiple of prod(w)/gcd(w) = {ratio}, so |Pic0| was computed "
            "wrongly")
    return m // ratio


def enumerate_coset_representatives_bruteforce(g, balanced_only=False,
                                               system=None):
    """One degree-0 divisor per chip-firing class (balanced classes only if
    requested), by closing the zero divisor under translation generators.

    Deterministic breadth-first order.  Connected graphs only.  `system` is
    g's LaplacianSystem if the caller has one.  The group is finite, so
    closed under its generators: a neighbour is a generator away, and as
    the generators have degree 0 and the key part X D_r mod e is linear,
    its key is the current key plus the generator's, a whole level at once
    by the system's `packed.shift`; its vector is built only when its key
    is new.  Raises InternalError when the closure outgrows the e^k keys of
    its k residues, which only keys left unreduced can do.
    """
    if not g.is_connected():
        raise PreconditionError("brute-force enumeration requires a connected graph")
    if balanced_only:
        require_pleasant(g, "balanced enumeration")
        gens = _balanced_deg0_generators(g)
    else:
        gens = []
        for i in range(1, g.n):
            col = [0] * g.n
            col[0] = 1
            col[i] = -1
            gens.append(col)
    if system is None:
        system = LaplacianSystem(g)
    packed = system.packed
    step_keys = [system.vector_key(gen)[1] for gen in gens]
    start = (0,) * g.n
    seen = {system.vector_key(start)[1]: start}
    # level by level: a level's keys step in one call, in the order that
    # a queue would take them
    level = list(seen.items())
    limit = system.e ** packed.k
    while level:
        keys = iter(packed.shift([key for key, _ in level], step_keys))
        nxt_level = []
        for _, cur in level:
            for step, key in zip(gens, keys):
                if key not in seen:
                    nxt = seen[key] = tuple(map(add, cur, step))
                    nxt_level.append((key, nxt))
        level = nxt_level
        if len(seen) > limit:
            raise InternalError(
                f"the closure reached {len(seen)} classes, more than the "
                f"{limit} keys mod e = {system.e}; its keys were not reduced")
    return [Divisor(dict(zip(g.vertices, vec))) for vec in seen.values()]
