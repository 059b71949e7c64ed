import math
import random

import pytest
import sympy
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariants
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import intlinalg

matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))

square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n))


def _mirrored(n, upper):
    """The symmetric n x n matrix whose upper triangle, row by row, is
    `upper`."""
    A = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = next(it)
    return A


# symmetric matrices, what every production caller passes; small
# entries, zero and negative diagonals included, so zero pivots and the
# mirror before a row swap come up often
symmetric_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                       max_size=n * (n + 1) // 2).map(
        lambda upper: _mirrored(n, upper)))


def _sympy_diagonal(A):
    """Nonnegative Smith diagonal of A, min(rows, cols) entries long."""
    diag = [abs(int(x)) for x in sympy_snf(sympy.Matrix(A), domain=ZZ).diagonal()]
    return (diag + [0] * len(A[0]))[:min(len(A), len(A[0]))]


def _matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _random_laplacian(rng, n):
    """Random spanning tree plus 2n random edges, edge weights 1-5."""
    L = [[0] * n for _ in range(n)]
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)]
    for u, v in edges:
        w = rng.randint(1, 5)
        L[u][u] += w
        L[v][v] += w
        L[u][v] -= w
        L[v][u] -= w
    return L


@given(square_matrices)
@settings(max_examples=150, deadline=None)
def test_inverse_is_exact_and_minimal(A):
    if intlinalg.det(A) == 0:
        with pytest.raises(ValueError):
            intlinalg.inverse(A)
        return
    X, e = intlinalg.inverse(A)
    n = len(A)
    assert sympy.Matrix(A) * sympy.Matrix(X) == e * sympy.eye(n)
    # e is minimal: no common factor of e and X could be divided out
    assert e > 0 and math.gcd(e, *(x for row in X for x in row)) == 1
    assert e == _sympy_diagonal(A)[-1]


@given(matrices, st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_snf_matches_sympy(A, m):
    want = _sympy_diagonal(A)
    assert intlinalg.smith_diagonal(A, m) == [math.gcd(s, m) for s in want]
    if all(want):
        exponent = want[-1]
        assert intlinalg.smith_diagonal(A, m * exponent) == want


def _unimodular(rng, n):
    """The identity under 3n random row additions, multipliers -2..2."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]
    return U


def test_snf_splits_moduli_of_small_and_large_primes(monkeypatch):
    # U D V with D holding 1009 * 1013, 1009^2 and 2 * 1009 has no entry
    # whose gcd with such a modulus divides every other entry, so the
    # elimination must split the modulus into coprime parts
    splits = []
    split = intlinalg.coprime_split
    monkeypatch.setattr(intlinalg, "coprime_split",
                        lambda m, c: splits.append(m) or split(m, c))
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(3, 5)
        D = [1009 * 1013, 1009 ** 2, 2 * 1009] + [rng.choice((1, 2, 3, 6))
                                                 for _ in range(n - 3)]
        rng.shuffle(D)
        U, V = _unimodular(rng, n), _unimodular(rng, n)
        A = [[sum(U[i][k] * D[k] * V[k][j] for k in range(n))
              for j in range(n)] for i in range(n)]
        want = _sympy_diagonal(A)
        for m in (2 * 1009 * 1013, 6 * 1009 ** 2 * 1013,
                  12 * 1009 * 1013 ** 2, want[-1], 30 * want[-1]):
            assert intlinalg.smith_diagonal(A, m) == [math.gcd(s, m)
                                                      for s in want]
    assert len(splits) >= 30


@given(square_matrices, st.lists(st.integers(-5, 5), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_solve_is_sound(A, x):
    if intlinalg.det(A) == 0:
        return
    x = x[:len(A)]
    X, e = intlinalg.inverse(A)
    y = _matvec(X, _matvec(A, x))
    assert [c // e for c in y] == x and all(c % e == 0 for c in y)


def test_solve_detects_unsolvable():
    for A, b in (([[2]], [1]), ([[2, 0], [0, 3]], [0, 1])):
        X, e = intlinalg.inverse(A)
        assert any(c % e for c in _matvec(X, b))


@given(square_matrices, st.lists(st.integers(-9, 9), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_fraction_free_solve_matches_sympy(A, b):
    b = b[:len(A)]
    d = sympy.Matrix(A).det()
    if d == 0:
        with pytest.raises(ValueError):
            intlinalg.solve(A, b)
        return
    y, got_d = intlinalg.solve(A, b)
    assert got_d == d
    assert sympy.Matrix(y) == d * sympy.Matrix(A).LUsolve(sympy.Matrix(b))
    assert _matvec(A, y) == [d * c for c in b]


def test_fraction_free_solve_of_singular_and_empty_matrices():
    for A in ([[0]], [[1, 2], [2, 4]], [[0, 0, 1], [0, 0, 2], [1, 1, 1]]):
        with pytest.raises(ValueError):
            intlinalg.solve(A, [1] * len(A))
        with pytest.raises(ValueError):
            intlinalg.inverse(A)
    assert intlinalg.solve([], []) == ([], 1)
    assert intlinalg.inverse([]) == ([], 1)


def test_fraction_free_solve_on_weighted_laplacians():
    rng = random.Random(2)
    for n in (10, 20, 40, 60):
        Lr = [row[1:] for row in _random_laplacian(rng, n)[1:]]
        b = [rng.randint(-5, 5) for _ in range(n - 1)]
        y, d = intlinalg.solve(Lr, b)
        X, e = intlinalg.inverse(Lr)
        assert d == intlinalg.det(Lr)
        # d A^-1 b computed twice: from the solve and from the inverse
        assert [c * e for c in y] == [d * c for c in _matvec(X, b)]
        # A X == e I by plain integer multiplication, with e minimal
        assert [_matvec(Lr, col) for col in zip(*X)] == \
            [[e * (i == j) for i in range(n - 1)] for j in range(n - 1)]
        assert e > 0 and math.gcd(e, *(x for row in X for x in row)) == 1


@given(st.lists(st.integers(-12, 12), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_kernel_basis(w):
    # w*V == (g, 0, ..., 0) with V unimodular, so V's columns after the
    # first are a basis of the integer kernel of w
    cols = intlinalg.gcd_basis(w)
    V = [[col[i] for col in cols] for i in range(len(w))]
    assert abs(sympy.Matrix(V).det()) == 1
    assert [sum(a * b for a, b in zip(w, col)) for col in cols] == \
        [math.gcd(*w)] + [0] * (len(w) - 1)


@given(square_matrices)
@settings(max_examples=150, deadline=None)
def test_det_matches_sympy(A):
    assert intlinalg.det(A) == sympy.Matrix(A).det()


def test_det_of_empty_and_singular_matrices():
    assert intlinalg.det([]) == 1
    assert intlinalg.det([[0, 0], [0, 0]]) == 0
    assert intlinalg.det([[0, 1], [1, 0]]) == -1
    assert intlinalg.det([[0, 0, 1], [0, 0, 2], [1, 1, 1]]) == 0


def test_lattice_quotient_simple():
    # Z^2 / (2Z x 3Z) = Z/2 + Z/3 = Z/6
    A = [[2, 0], [0, 3]]
    _, e = intlinalg.inverse(A)
    assert e == 6
    assert intlinalg.smith_diagonal(A, e) == [1, 6]


def test_roadmap_7x7_laplacian(roadmap_7x7):
    Lr = [row[1:] for row in roadmap_7x7[1:]]
    X, e = intlinalg.inverse(Lr)
    assert sympy.Matrix(Lr) * sympy.Matrix(X) == e * sympy.eye(6)
    diag = intlinalg.smith_diagonal(Lr, e)
    assert math.prod(diag) == intlinalg.det(Lr) == 6084143
    assert diag == _sympy_diagonal(Lr)


def test_random_weighted_laplacians():
    rng = random.Random(1)
    for n in range(5, 41):
        Lr = [row[1:] for row in _random_laplacian(rng, n)[1:]]
        _, e = intlinalg.inverse(Lr)
        diag = intlinalg.smith_diagonal(Lr, e)
        assert math.prod(diag) == intlinalg.det(Lr)
        if n <= 12:
            want = [int(d) for d in sympy_invariants(sympy.Matrix(Lr), domain=ZZ)]
            assert [d for d in diag if d > 1] == [d for d in want if d > 1]


@given(symmetric_matrices, st.lists(st.integers(-9, 9), min_size=6,
                                    max_size=6))
@settings(max_examples=300, deadline=None)
def test_symmetric_elimination_matches_sympy(A, b):
    n = len(A)
    d = sympy.Matrix(A).det()
    assert intlinalg.det(A) == d
    if d == 0:
        with pytest.raises(ValueError):
            intlinalg.cyclic_split(A)
        return
    y, got_d = intlinalg.solve(A, b[:n])
    assert got_d == d and _matvec(A, y) == [d * c for c in b[:n]]
    # a prime that cyclic_split calls cyclic misses some (n-1)-minor
    m, m1 = intlinalg.cyclic_split(A)
    minors = math.gcd(*(int(x) for x in sympy.Matrix(A).adjugate()))
    assert m == abs(d) and m % m1 == 0
    assert math.gcd(m // m1, minors) == 1


def test_symmetric_elimination_through_a_zero_pivot():
    # a first pivot of 0, [[0, 1], [1, 0]], is in
    # test_det_of_empty_and_singular_matrices; here the second pivot is 0
    # after one symmetric step, so the active block is mirrored and swapped
    assert intlinalg.det([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
    y, d = intlinalg.solve([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [1, 2, 3])
    assert d == -1 and y == [1, -2, -1]
    # here the entry that the swap looks for is 0 before the mirror and -1
    # after it
    assert intlinalg.det([[1, 1, 1], [1, 1, 0], [1, 0, 0]]) == -1
    # the reduced Laplacian of two disjoint edges, ab and cd
    L = [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    assert intlinalg.det([row[1:] for row in L[1:]]) == 0
