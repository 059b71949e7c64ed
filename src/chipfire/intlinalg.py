"""Exact integer linear algebra on small dense matrices.

Everything here works on plain lists of Python ints, so intermediate
values may grow without overflow.  Matrices are lists of rows.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import InternalError


def smith_diagonal(A, m):
    """Smith diagonal of A modulo m > 0: [gcd(s_i, m)] for i < min(rows, cols),
    where s_1 | s_2 | ... is the Smith diagonal of A over the integers.

    Every entry is kept reduced mod m, so coefficients stay below m.  The
    result is the exact Smith diagonal of A whenever A has full rank and m
    is a multiple of the exponent of the torsion of its cokernel.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    S = [[x % m for x in row] for row in A]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]

    # While some entry is a unit mod m, pivot on it: once its column is
    # cleared, the column steps that clear its row change nothing else, so
    # it contributes a 1 and the Euclidean steps below reduce the rest.
    t = 0
    while t < min(rows, cols):
        unit = next(((i, j) for i in range(t, rows) for j in range(t, cols)
                     if math.gcd(S[i][j], m) == 1), None)
        if unit is None:
            break
        S[t], S[unit[0]] = S[unit[0]], S[t]
        swap_cols(t, unit[1])
        pivot_row = S[t]
        inv = pow(pivot_row[t], -1, m)
        for i in range(t + 1, rows):
            f = S[i][t] * inv % m
            if f:
                S[i] = [(a - f * b) % m for a, b in zip(S[i], pivot_row)]
        t += 1

    for t in range(t, min(rows, cols)):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = S[i][j]
                if v and (piv is None or v < S[piv[0]][piv[1]]):
                    piv = (i, j)
        if piv is None:
            break
        S[t], S[piv[0]] = S[piv[0]], S[t]
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    S[i] = [(a - q * b) % m for a, b in zip(S[i], S[t])]
                    if S[i][t]:
                        # remainder is smaller than the pivot; promote it
                        S[t], S[i] = S[i], S[t]
                        dirty = True
            for j in range(t + 1, cols):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    for row in S[t:]:
                        row[j] = (row[j] - q * row[t]) % m
                    if S[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            bad = next((i for i in range(t + 1, rows)
                        if any(S[i][j] % S[t][t] for j in range(t + 1, cols))),
                       None)
            if bad is None:
                break
            # fold the offending row in so the pivot can shrink to the gcd
            S[t] = [(a + b) % m for a, b in zip(S[t], S[bad])]
    return [math.gcd(S[i][i], m) for i in range(min(rows, cols))]


def gcd_basis(w):
    """Columns of a unimodular V with w*V == (gcd(w), 0, ..., 0), by the
    extended Euclidean algorithm on the row w.

    The first column solves w*x == gcd(w); the others are a basis of the
    integer kernel of w.
    """
    r = list(w)
    cols = [[int(i == j) for i in range(len(r))] for j in range(len(r))]
    while sum(1 for x in r if x) > 1:
        p = min((j for j in range(len(r)) if r[j]), key=lambda j: abs(r[j]))
        for j in range(len(r)):
            if j != p and r[j]:
                q = r[j] // r[p]
                r[j] -= q * r[p]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
    p = next((j for j in range(len(r)) if r[j]), 0)
    if r:
        cols[0], cols[p] = cols[p], cols[0]
        if r[p] < 0:
            cols[0] = [-a for a in cols[0]]
    return cols


def _eliminate(M, n):
    """Bareiss forward elimination, in place, on the n rows of M, which may
    carry extra columns after the first n; returns det(A), with A the
    first n columns.

    Step k updates only the columns after k of the rows below k, so M ends
    upper triangular on and above the diagonal, every entry a minor of the
    input, and U y = t c of the result is equivalent to the input system
    for any scalar t.  Entries below the diagonal are left stale.
    """
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = M[k]
        pivot = pivot_row[k]
        if not pivot:
            p = next((i for i in range(k + 1, n) if M[i][k]), None)
            if p is None:
                return 0
            M[k], M[p] = M[p], M[k]
            sign = -sign
            pivot_row = M[k]
            pivot = pivot_row[k]
        cols = range(k + 1, len(pivot_row))
        for i in range(k + 1, n):
            row = M[i]
            f = row[k]
            if f:
                for j in cols:
                    row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
            else:
                for j in cols:
                    row[j] = pivot * row[j] // prev
        prev = pivot
    return sign * M[n - 1][n - 1]


def _solve_columns(A, cols):
    """(Y, d) with d = det(A) and A y == d c for each column c of cols and
    its y in Y, for a nonsingular square A.

    One fraction-free elimination on [A | cols], then back-substitution of
    each column with exact division: y = d A^-1 c is integral by Cramer's
    rule, so a remainder means an internal fault.  Raises ValueError if A
    is singular.
    """
    n = len(A)
    M = [[*map(int, row), *map(int, crow)] for row, crow in zip(A, zip(*cols))]
    d = _eliminate(M, n)
    if d == 0:
        raise ValueError("singular matrix")
    Y = []
    for j in range(n, n + len(cols)):
        y = [0] * n
        for k in range(n - 1, -1, -1):
            row = M[k]
            y[k], r = divmod(d * row[j] - sum(map(mul, row[k + 1:n], y[k + 1:])),
                             row[k])
            if r:
                raise InternalError("fraction-free back-substitution left a "
                                    "remainder")
        Y.append(y)
    return Y, d


def det(A):
    """Exact determinant of a square integer matrix (Bareiss)."""
    return _eliminate([list(map(int, row)) for row in A], len(A))


def solve(A, b):
    """(y, d) with A y == d b and d = det(A), for a nonsingular square A.
    Raises ValueError if A is singular."""
    (y,), d = _solve_columns(A, [b])
    return y, d


def inverse(A):
    """Scaled integral inverse of a nonsingular square matrix.

    Returns (X, e) with A*X == e*I and e > 0 minimal, so e is the exponent
    of the cokernel Z^n / A Z^n: the columns of det(A) A^-1, solved against
    I, divided by their common content with det(A).  Raises ValueError if A
    is singular.
    """
    n = len(A)
    Y, d = _solve_columns(A, [[int(i == j) for i in range(n)]
                              for j in range(n)])
    c = math.gcd(d, *(x for y in Y for x in y))
    if d < 0:
        c = -c
    return [[y[i] // c for y in Y] for i in range(n)], d // c
