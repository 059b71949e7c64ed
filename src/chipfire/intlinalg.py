"""Exact integer linear algebra on the matrices of graphs.

Everything here works on plain lists of Python ints, so intermediate
values may grow without overflow.  Matrices are lists of rows.  The
fraction-free elimination behind `det`, `solve`, `inverse` and
`cyclic_split` takes rows and columns sparsest first and leaves alone the
rows whose multiplier is 0, so on a sparse matrix, such as the reduced
Laplacian of a graph with few edges per vertex, most rows are not touched
at most steps.  The Smith diagonal is taken modulo a multiple of the
cokernel's exponent, so its entries stay small.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul

from .errors import InternalError


def coprime_split(m, c):
    """(a, m // a) for m > 0: a is the largest divisor of m whose primes
    all divide c, so the two parts are coprime and m // a is coprime to
    c."""
    r = m
    while (d := math.gcd(r, c)) > 1:
        r //= d
        c = d
    return m // r, r


def smith_diagonal(A, m):
    """Smith diagonal of A modulo m > 0: [gcd(s_i, m)] for i < min(rows, cols),
    where s_1 | s_2 | ... is the Smith diagonal of A over the integers.

    Every entry is kept reduced mod m, so coefficients stay below m.  The
    result is the exact Smith diagonal of A whenever A has full rank and m
    is a multiple of the exponent of the torsion of its cokernel.  With
    m = 1 no elimination runs.
    """
    rows = len(A)
    if m == 1:
        return [1] * (min(rows, len(A[0])) if rows else 0)
    return _diagonal([[x % m for x in row] for row in A], m)


def _diagonal(S, m):
    """smith_diagonal of S, whose entries are reduced mod m; consumes S.

    Each step pivots on an entry x whose g = gcd(x, m) divides every entry
    of the block, so g is the block's first invariant factor mod m: a unit
    when there is one, else the entry of least g.  Its row steps clear its
    column; the column steps that would clear its row change nothing else,
    so the pivot row and column just leave the block.  When the least g
    fails to divide some entry y, the primes where x has more of m than y
    has are split from the rest, m = a * b with a and b coprime, and the
    block continues modulo each part; by the Chinese remainder theorem
    the two diagonals multiply entrywise.
    """
    gcd = math.gcd
    diag = []
    while S and S[0]:
        g = m
        for i, row in enumerate(S):
            for j, x in enumerate(row):
                d = gcd(x, m)
                if d < g:
                    g, pi, pj = d, i, j
                    if g == 1:
                        break
            if g == 1:
                break
        if g == m:  # the block is zero mod m
            return diag + [m] * min(len(S), len(S[0]))
        if g > 1:
            y = next((x for row in S for x in row if x % g), None)
            if y is not None:
                a, b = coprime_split(m, g // gcd(g, y))
                return diag + [x * z for x, z in zip(
                    _diagonal([[x % a for x in row] for row in S], a),
                    _diagonal([[x % b for x in row] for row in S], b))]
        # move the pivot to the last row and column, then drop both
        S[pi], S[-1] = S[-1], S[pi]
        pivot_row = S.pop()
        for row in S:
            row[pj], row[-1] = row[-1], row[pj]
        pivot_row[pj], pivot_row[-1] = pivot_row[-1], pivot_row[pj]
        # x = g u with u a unit mod m/g, and g divides each entry f of the
        # column, so subtracting (f/g) u^-1 times the pivot row clears f
        mg = m // g
        inv = pow(pivot_row.pop() // g, -1, mg)
        cols = range(len(pivot_row))
        for row in S:
            f = row.pop()
            if f:
                f = f // g * inv % mg
                for j in cols:
                    row[j] = (row[j] - f * pivot_row[j]) % m
        diag.append(g)
    return diag


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


def _symmetric(M, n):
    """Whether the leading n x n block of M is symmetric."""
    for i in range(1, n):
        row = M[i]
        for j in range(i):
            if row[j] != M[j][i]:
                return False
    return True


def _eliminate(M, n):
    """Bareiss forward elimination, in place, on the n rows of M, which may
    carry extra columns after the first n; returns det(A), with A the
    first n columns.

    Step k updates only the columns after k of the rows below k, so M ends
    upper triangular on and above the diagonal, every entry a minor of the
    input, and U y = t c of the result is equivalent to the input system
    for any scalar t.  Entries below the diagonal are left stale.

    Rows are brought up to date lazily.  Step k would only multiply a row
    whose multiplier is 0 by pivot / prev, so it leaves that row alone,
    and tags[i] keeps the pivot that row i was last brought to: its
    current entries are x * prev / tags[i], each a minor, so the division
    is exact.  A step that does update the row folds that factor into its
    division, (pivot * x - f * y) / tag with f the row's multiplier at its
    tag; a row is brought up to date in one pass when it becomes the pivot
    row, before a zero pivot's mirror and swap, and after the last step.
    M so ends with the same upper triangle, extra columns included, as
    eager Bareiss in the same order.  In a sparse matrix most multipliers
    are 0, and their rows are not touched.

    When A is symmetric, as every reduced Laplacian is, each Schur
    complement that the steps leave in the active block is symmetric too,
    so row i at step k updates only columns i onwards (the upper triangle
    and the extra columns), about half the work.  Its multiplier is read
    from the pivot row: M[k][i] equals M[i][k], which this path leaves
    stale.  Every entry it keeps is computed from the same values as on
    the general path, so it is the same minor.  A zero pivot on that path
    first copies the active block's upper triangle into its lower part;
    the row swap then breaks the symmetry, and the general path takes
    over.  Below 6 x 6 it saves no more entry updates than the symmetry
    test makes comparisons (at most n(n-1)(n-2)/6 against n(n-1)/2), so
    it is not tried.
    """
    if n == 0:
        return 1
    sym = n >= 6 and _symmetric(M, n)
    width = len(M[0])
    tags = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = M[k]
        if not pivot_row[k]:
            for i in range(k, n):
                t = tags[i]
                if t != prev:
                    row = M[i]
                    for j in range(i if sym else k, width):
                        row[j] = row[j] * prev // t
                    tags[i] = prev
            if sym:
                for i in range(k + 1, n):
                    M[i][k:i] = [M[j][i] for j in range(k, i)]
                sym = False
            p = next((i for i in range(k + 1, n) if M[i][k]), None)
            if p is None:
                return 0
            M[k], M[p] = M[p], M[k]
            sign = -sign
            pivot_row = M[k]
        else:
            t = tags[k]
            if t != prev:
                for j in range(k, width):
                    pivot_row[j] = pivot_row[j] * prev // t
        pivot = pivot_row[k]
        if sym:
            for i in range(k + 1, n):
                f = pivot_row[i]
                if f:
                    row = M[i]
                    t = tags[i]
                    if t != prev:
                        f = f * t // prev
                    for j in range(i, width):
                        row[j] = (pivot * row[j] - f * pivot_row[j]) // t
                    tags[i] = pivot
        else:
            for i in range(k + 1, n):
                row = M[i]
                f = row[k]
                if f:
                    t = tags[i]
                    for j in range(k + 1, width):
                        row[j] = (pivot * row[j] - f * pivot_row[j]) // t
                    tags[i] = pivot
        prev = pivot
    last = M[n - 1]
    t = tags[n - 1]
    if t != prev:
        for j in range(n - 1, width):
            last[j] = last[j] * prev // t
    return sign * last[n - 1]


def _sparsest_first(A):
    """(M, order): a copy of A with its rows and columns both taken in
    `order`, fewest nonzero entries first (a stable sort), and that order,
    or None when it is A's own.  M has A's determinant, and each minor of
    M is one of A up to sign."""
    n = len(A)
    nonzeros = [n - row.count(0) for row in A]
    if nonzeros == sorted(nonzeros):
        return [list(row) for row in A], None
    order = sorted(range(n), key=nonzeros.__getitem__)
    take = itemgetter(*order)
    return [list(take(row)) for row in take(A)], order


def _solve_columns(A, cols):
    """(Y, d) with d = det(A) and A y == d c for each column c of cols and
    its y in Y, for a nonsingular square A.

    One fraction-free elimination on [A | cols], with A's rows and columns
    and the entries of each c taken sparsest first, then back-substitution
    of each column with exact division, and each y put back in A's order.
    y = d A^-1 c is integral by Cramer's rule, so a remainder means an
    internal fault.  Raises ValueError if A is singular.
    """
    n = len(A)
    M, order = _sparsest_first(A)
    if order is not None:
        cols = list(map(itemgetter(*order), cols))
    for row, crow in zip(M, zip(*cols)):
        row += crow
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
    if order is not None:
        back = itemgetter(*sorted(range(n), key=order.__getitem__))
        Y = [list(back(y)) for y in Y]
    return Y, d


def det(A):
    """Exact determinant of a square integer matrix (Bareiss), eliminated
    with its rows and columns taken sparsest first."""
    return _eliminate(_sparsest_first(A)[0], len(A))


def cyclic_split(A):
    """(m, m1) for a nonsingular square A, with m = |det A| and m1 the full
    prime powers in m of the primes that divide two (n-1)-minors of A.  A
    prime of m // m1 misses an (n-1)-minor, so it divides only the largest
    invariant factor of A (Cohen, GTM 138, section 2.4): the part of the
    cokernel Z^n / A Z^n of order m // m1 is cyclic.  Raises ValueError if
    A is singular.

    The minors are two that Bareiss's elimination leaves in its last pivot
    row.  It eliminates A with its rows and columns taken sparsest first,
    as `det` does, so they are minors of A up to sign, and this costs one
    determinant.
    """
    n = len(A)
    M, _ = _sparsest_first(A)
    m = abs(_eliminate(M, n))
    if m == 0:
        raise ValueError("singular matrix")
    if n < 2:
        return m, 1
    minors = math.gcd(M[n - 2][n - 2], M[n - 2][n - 1])
    return m, coprime_split(m, math.gcd(m, minors))[0]


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
