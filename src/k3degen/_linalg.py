"""Exact linear algebra over the integers and rationals.

Dense matrices, kept small by their callers: lattice Gram matrices up to
the rank cap of 200, and the residual of d2 that the union-find pass in
DeltaComplex.homology_dims leaves (the rows it cannot solve by killing or
joining classes, so empty on a surface). Fraction-free Bareiss elimination
and rational congruence diagonalization are plenty for these.
"""

from __future__ import annotations


def _bareiss(rows) -> tuple[int, int]:
    """Fraction-free elimination of an integer matrix: its rank over Q, and the
    sign of the row swaps times the last pivot (the determinant at full rank)."""
    m = [list(map(int, r)) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank, sign * prev


def exact_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    rank, last = _bareiss(rows)
    return last if rank == n else 0


def exact_rank(rows) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    return _bareiss(rows)[0]


def symmetric_inertia(rows) -> tuple[int, int, int]:
    """Inertia (n+, n-, n0) of a symmetric integer matrix.

    Congruence diagonalization over Q with symmetric pivoting: a nonzero
    diagonal entry is moved into pivot position when one exists; otherwise a
    nonzero off-diagonal pair (i, j) is made diagonal by the symmetric row
    and column addition i += j, which stays exact in characteristic 0.
    Sylvester's law of inertia makes the sign counts well-defined.
    """
    from fractions import Fraction  # on first use: a cold CLI start that needs no inertia skips it

    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inertia requires a square matrix")
    a = [[Fraction(x) for x in row] for row in rows]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("inertia requires a symmetric matrix")

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    pos = neg = zero = 0
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i] != 0), None)
        if pivot is None:
            hit = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if hit is None:
                zero += n - k
                break
            i, j = hit
            for col in range(n):
                a[i][col] += a[j][col]
            for row in a:
                row[i] += row[j]
            pivot = i
        if pivot != k:
            swap(pivot, k)
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f == 0:
                continue
            for col in range(n):
                a[i][col] -= f * a[k][col]
            for row in a:
                row[i] -= f * row[k]
    return pos, neg, zero
