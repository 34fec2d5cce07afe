"""Exact linear algebra over the integers and rationals.

Dense matrices, kept small by their callers: lattice Gram matrices up to
the rank cap of 200, and the rows of d2 that DeltaComplex.homology_dims
cannot read off its signed walk (edges on three or more sides, over the
walk's live classes, so none on a surface). exact_rank ranks them by
fraction-free Bareiss elimination. symmetric_invariants reads a Gram
matrix's determinant and inertia off one rational congruence
diagonalization; its pivots are ratios of leading minors, so a rescaled
form keeps entries of the scale's size instead of its powers.
"""

from __future__ import annotations


def exact_rank(rows) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    m = [list(map(int, r)) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def symmetric_invariants(rows) -> tuple[int, tuple[int, int, int]]:
    """Determinant and inertia (n+, n-, n0) of a symmetric integer matrix.

    Congruence diagonalization over Q with symmetric pivoting: the first
    nonzero diagonal entry of the trailing block is the next pivot; when the
    diagonal is all zero, the first nonzero off-diagonal pair (i, j) is made
    diagonal by the symmetric row and column addition i += j. Each pivot
    replaces the trailing block by its Schur complement. Every step is a
    congruence by a matrix of determinant +-1, so the determinant is the
    product of the pivots, and Sylvester's law of inertia makes the sign
    counts well-defined.
    """
    from fractions import Fraction  # on first use: a cold CLI start that needs no lattice skips it

    a = [[Fraction(x) for x in row] for row in rows]  # the trailing block
    det = 1
    pos = neg = 0
    while a:
        k = next((i for i in range(len(a)) if a[i][i] != 0), None)
        if k is None:
            hit = next(
                ((i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i][j] != 0),
                None,
            )
            if hit is None:
                return 0, (pos, neg, len(a))
            k, j = hit
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        pivot_row = a.pop(k)
        d = pivot_row.pop(k)
        for row in a:
            f = row.pop(k) / d
            if f == 0:
                continue
            for col, x in enumerate(pivot_row):
                row[col] -= f * x
        det *= d
        if d > 0:
            pos += 1
        else:
            neg += 1
    return int(det), (pos, neg, 0)
