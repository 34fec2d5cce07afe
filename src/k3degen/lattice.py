"""Integer symmetric bilinear forms and the named even lattices of K3 theory.

Sign convention: the root lattices A(n) and E8 are stored negative definite
(diagonal -2), matching the K3 lattice U + U + U + E8 + E8 of signature
(3, 19). Use rescale(L, -1) for the positive definite variants.
"""

from __future__ import annotations

from . import _linalg
from ._record import Record

# Cap on the total rank: a Gram matrix holds rank**2 entries, and each
# symmetric elimination takes up to O(rank**3) Fraction steps; det and
# signature run one each, so `k3degen lattice` runs two. `k3degen lattice
# A200` takes about 0.5 s end to end on a 2-vCPU Xeon with Python 3.11.
MAX_RANK = 200


class Lattice(Record):
    """An integer lattice given by its symmetric Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram):
        rows = tuple(map(tuple, gram))
        bad = next(((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if type(x) is not int), None)
        if bad is not None:
            raise ValueError("Gram matrix entry at row {}, column {} is not an int: {!r}".format(*bad))
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("Gram matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        self._set(rows)

    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return _linalg.symmetric_invariants(self.gram)[0]

    def signature(self) -> tuple[int, int, int]:
        """Inertia (n+, n-, n0) of the form, computed exactly."""
        return _linalg.symmetric_invariants(self.gram)[1]

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(len(self.gram)))


def hyperbolic_plane() -> Lattice:
    """The rank-2 lattice U with Gram matrix ((0,1),(1,0))."""
    return Lattice([[0, 1], [1, 0]])


def root_lattice_a(n: int) -> Lattice:
    """Negative definite A(n): -2 on the diagonal, 1 on the path edges."""
    if n < 1:
        raise ValueError("A(n) requires n >= 1")
    if n > MAX_RANK:
        raise ValueError(f"A(n) requires n <= {MAX_RANK}, got {n}")
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = -2
        if i + 1 < n:
            gram[i][i + 1] = gram[i + 1][i] = 1
    return Lattice(gram)


_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


def root_lattice_e8() -> Lattice:
    """Negative definite E8 (negated Cartan matrix, determinant 1)."""
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = -2
    for i, j in _E8_EDGES:
        gram[i][j] = gram[j][i] = 1
    return Lattice(gram)


def k3_lattice() -> Lattice:
    """U + U + U + E8 + E8: rank 22, signature (3, 19), determinant -1."""
    u = hyperbolic_plane()
    e8 = root_lattice_e8()
    return direct_sum(u, u, u, e8, e8)


def standard_lattice(name: str) -> Lattice:
    """Construct a named lattice: "U", "E8", "K3", or "A<n>" / "A(<n>)", in any case."""
    key = name.upper()
    if key == "U":
        return hyperbolic_plane()
    if key == "E8":
        return root_lattice_e8()
    if key == "K3":
        return k3_lattice()
    if key.startswith("A"):
        digits = key[2:-1] if key[1:2] == "(" and key.endswith(")") else key[1:]
        # n is written as a JSON integer: ASCII digits without a leading zero
        if digits.isascii() and digits.isdigit() and (digits[0] != "0" or digits == "0"):
            if len(digits) > len(str(MAX_RANK)):  # above the cap, and maybe more digits than int() converts
                raise ValueError(f"A(n) requires n <= {MAX_RANK}, got {name!r}")
            return root_lattice_a(int(digits))
    raise ValueError(f"unknown lattice name: {name!r}")


def direct_sum(*lattices: Lattice) -> Lattice:
    """Block-diagonal sum; the empty sum is the rank-0 lattice."""
    total = sum(lat.rank() for lat in lattices)
    if total > MAX_RANK:
        raise ValueError(f"direct sum has rank {total}, above the cap {MAX_RANK}")
    gram = [[0] * total for _ in range(total)]
    offset = 0
    for lat in lattices:
        r = lat.rank()
        for i in range(r):
            for j in range(r):
                gram[offset + i][offset + j] = lat.gram[i][j]
        offset += r
    return Lattice(gram)


def rescale(lat: Lattice, n: int) -> Lattice:
    """The lattice L(n): the same module with the form multiplied by n."""
    if n == 0:
        raise ValueError("rescale factor must be nonzero")
    return Lattice([[n * x for x in row] for row in lat.gram])
