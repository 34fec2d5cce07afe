import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from k3degen import _linalg
from k3degen._linalg import symmetric_invariants
from k3degen.lattice import (
    Lattice,
    direct_sum,
    hyperbolic_plane,
    k3_lattice,
    rescale,
    root_lattice_a,
    root_lattice_e8,
    standard_lattice,
)

import oracles


def random_symmetric(rng, n, lo=-6, hi=6):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of rank 0..8, small or past 2**64, with
    optionally an all-zero diagonal, a repeated row and column, or a positive
    and a negative diagonal entry (so an indefinite form)."""
    n = draw(st.integers(0, 8))
    bound = draw(st.sampled_from([6, 2**80]))
    entries = st.integers(-bound, bound)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        if draw(st.booleans()):  # row and column j repeat row and column i
            for k in range(n):
                m[j][k] = m[k][j] = m[i][k]
            m[j][j] = m[i][j] = m[j][i] = m[i][i]
        else:
            m[i][i] = draw(st.integers(1, bound))
            m[j][j] = -draw(st.integers(1, bound))
    return m


class TestConstruction:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Lattice([[1, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Lattice([[0, 1], [2, 0]])

    @pytest.mark.parametrize("gram, where", [
        ([[2.5]], "row 0, column 0 is not an int: 2.5"),
        ([[True, 0], [0, 1]], "row 0, column 0 is not an int: True"),
        ([[1, 0], [0, 1.9]], "row 1, column 1 is not an int: 1.9"),
        ([[0, Fraction(1)], [Fraction(1), 0]], "row 0, column 1 is not an int: Fraction(1, 1)"),
        ([[2, "1"], [1, 2]], "row 0, column 1 is not an int: '1'"),
    ])
    def test_rejects_entries_that_are_not_ints(self, gram, where):
        with pytest.raises(ValueError, match=f"^Gram matrix entry at {re.escape(where)}$"):
            Lattice(gram)

    def test_rank_zero(self):
        zero = Lattice([])
        assert zero.rank() == 0 and zero.det() == 1 and zero.signature() == (0, 0, 0)

    def test_repr_shows_the_gram_and_eliminates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_linalg, "symmetric_invariants", lambda gram: calls.append(gram))
        huge = rescale(standard_lattice("A50"), 10**1000)  # its determinant has more digits than str() prints
        assert repr(huge).startswith("Lattice(gram=((-2" + "0" * 1000 + ", ")
        assert repr(hyperbolic_plane()) == "Lattice(gram=((0, 1), (1, 0)))"
        assert calls == []


class TestNamedLattices:
    def test_hyperbolic_plane(self):
        u = hyperbolic_plane()
        assert u.gram == ((0, 1), (1, 0))
        assert u.det() == -1
        assert u.signature() == (1, 1, 0)
        assert u.is_even()
        assert u == Lattice(((0, 1), (1, 0))) and hash(u) == hash(Lattice(((0, 1), (1, 0))))
        assert u != u.gram
        with pytest.raises(AttributeError, match="Lattice is immutable"):
            u.gram = ()

    def test_a_series(self):
        assert root_lattice_a(1).gram == ((-2,),)
        assert root_lattice_a(1).det() == -2
        a10 = root_lattice_a(10)
        assert a10.rank() == 10
        assert a10.det() == 11
        assert a10.signature() == (0, 10, 0)
        assert a10.is_even()

    def test_e8(self):
        e8 = root_lattice_e8()
        assert e8.det() == 1
        assert e8.signature() == (0, 8, 0)
        assert e8.is_even()

    def test_k3(self):
        k3 = k3_lattice()
        assert k3.rank() == 22
        assert k3.det() == -1
        assert k3.signature() == (3, 19, 0)
        assert k3.is_even()

    def test_standard_lattice_names(self):
        assert standard_lattice("U") == hyperbolic_plane()
        assert standard_lattice("A10") == root_lattice_a(10)
        assert standard_lattice("A(3)") == root_lattice_a(3)
        assert standard_lattice("e8") == root_lattice_e8()
        assert standard_lattice("K3") == k3_lattice()
        with pytest.raises(ValueError):
            standard_lattice("B2")
        with pytest.raises(ValueError):
            root_lattice_a(0)


class TestDirectSumAndRescale:
    def test_direct_sum_rank_and_blocks(self):
        s = direct_sum(hyperbolic_plane(), root_lattice_a(10))
        assert s.rank() == 12
        assert s.det() == -11
        assert s.gram[0][2] == 0

    def test_sum_with_rank_zero_is_identity(self):
        u = hyperbolic_plane()
        assert direct_sum(u, Lattice([])) == u

    def test_det_multiplicative_signature_additive(self):
        rng = random.Random(5)
        for _ in range(25):
            a = Lattice(random_symmetric(rng, rng.randint(1, 4)))
            b = Lattice(random_symmetric(rng, rng.randint(1, 4)))
            s = direct_sum(a, b)
            assert s.det() == a.det() * b.det()
            assert s.signature() == tuple(
                x + y for x, y in zip(a.signature(), b.signature())
            )

    def test_rescale(self):
        u11 = rescale(hyperbolic_plane(), 11)
        assert u11.gram == ((0, 11), (11, 0))
        assert u11.det() == -121
        assert rescale(hyperbolic_plane(), 1) == hyperbolic_plane()
        with pytest.raises(ValueError):
            rescale(hyperbolic_plane(), 0)

    def test_rescale_det_law(self):
        rng = random.Random(17)
        for _ in range(20):
            lat = Lattice(random_symmetric(rng, rng.randint(1, 4)))
            n = rng.choice([-3, -1, 2, 5, 7])
            assert rescale(lat, n).det() == n ** lat.rank() * lat.det()


class TestExactInvariants:
    def test_det_against_fraction_elimination(self):
        rng = random.Random(23)
        for _ in range(40):
            m = random_symmetric(rng, rng.randint(1, 6))
            assert Lattice(m).det() == oracles.frac_det(m)

    def test_rank_against_fraction_elimination(self):
        # exercises the fraction-free rank on rectangular, rank-deficient input
        from k3degen._linalg import exact_rank

        rng = random.Random(19)
        for _ in range(60):
            rows, inner, cols = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 6)
            a = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
            product = [
                [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                for i in range(rows)
            ]
            assert exact_rank(product) == oracles.frac_rank(product)

    def test_signature_against_descartes(self):
        rng = random.Random(29)
        for _ in range(40):
            m = random_symmetric(rng, rng.randint(1, 6))
            assert Lattice(m).signature() == oracles.signature_by_descartes(m)

    def test_signature_parts_sum_to_rank(self):
        rng = random.Random(31)
        for _ in range(30):
            lat = Lattice(random_symmetric(rng, rng.randint(1, 6)))
            assert sum(lat.signature()) == lat.rank()

    def test_signature_congruence_invariant(self):
        # Sylvester: G and B^T G B have the same inertia for invertible B
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(1, 5)
            g = random_symmetric(rng, n)
            while True:
                b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                if oracles.frac_det(b) != 0:
                    break
            conj = [
                [
                    sum(b[k][i] * g[k][l] * b[l][j] for k in range(n) for l in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert Lattice(conj).signature() == Lattice(g).signature()

    @given(symmetric_matrices())
    @example([[0, 0, 3], [0, 0, 0], [3, 0, 0]])  # zero diagonal: the i += j step, then a radical
    @example([[0, 2**70], [2**70, 0]])
    @example([[5, 5, 1], [5, 5, 1], [1, 1, 0]])  # a repeated row and column
    @settings(derandomize=True, deadline=None, max_examples=400)
    def test_one_pass_against_oracles(self, m):
        det, inertia = symmetric_invariants(m)
        assert type(det) is int and det == oracles.frac_det(m)
        assert inertia == oracles.signature_by_descartes(m)
        assert (det == 0) == (inertia[2] > 0)

    def test_degenerate_form_reports_radical(self):
        lat = Lattice([[0, 0], [0, 2]])
        assert lat.signature() == (1, 0, 1)
        assert Lattice([[0]]).signature() == (0, 0, 1)

    def test_is_even(self):
        assert hyperbolic_plane().is_even()
        assert root_lattice_a(10).is_even()
        assert not Lattice([[1]]).is_even()
