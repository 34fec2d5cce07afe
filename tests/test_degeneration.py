import math

import pytest

from k3degen.cyclotomic import bounded_orders, euler_phi
from k3degen.degeneration import (
    FIELD_CLASSES,
    INFINITE_HEIGHT,
    KulikovType,
    allowed_m_from_type,
    allowed_types_from_height,
    allowed_types_from_m,
    combine,
    moduli_dim,
)

import oracles

I, II, III = KulikovType.I, KulikovType.II, KulikovType.III


class TestAllowedTypesFromM:
    def test_statement_table(self):
        assert allowed_types_from_m(5) == {I}
        assert allowed_types_from_m(7) == {I}
        assert allowed_types_from_m(66) == {I}
        assert allowed_types_from_m(3) == {I, II}
        assert allowed_types_from_m(4) == {I, II}
        assert allowed_types_from_m(6) == {I, II}
        assert allowed_types_from_m(1) == {I, II, III}
        assert allowed_types_from_m(2) == {I, II, III}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            allowed_types_from_m(0)

    def test_monotone_in_constraint(self):
        for m in range(1, 100):
            assert allowed_types_from_m(m) <= allowed_types_from_m(1)

    def test_type_one_never_excluded(self):
        for m in range(1, 100):
            assert I in allowed_types_from_m(m)


class TestAllowedMFromType:
    def test_tables(self):
        assert allowed_m_from_type(III) == {1, 2}
        assert allowed_m_from_type(II) == {1, 2, 3, 4, 6}
        type1 = allowed_m_from_type(I)
        assert max(type1) == 66
        assert type1 == set(bounded_orders(20))

    def test_derivation_matches_the_stated_tables(self):
        for t in KulikovType:
            assert allowed_m_from_type(t) == oracles.orders_from_type_table(t)
        for m in range(1, 10**4 + 1):
            assert allowed_types_from_m(m) == oracles.types_from_order_table(m), m

    def test_huge_order_forces_good_reduction(self):
        assert allowed_types_from_m(10**30 + 1) == {I}

    def test_galois_adjointness(self):
        for m in bounded_orders(20):
            for t in KulikovType:
                assert (t in allowed_types_from_m(m)) == (m in allowed_m_from_type(t))


class TestFieldClasses:
    def test_tables_and_conditionality(self):
        assert FIELD_CLASSES == {
            "rational": ({I, II, III}, False),
            "imaginary_quadratic": ({I, II}, False),
            "cm_degree_gt2": ({I}, False),
            "totally_real_degree_gt1": ({I}, True),
        }
        assert list(FIELD_CLASSES) == ["rational", "imaginary_quadratic", "cm_degree_gt2", "totally_real_degree_gt1"]

    def test_unknown_name(self):
        for bad in ("RATIONAL", "cm", ""):
            with pytest.raises(ValueError, match="unknown field class"):
                combine(e=bad)


class TestAllowedTypesFromHeight:
    def test_tables(self):
        assert allowed_types_from_height(1) == {I, II, III}
        assert allowed_types_from_height(2) == {I, II}
        assert allowed_types_from_height(3) == {I}
        assert allowed_types_from_height(10) == {I}
        assert allowed_types_from_height(INFINITE_HEIGHT) == {I}

    def test_validation(self):
        with pytest.raises(ValueError):
            allowed_types_from_height(0)
        with pytest.raises(ValueError):
            allowed_types_from_height(11)
        with pytest.raises(ValueError):
            allowed_types_from_height(2.5)

    def test_infinite_is_not_a_number(self):
        # no float or bool is a height: math.inf is not the sentinel and True is not height 1
        assert INFINITE_HEIGHT == "infinite"
        for bad in (math.inf, True, False, 1.0, "inf"):
            with pytest.raises(ValueError):
                allowed_types_from_height(bad)
        assert "height infinite allows {I}" in combine(h=INFINITE_HEIGHT)["reasons"]


class TestCombine:
    def test_intersections(self):
        assert combine(m=3, h=3)["allowed"] == ["I"]
        assert combine(m=1)["allowed"] == ["I", "II", "III"]
        assert combine(e="imaginary_quadratic", m=4)["allowed"] == ["I", "II"]

    def test_combination_contained_in_each_constraint(self):
        for m in (1, 2, 4, 5):
            for h in (1, 2, 3):
                allowed = set(combine(m=m, h=h)["allowed"])
                assert allowed <= {str(t) for t in allowed_types_from_m(m)}
                assert allowed <= {str(t) for t in allowed_types_from_height(h)}
                assert "I" in allowed

    def test_conditional_flag_propagates(self):
        d = combine(m=2, e="totally_real_degree_gt1")
        assert d["conditional"] and d["allowed"] == ["I"]
        assert d["reasons"][1] == "field class totally_real_degree_gt1 allows {I} (conditional on the Hodge conjecture)"
        assert not combine(m=2, e="cm_degree_gt2")["conditional"]

    def test_reasons_recorded(self):
        assert combine(m=5, h=2)["reasons"] == ["order m = 5 allows {I}", "height 2 allows {I, II}"]

    def test_requires_a_constraint(self):
        with pytest.raises(ValueError):
            combine()

    def test_residue_characteristic_two_is_out_of_scope(self):
        assert combine(m=4, residue_char=2) == {
            "status": "outside theorem hypotheses",
            "reasons": ["residue characteristic 2 is outside the hypotheses of the order constraint"],
        }
        assert combine(m=4, residue_char=3)["allowed"] == ["I", "II"]

    def test_json_shape(self):
        assert combine(m=5) == {
            "allowed": ["I"],
            "conditional": False,
            "reasons": ["order m = 5 allows {I}"],
        }


class TestModuliDim:
    def test_published_dimensions(self):
        assert moduli_dim(5, 2) == 4
        assert moduli_dim(7, 4) == 2
        assert moduli_dim(11, 2) == 1
        assert moduli_dim(11, 12) == 0

    def test_identity(self):
        # every valid (p, rank_s): 22 - rank_s >= 1 and p - 1 divides it, so the quotient is >= 1
        for p in (3, 5, 7, 11, 13, 17, 19):
            for rank in range(1, 22):
                if (22 - rank) % (p - 1) == 0:
                    dim = moduli_dim(p, rank)
                    assert dim >= 0
                    assert (dim + 1) * (p - 1) == 22 - rank

    def test_validation(self):
        with pytest.raises(ValueError):
            moduli_dim(7, 2)  # 20 not divisible by 6
        with pytest.raises(ValueError):
            moduli_dim(4, 2)  # not prime
        with pytest.raises(ValueError):
            moduli_dim(23, 2)  # out of range
        with pytest.raises(ValueError):
            moduli_dim(11, 22)  # rank out of range
        with pytest.raises(ValueError):
            moduli_dim(3, 21)  # 22 - 21 = 1 not divisible by 2

    def test_zero_dimensional_boundary_cases(self):
        assert moduli_dim(3, 20) == 0
        assert moduli_dim(19, 4) == 0

