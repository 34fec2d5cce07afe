import random

import pytest

from k3degen.elliptic import FiberConfiguration, ImpossibleConfiguration, fiber_numbers
from k3degen.lattice import direct_sum, hyperbolic_plane, root_lattice_a


def config(*labels):
    return FiberConfiguration(labels)


class TestKodairaLabels:
    def test_parse_errors(self):
        # labels are read as typed: no space, non-ASCII digit or leading zero is coerced
        for label in ("I0", "V", "I-1", "II**", "", " I1 ", "I1\n", "I\u0663", "I01", "I00*", " II"):
            with pytest.raises(ValueError):
                fiber_numbers(label)

    def test_error_texts(self):
        with pytest.raises(ValueError, match=r"^I\(n\) requires n >= 1$"):
            fiber_numbers("I0")
        with pytest.raises(ValueError, match="^Kodaira fiber label must be a string, got 1$"):
            fiber_numbers(1)
        with pytest.raises(ValueError, match="^cannot parse Kodaira fiber label 'V'$"):
            fiber_numbers("V")
        # an index with more digits than int() converts is a label that does not parse
        with pytest.raises(ValueError, match="^cannot parse Kodaira fiber label 'I9"):
            fiber_numbers("I" + "9" * 5000)


class TestEulerNumbers:
    def test_values_pinned_by_the_order11_family(self):
        # 12 x II sums to 24, and II + 22 x I1 sums to 24: these force
        # e(II) = 2 and e(I1) = 1; the boundary member forces e(I11) = 11
        assert fiber_numbers("II")[0] == 2
        assert fiber_numbers("I1")[0] == 1
        assert fiber_numbers("I11")[0] == 11

    def test_table(self):
        values = {
            "I5": (5, 5),
            "I0*": (6, 5),
            "I3*": (9, 8),
            "II": (2, 1),
            "III": (3, 2),
            "IV": (4, 3),
            "IV*": (8, 7),
            "III*": (9, 8),
            "II*": (10, 9),
        }
        for label, expected in values.items():
            assert fiber_numbers(label) == expected

    def test_euler_at_least_components(self):
        labels = ["I1", "I7", "I0*", "I2*", "II", "III", "IV", "II*", "III*", "IV*"]
        for label in labels:
            euler, components = fiber_numbers(label)
            if label[-1] != "*" and label[1:].isdigit():  # I<n>
                assert euler == components
            else:
                assert euler > components


class TestConfigurations:
    def test_order11_generic_member(self):
        c = FiberConfiguration.from_json({"II": 1, "I1": 22})
        assert c.euler_sum() == 24
        assert c.check_k3()
        assert c.trivial_lattice_rank() == 2 == hyperbolic_plane().rank()

    def test_order11_special_member(self):
        c = FiberConfiguration.from_json({"II": 12})
        assert c.check_k3()
        assert c.trivial_lattice_rank() == 2

    def test_order11_boundary_member(self):
        c = FiberConfiguration.from_json({"II": 1, "I1": 11, "I11": 1})
        assert c.check_k3()
        rank = c.trivial_lattice_rank()
        assert rank == 12 == direct_sum(hyperbolic_plane(), root_lattice_a(10)).rank()

    def test_not_k3(self):
        assert not config("II").check_k3()

    def test_resolved_wild_fiber_rank(self):
        # an additive fiber of II* type contributes 8 to the rank; in the
        # tame model this configuration overshoots Euler number 24, which is
        # expected for the wild characteristic-2 member it comes from
        c = FiberConfiguration.from_json({"II*": 1, "II": 1, "I1": 21})
        assert c.trivial_lattice_rank() == 10
        assert c.euler_sum() == 33
        assert not c.check_k3()

    def test_multiset_order_irrelevant(self):
        rng = random.Random(3)
        labels = ["II"] + ["I1"] * 11 + ["I11"]
        for _ in range(5):
            rng.shuffle(labels)
            c = FiberConfiguration(labels)
            assert c.euler_sum() == 24 and c.trivial_lattice_rank() == 12

    def test_fibers_are_given_by_label(self):
        assert FiberConfiguration(["I1", "II", "I1"]).fibers == {"I1": 2, "II": 1}
        # checked in order before counting, so an unhashable item is bad input, not a TypeError
        for bad in (["I1"], {"I": 1}, 1):
            with pytest.raises(ValueError, match="Kodaira fiber label must be a string"):
                FiberConfiguration(["I1", bad])
        with pytest.raises(ValueError, match="cannot parse Kodaira fiber label 'V'"):
            FiberConfiguration(["V", ["I1"]])

    def test_from_json_list_and_dict_agree(self):
        a = FiberConfiguration.from_json(["II", "I1", "I1"])
        b = FiberConfiguration.from_json({"II": 1, "I1": 2})
        assert a.fibers == b.fibers

    def test_from_json_rejects_bad_counts(self):
        for count in (0, 2.5, 2.0, True):
            with pytest.raises(ValueError):
                FiberConfiguration.from_json({"II": count})

    def test_rank_bound_enforced(self):
        c = config("I24")
        assert c.euler_sum() == 24 and c.check_k3()
        with pytest.raises(ImpossibleConfiguration):
            c.trivial_lattice_rank()

    def test_json_dict(self):
        c = FiberConfiguration.from_json({"I1": 2, "II": 1})
        assert c.to_json_dict() == {"I1": 2, "II": 1}

    def test_json_dict_keys_are_the_labels_given(self):
        labels = ["I1", "I11", "I0*", "I4*", "II", "III", "IV", "II*", "III*", "IV*"]
        for c in (FiberConfiguration.from_json(labels), FiberConfiguration.from_json(dict.fromkeys(labels, 2))):
            assert list(c.to_json_dict()) == sorted(labels)
