import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from k3degen.sncfiber import (
    Component,
    DoubleCurve,
    KulikovType,
    MissingBetti,
    NotKulikov,
    SNCSurface,
    TriplePoint,
    classify,
    crosscheck,
    e1_page,
    grw_dims,
)

import oracles


def smooth_fiber():
    return SNCSurface([Component("X", 0, 22, "k3")], [])


def chain_fiber(b2=(10, 2, 10)):
    return SNCSurface(
        [Component("Z1", 0, b2[0]), Component("Z2", 2, b2[1]), Component("Z3", 0, b2[2])],
        [DoubleCurve("C12", ("Z1", "Z2"), 1), DoubleCurve("C23", ("Z2", "Z3"), 1)],
    )


def tetrahedral_fiber(b2=7):
    comps = [Component(i, 0, b2) for i in range(4)]
    curves = [
        DoubleCurve(f"C{i}{j}", (i, j), 0) for i, j in itertools.combinations(range(4), 2)
    ]
    points = [
        TriplePoint(f"P{a}{b}{c}", (f"C{a}{b}", f"C{b}{c}", f"C{a}{c}"))
        for a, b, c in itertools.combinations(range(4), 3)
    ]
    return SNCSurface(comps, curves, points)


class TestValidation:
    @pytest.mark.parametrize("bad", [True, 1.0, None])
    @pytest.mark.parametrize("section, key, index", [
        ("components", "id", None), ("double_curves", "id", None), ("triple_points", "id", None),
        ("double_curves", "components", 1), ("triple_points", "curves", 2),
    ])
    def test_payload_ids_are_json_strings_or_integers(self, section, key, index, bad):
        payload = json.loads(json.dumps(tetrahedral_fiber().to_json_dict()))
        entry = payload[section][0]
        if index is None:
            entry[key] = bad
        else:
            entry[key][index] = bad
        with pytest.raises(ValueError, match="is not a JSON string or integer"):
            SNCSurface.from_json_dict(payload)

    def test_constructors_take_any_hashable_id(self):
        assert classify(SNCSurface([Component((0, "X"), 0, 22, "k3")], [])) is KulikovType.I

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="repeated component id"):
            SNCSurface([Component("A", 0), Component("A", 0)], [])
        comps = [Component("A", 0), Component("B", 0)]
        with pytest.raises(ValueError, match="repeated double curve id"):
            SNCSurface(comps, [DoubleCurve("C", ("A", "B"), 1), DoubleCurve("C", ("A", "B"), 1)])

    def test_duplicate_triple_point_ids(self):
        comps = [Component(x, 0) for x in "ABC"]
        curves = [
            DoubleCurve("ab", ("A", "B"), 0),
            DoubleCurve("bc", ("B", "C"), 0),
            DoubleCurve("ca", ("C", "A"), 0),
        ]
        points = [
            TriplePoint("t", ("ab", "bc", "ca")),
            TriplePoint("t", ("ab", "bc", "ca")),
        ]
        with pytest.raises(ValueError, match="triple point id"):
            SNCSurface(comps, curves, points)

    def test_curve_needs_distinct_components(self):
        with pytest.raises(ValueError, match="must join two distinct components"):
            DoubleCurve("C", ("A", "A"), 0)

    def test_curve_unknown_component(self):
        with pytest.raises(ValueError, match="'C' references an unknown component"):
            SNCSurface([Component("A", 0)], [DoubleCurve("C", ("A", "B"), 0)])

    def test_triple_point_unknown_curve(self):
        comps = [Component(x, 0) for x in "ABC"]
        curves = [DoubleCurve("ab", ("A", "B"), 0), DoubleCurve("bc", ("B", "C"), 0)]
        with pytest.raises(ValueError, match="'t' references an unknown double curve"):
            SNCSurface(comps, curves, [TriplePoint("t", ("ab", "bc", "ca"))])

    def test_triple_point_share_violations(self):
        comps = [Component(x, 0) for x in "ABCD"]
        curves = [
            DoubleCurve("c1", ("A", "B"), 0),
            DoubleCurve("c2", ("A", "B"), 0),
            DoubleCurve("c3", ("B", "C"), 0),
            DoubleCurve("c4", ("C", "D"), 0),
        ]
        with pytest.raises(ValueError, match="curves 'c1' and 'c2' share 2 components"):
            SNCSurface(comps, curves, [TriplePoint("t", ("c1", "c2", "c3"))])
        with pytest.raises(ValueError, match="curves 'c4' and 'c1' share 0 components"):
            SNCSurface(comps, curves, [TriplePoint("t", ("c1", "c3", "c4"))])

    def test_triple_point_components_not_distinct(self):
        # ab, ac, ad pairwise share only A: a fan of curves, not a triangle
        comps = [Component(x, 0) for x in "ABCD"]
        curves = [DoubleCurve(f"a{x.lower()}", ("A", x), 0) for x in "BCD"]
        with pytest.raises(ValueError, match="'t': incident components are not distinct"):
            SNCSurface(comps, curves, [TriplePoint("t", ("ab", "ac", "ad"))])

    def test_component_kind_checked(self):
        with pytest.raises(ValueError, match="unknown kind 'abelian'"):
            Component("A", 0, kind="abelian")


@st.composite
def triple_point_strata(draw):
    """Components c0.. (3 to 5 of them), double curves over them as id ->
    (first, second) with parallel curves allowed, and the three distinct curve
    ids of one triple point, which may name an unknown curve."""
    comps = [f"c{k}" for k in range(draw(st.integers(3, 5)))]
    ends = st.lists(st.sampled_from(comps), min_size=2, max_size=2, unique=True).map(tuple)
    curves = {f"d{k}": pair for k, pair in enumerate(draw(st.lists(ends, min_size=3, max_size=6)))}
    names = [*curves, "dx"] if draw(st.integers(0, 3)) == 0 else list(curves)
    point = draw(st.lists(st.sampled_from(names), min_size=3, max_size=3, unique=True))
    return comps, curves, tuple(point)


_ABCD = ["c0", "c1", "c2", "c3"]
_APART = {"d0": ("c0", "c1"), "d1": ("c2", "c3"), "d2": ("c1", "c2")}  # d0 and d1 miss each other
_PARALLEL = {"d0": ("c0", "c1"), "d1": ("c1", "c0"), "d2": ("c1", "c2")}  # d0 and d1 meet twice
_FAN = {"d0": ("c0", "c1"), "d1": ("c0", "c2"), "d2": ("c0", "c3")}


class TestTriangleDerivation:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(triple_point_strata())
    @example((_ABCD, {"d0": ("c0", "c1"), "d1": ("c2", "c1"), "d2": ("c0", "c2")}, ("d0", "d1", "d2")))
    @example((_ABCD, _APART, ("d0", "d1", "dx")))  # unknown curve
    @example((_ABCD, _APART, ("d0", "d1", "d2")))  # share 0 at each of the three pairs
    @example((_ABCD, _APART, ("d2", "d0", "d1")))
    @example((_ABCD, _APART, ("d1", "d2", "d0")))
    @example((_ABCD, _PARALLEL, ("d0", "d1", "d2")))  # share 2 at each of the three pairs
    @example((_ABCD, _PARALLEL, ("d2", "d0", "d1")))
    @example((_ABCD, _PARALLEL, ("d1", "d2", "d0")))
    @example((_ABCD, _FAN, ("d0", "d1", "d2")))  # pairs meet once, all at c0
    def test_matches_raw_oracle(self, strata):
        comps, curves, point = strata
        payload = {
            "components": [{"id": c, "b1": 0} for c in comps],
            "double_curves": [{"id": d, "components": list(ends), "genus": 0} for d, ends in curves.items()],
            "triple_points": [{"id": "t", "curves": list(point)}],
        }
        try:
            expected = oracles.fiber_triangle("t", point, curves)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                SNCSurface.from_json_dict(payload)
            assert str(caught.value) == str(exc)
            return
        c = SNCSurface.from_json_dict(payload).dual_complex()
        assert c.triangles["t"] == (expected[0], point)
        assert c.triangle_signs["t"] == expected[1]


class TestClassify:
    def test_smooth_k3(self):
        assert classify(smooth_fiber()) is KulikovType.I

    def test_chain(self):
        assert classify(chain_fiber()) is KulikovType.II

    def test_chain_without_kind_tags_or_b2(self):
        s = SNCSurface(
            [Component("Z1", 0), Component("Z2", 2), Component("Z3", 0)],
            [DoubleCurve("C12", ("Z1", "Z2"), 1), DoubleCurve("C23", ("Z2", "Z3"), 1)],
        )
        assert classify(s) is KulikovType.II

    def test_two_component_chain_both_rational(self):
        s = SNCSurface(
            [Component("Z1", 0), Component("Z2", 0)],
            [DoubleCurve("C", ("Z1", "Z2"), 1)],
        )
        assert classify(s) is KulikovType.II

    def test_tetrahedron(self):
        assert classify(tetrahedral_fiber()) is KulikovType.III

    def test_empty_fiber(self):
        with pytest.raises(NotKulikov, match="empty fiber"):
            classify(SNCSurface([], []))

    def test_invariant_under_list_permutation(self):
        rng = random.Random(41)
        s = tetrahedral_fiber()
        for _ in range(10):
            comps = list(s.components)
            curves = list(s.double_curves)
            points = list(s.triple_points)
            rng.shuffle(comps)
            rng.shuffle(curves)
            rng.shuffle(points)
            assert classify(SNCSurface(comps, curves, points)) is KulikovType.III

    def test_cycle_rejected(self):
        # a closed chain Z1-Z2-Z3-Z1 has one curve too many
        s = SNCSurface(
            [Component("Z1", 0), Component("Z2", 2), Component("Z3", 0)],
            [
                DoubleCurve("C12", ("Z1", "Z2"), 1),
                DoubleCurve("C23", ("Z2", "Z3"), 1),
                DoubleCurve("C13", ("Z1", "Z3"), 1),
            ],
        )
        with pytest.raises(NotKulikov, match="chain of 3 needs 2"):
            classify(s)

    def test_star_rejected(self):
        # a central component meeting three others is not a path
        s = SNCSurface(
            [Component("Z0", 2), Component("Z1", 0), Component("Z2", 0), Component("Z3", 0)],
            [
                DoubleCurve("C1", ("Z0", "Z1"), 1),
                DoubleCurve("C2", ("Z0", "Z2"), 1),
                DoubleCurve("C3", ("Z0", "Z3"), 1),
            ],
        )
        with pytest.raises(NotKulikov, match="not a path"):
            classify(s)

    def test_multi_edge_chain_rejected(self):
        s = SNCSurface(
            [Component("Z1", 0), Component("Z2", 0)],
            [
                DoubleCurve("C", ("Z1", "Z2"), 1),
                DoubleCurve("D", ("Z1", "Z2"), 1),
            ],
        )
        with pytest.raises(NotKulikov, match="more than one curve"):
            classify(s)

    def test_wrong_genus_everywhere(self):
        s = SNCSurface(
            [Component("Z1", 0), Component("Z2", 0)],
            [DoubleCurve("C", ("Z1", "Z2"), 2)],
        )
        with pytest.raises(NotKulikov, match="genus"):
            classify(s)

    def test_interior_not_elliptic_ruled(self):
        s = SNCSurface(
            [Component("Z1", 0), Component("Z2", 4), Component("Z3", 0)],
            [DoubleCurve("C12", ("Z1", "Z2"), 1), DoubleCurve("C23", ("Z2", "Z3"), 1)],
        )
        with pytest.raises(NotKulikov, match="elliptic ruled"):
            classify(s)

    def test_kind_contradiction_rejected(self):
        s = SNCSurface(
            [Component("Z1", 0, kind="k3"), Component("Z2", 0)],
            [DoubleCurve("C", ("Z1", "Z2"), 1)],
        )
        with pytest.raises(NotKulikov):
            classify(s)

    def test_broken_sphere_rejected(self):
        full = tetrahedral_fiber()
        s = SNCSurface(full.components, full.double_curves, full.triple_points[:-1])
        with pytest.raises(NotKulikov, match="sphere"):
            classify(s)

    def test_reason_names_all_three_patterns(self):
        s = SNCSurface([Component("A", 5)], [])
        with pytest.raises(NotKulikov) as info:
            classify(s)
        message = str(info.value)
        assert "not Type I" in message and "not Type II" in message and "not Type III" in message


class TestGrWDims:
    def test_table(self):
        assert grw_dims(KulikovType.I) == (0, 0, 22, 0, 0)
        assert grw_dims(KulikovType.II) == (0, 2, 18, 2, 0)
        assert grw_dims(KulikovType.III) == (1, 0, 20, 0, 1)

    def test_duality_and_total(self):
        for t in KulikovType:
            dims = grw_dims(t)
            assert sum(dims) == 22
            assert all(dims[n] == dims[4 - n] for n in range(5))


class TestE1Page:
    def test_type1_grid(self):
        grid = e1_page(smooth_fiber())
        nonzero = {pq: v for pq, v in grid.items() if v}
        assert nonzero == {(0, 0): 1, (0, 2): 22, (0, 4): 1}

    def test_chain_grid(self):
        grid = e1_page(chain_fiber())
        rows = {p: [grid[(p, q)] for q in range(5)] for p in range(-2, 3)}
        assert rows == {
            -2: [0, 0, 0, 0, 0],
            -1: [0, 0, 2, 4, 2],
            0: [3, 2, 22, 2, 3],
            1: [2, 4, 2, 0, 0],
            2: [0, 0, 0, 0, 0],
        }

    def test_tetrahedron_grid(self):
        grid = e1_page(tetrahedral_fiber())
        rows = {p: [grid[(p, q)] for q in range(5)] for p in range(-2, 3)}
        assert rows == {
            -2: [0, 0, 0, 0, 4],
            -1: [0, 0, 6, 0, 6],
            0: [4, 0, 32, 0, 4],
            1: [6, 0, 6, 0, 0],
            2: [4, 0, 0, 0, 0],
        }

    def test_no_triple_points_kills_outer_columns(self):
        grid = e1_page(chain_fiber())
        assert all(grid[(-2, q)] == 0 for q in range(5))
        assert all(grid[(2, q)] == 0 for q in range(5))

    def test_missing_betti(self):
        s = SNCSurface([Component("X", 0, None, "k3")], [])
        with pytest.raises(MissingBetti):
            e1_page(s)

    def test_alternating_row_sums_match_weight_table(self):
        # the alternating sum of a spectral sequence row is preserved from
        # the first page, so row q = 2 must recover the middle weight entry
        for fiber, t in (
            (smooth_fiber(), KulikovType.I),
            (chain_fiber(), KulikovType.II),
            (tetrahedral_fiber(), KulikovType.III),
        ):
            grid = e1_page(fiber)
            alt = sum((-1) ** p * grid[(p, 2)] for p in range(-2, 3))
            assert alt == grw_dims(t)[2]

    def test_middle_diagonal_dominates_h2(self):
        for fiber in (smooth_fiber(), chain_fiber(), tetrahedral_fiber()):
            grid = e1_page(fiber)
            assert sum(grid[(p, 2 - p)] for p in range(-2, 3)) >= 22


class TestCrosscheck:
    def test_reports_pass_on_standard_fibers(self):
        for fiber in (smooth_fiber(), chain_fiber(), tetrahedral_fiber()):
            t, report = crosscheck(fiber)
            assert report["all_passed"] is True and report["type"] == str(t)
            names = {c["name"] for c in report["checks"]}
            assert "grw_duality_and_total" in names

    def test_type3_ties_top_weight_to_dual_complex(self):
        _, report = crosscheck(tetrahedral_fiber())
        assert {"name": "type3_top_weight_is_dual_complex_h2", "passed": True,
                "detail": "h2(dual complex)=1, dims[4]=1, dims[0]=1"} in report["checks"]

    def test_json_shape(self):
        t, report = crosscheck(smooth_fiber())
        assert t is KulikovType.I
        assert report == {
            "type": "I",
            "all_passed": True,
            "checks": [
                {"name": "grw_duality_and_total", "passed": True, "detail": "dims=[0, 0, 22, 0, 0], sum=22"},
                {"name": "dual_complex_h2_vanishes", "passed": True, "detail": "h2(dual complex)=0"},
            ],
        }


class TestSerialization:
    def test_roundtrip(self):
        s = tetrahedral_fiber()
        again = SNCSurface.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
        assert again.to_json_dict() == s.to_json_dict()
        assert classify(again) is KulikovType.III
        assert e1_page(again) == e1_page(s)

    def test_triple_point_ids_defaulted(self):
        s = SNCSurface.from_json_dict(
            {
                "components": [{"id": "A", "b1": 0}, {"id": "B", "b1": 0}, {"id": "C", "b1": 0}],
                "double_curves": [
                    {"id": "ab", "components": ["A", "B"], "genus": 0},
                    {"id": "bc", "components": ["B", "C"], "genus": 0},
                    {"id": "ca", "components": ["C", "A"], "genus": 0},
                ],
                "triple_points": [{"curves": ["ab", "bc", "ca"]}, {"curves": ["ab", "bc", "ca"]}],
            }
        )
        assert classify(s) is KulikovType.III  # the pillow sphere
        assert len({t.id for t in s.triple_points}) == 2
