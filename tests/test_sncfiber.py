import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from k3degen.degeneration import KulikovType, grw_dims
from k3degen.sncfiber import (
    KINDS,
    NotKulikov,
    SNCSurface,
    classify,
    crosscheck,
    e1_page,
)

import oracles


def smooth_fiber():
    return oracles.fiber([{"id": "X", "b1": 0, "b2": 22, "kind": "k3"}])


def curve(cid, a, b, genus):
    return {"id": cid, "components": [a, b], "genus": genus}


CHAIN = [curve("C12", "Z1", "Z2", 1), curve("C23", "Z2", "Z3", 1)]


def chain_fiber(b2=(10, 2, 10)):
    comps = [{"id": "Z1", "b1": 0, "b2": b2[0]}, {"id": "Z2", "b1": 2, "b2": b2[1]}, {"id": "Z3", "b1": 0, "b2": b2[2]}]
    return oracles.fiber(comps, CHAIN)


def tetrahedral_payload(b2=7):
    return {
        "components": [{"id": i, "b1": 0, "b2": b2} for i in range(4)],
        "double_curves": [curve(f"C{i}{j}", i, j, 0) for i, j in itertools.combinations(range(4), 2)],
        "triple_points": [
            {"id": f"P{a}{b}{c}", "curves": [f"C{a}{b}", f"C{b}{c}", f"C{a}{c}"]}
            for a, b, c in itertools.combinations(range(4), 3)
        ],
    }


def tetrahedral_fiber(b2=7):
    return SNCSurface.from_json_dict(tetrahedral_payload(b2))


def rational(*ids):
    return [{"id": x, "b1": 0} for x in ids]


class TestValidation:
    @pytest.mark.parametrize("bad", [True, 1.0, None])
    @pytest.mark.parametrize("section, key, index", [
        ("components", "id", None), ("double_curves", "id", None), ("triple_points", "id", None),
        ("double_curves", "components", 1), ("triple_points", "curves", 2),
    ])
    def test_payload_ids_are_json_strings_or_integers(self, section, key, index, bad):
        payload = json.loads(json.dumps(oracles.surface_json(tetrahedral_fiber())))
        entry = payload[section][0]
        if index is None:
            entry[key] = bad
        else:
            entry[key][index] = bad
        with pytest.raises(ValueError, match="is not a JSON string or integer"):
            SNCSurface.from_json_dict(payload)

    def test_constructors_take_any_hashable_id(self):
        assert classify(SNCSurface([(0, "X")], [0], [22], ["k3"], [], [], [])) is KulikovType.I

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="repeated component id"):
            oracles.fiber(rational("A", "A"))
        with pytest.raises(ValueError, match="repeated double curve id"):
            oracles.fiber(rational("A", "B"), [curve("C", "A", "B", 1), curve("C", "A", "B", 1)])

    def test_duplicate_triple_point_ids(self):
        curves = [curve("ab", "A", "B", 0), curve("bc", "B", "C", 0), curve("ca", "C", "A", 0)]
        points = [{"id": "t", "curves": ["ab", "bc", "ca"]}] * 2
        with pytest.raises(ValueError, match="triple point id"):
            oracles.fiber(rational(*"ABC"), curves, points)

    def test_curve_needs_distinct_components(self):
        with pytest.raises(ValueError, match="must join two distinct components"):
            oracles.fiber(rational("A"), [curve("C", "A", "A", 0)])

    def test_curve_unknown_component(self):
        with pytest.raises(ValueError, match="'C' references an unknown component"):
            oracles.fiber(rational("A"), [curve("C", "A", "B", 0)])

    def test_triple_point_unknown_curve(self):
        curves = [curve("ab", "A", "B", 0), curve("bc", "B", "C", 0)]
        with pytest.raises(ValueError, match="'t' references an unknown double curve"):
            oracles.fiber(rational(*"ABC"), curves, [{"id": "t", "curves": ["ab", "bc", "ca"]}])

    def test_triple_point_share_violations(self):
        curves = [curve("c1", "A", "B", 0), curve("c2", "A", "B", 0), curve("c3", "B", "C", 0), curve("c4", "C", "D", 0)]
        with pytest.raises(ValueError, match="curves 'c1' and 'c2' share 2 components"):
            oracles.fiber(rational(*"ABCD"), curves, [{"id": "t", "curves": ["c1", "c2", "c3"]}])
        with pytest.raises(ValueError, match="curves 'c4' and 'c1' share 0 components"):
            oracles.fiber(rational(*"ABCD"), curves, [{"id": "t", "curves": ["c1", "c3", "c4"]}])

    def test_triple_point_components_not_distinct(self):
        # ab, ac, ad pairwise share only A: a fan of curves, not a triangle
        curves = [curve(f"a{x.lower()}", "A", x, 0) for x in "BCD"]
        with pytest.raises(ValueError, match="'t': incident components are not distinct"):
            oracles.fiber(rational(*"ABCD"), curves, [{"id": "t", "curves": ["ab", "ac", "ad"]}])

    def test_component_kind_checked(self):
        with pytest.raises(ValueError, match="unknown kind 'abelian'"):
            oracles.fiber([{"id": "A", "b1": 0, "kind": "abelian"}])


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


def _complex_fiber(c):
    """The fiber whose dual complex is c: rational components meeting in rational curves."""
    return {
        "components": [{"id": v, "b1": 0} for v in c.vertices],
        "double_curves": [{"id": e, "components": list(ends), "genus": 0} for e, ends in c.edges.items()],
        "triple_points": [{"id": t, "curves": list(es)} for t, (_, es) in c.triangles.items()],
    }


def _linked(names, b1, closed=False):
    """Components with the given b1 on a path, or a cycle, of elliptic double curves."""
    comps = [{"id": x, "b1": b} for x, b in zip(names, b1)]
    pairs = list(zip(names, names[1:] + names[:1] if closed else names[1:]))
    return comps, [{"id": f"C{a}{b}", "components": [a, b], "genus": 1} for a, b in pairs]


@st.composite
def near_kulikov_payloads(draw):
    """A fiber payload near one Kulikov pattern: a smooth K3; a chain, star, cycle,
    chain with a parallel curve, or chain beside a cycle; or the 7-vertex torus,
    the 6-vertex RP^2 or a Pachner sphere. Then up to two strata are perturbed
    (b1, b2 or kind, set, null or dropped; two components trading ids; a dropped
    triple point or curve; a parallel curve; an isolated component) and each section
    is shuffled."""
    shape = draw(st.sampled_from(
        ("smooth", "smooth", "chain", "chain", "chain", "star", "cycle", "multi", "split", "torus", "rp2", "sphere",
         "sphere", "wedge")
    ))
    points = []
    if shape == "smooth":
        comps, curves = [{"id": "X", "b1": draw(st.sampled_from((0, 0, 1, 2)))}], []
        for key, values in (("b2", (22, 22, 20, None)), ("kind", ("k3", "k3", "rational", None))):
            value = draw(st.sampled_from(values))
            if value is not None:
                comps[0][key] = value
    elif shape in ("chain", "multi"):
        n = draw(st.integers(2, 6))
        b1 = [0] + [2] * (n - 2) + [0]
        comps, curves = _linked([f"Z{i}" for i in range(n)], [draw(st.sampled_from((b, b, b, 1))) for b in b1])
        if shape == "multi":
            curves.append({**draw(st.sampled_from(curves)), "id": "D"})
    elif shape == "star":
        comps, curves = _linked(["Z0", "Z1"], [2, 0])
        for leaf in ("Z2", "Z3", "Z4")[:draw(st.integers(2, 3))]:
            comps.append({"id": leaf, "b1": 0})
            curves.append({"id": f"CZ0{leaf}", "components": ["Z0", leaf], "genus": 1})
    elif shape == "cycle":
        n = draw(st.integers(3, 6))
        comps, curves = _linked([f"Z{i}" for i in range(n)], [2] * n, closed=True)
    elif shape == "split":
        k, m = draw(st.integers(2, 4)), draw(st.integers(3, 4))
        comps, curves = _linked([f"Z{i}" for i in range(k)], [0] + [2] * (k - 2) + [0])
        more = _linked([f"W{i}" for i in range(m)], [2] * m, closed=True)
        comps, curves = comps + more[0], curves + more[1]
    else:
        sphere = lambda: oracles.pachner_sphere(random.Random(draw(st.integers(0, 99))), draw(st.integers(0, 12)))
        c = {"torus": oracles.seven_vertex_torus, "rp2": oracles.six_vertex_rp2}.get(shape, sphere)()
        fiber = _complex_fiber(c)
        comps, curves, points = fiber["components"], fiber["double_curves"], fiber["triple_points"]
        if shape == "wedge":  # a second sphere glued on at vertex 0, whose link is then two circles
            c = sphere()
            name = {v: v if v == 0 else f"b{v}" for v in c.vertices}
            comps += [{"id": name[v], "b1": 0} for v in c.vertices[1:]]
            curves += [{"id": f"b{e}", "components": [name[a], name[b]], "genus": 0} for e, (a, b) in c.edges.items()]
            points += [{"id": f"b{t}", "curves": [f"b{e}" for e in es]} for t, (_, es) in c.triangles.items()]
    for d in curves:
        if draw(st.booleans()):
            d["components"] = d["components"][::-1]
    for c in comps:  # a kind tag that agrees with b1, or none
        if "kind" not in c and draw(st.booleans()):
            c["kind"] = {0: "rational", 2: "elliptic_ruled"}.get(c["b1"], "k3")
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(("b1", "b2", "kind", "swap", "genus", "point", "curve", "parallel", "isolated")))
        if change == "swap":  # two components trade places in the strata
            a, b = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
            a["id"], b["id"] = b["id"], a["id"]
        elif change in ("b1", "b2", "kind"):
            c = draw(st.sampled_from(comps))
            # an explicit null b2 or kind reads as absent
            value = draw(st.sampled_from({"b1": (0, 1, 2, 3), "b2": (20, 22, None, ...), "kind": (*KINDS, None, ...)}[change]))
            if value is ...:
                c.pop(change, None)
            else:
                c[change] = value
        elif change == "genus" and curves:
            draw(st.sampled_from(curves))["genus"] = draw(st.integers(0, 2))
        elif change == "point" and points:
            points.remove(draw(st.sampled_from(points)))
        elif change == "curve" and curves:
            used = {x for p in points for x in p["curves"]}  # dropping one of these makes the payload invalid
            curves.remove(draw(st.sampled_from(curves + [d for d in curves if d["id"] not in used])))
        elif change == "parallel" and curves:
            curves.append({**draw(st.sampled_from(curves)), "id": f"P{len(curves)}"})
        elif change == "isolated":
            comps.append({"id": f"I{len(comps)}", "b1": draw(st.sampled_from((0, 2)))})
    payload = {"components": comps, "double_curves": curves, "triple_points": points}
    return {key: draw(st.permutations(cells)) for key, cells in payload.items()}


def _fiber_payload(b1, curves=(), points=()):
    return {
        "components": [{"id": f"Z{i}", "b1": b} for i, b in enumerate(b1)],
        "double_curves": [curve(f"C{k}", f"Z{a}", f"Z{b}", g) for k, (a, b, g) in enumerate(curves)],
        "triple_points": [{"id": f"P{k}", "curves": [f"C{x}" for x in p]} for k, p in enumerate(points)],
    }


class TestKulikovVerdict:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(near_kulikov_payloads())
    # pairs of clauses that fail together, one pair per probe clause order
    @example({"components": [{"id": "X", "b1": 2, "b2": 20, "kind": "rational"}], "double_curves": []})
    @example({"components": [{"id": "X", "b1": 2, "b2": 20}], "double_curves": []})
    @example(_fiber_payload((2, 0, 0), [(0, 1, 1), (1, 2, 1)]))  # both ends and the interior
    @example(_fiber_payload((0, 0), [(0, 1, 1), (1, 0, 1)]))  # a parallel curve, the count
    @example(_fiber_payload((0, 0, 0), [(0, 1, 1), (1, 2, 0), (2, 0, 0)], [(0, 1, 2)]))  # a triple point, genus
    @example(_fiber_payload((2, 0, 0), [(0, 1, 1), (1, 2, 0), (2, 0, 0)], [(0, 1, 2)]))  # b1, genus, the sphere
    def test_classify_matches_raw_oracle(self, payload):
        try:
            expected = oracles.kulikov_verdict(payload)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                SNCSurface.from_json_dict(payload)
            assert str(caught.value) == str(exc)
            return
        try:
            verdict = str(classify(SNCSurface.from_json_dict(payload)))
        except NotKulikov as exc:
            verdict = str(exc)
        assert verdict == expected


class TestClassify:
    def test_smooth_k3(self):
        assert classify(smooth_fiber()) is KulikovType.I

    def test_chain(self):
        assert classify(chain_fiber()) is KulikovType.II

    def test_chain_without_kind_tags_or_b2(self):
        s = oracles.fiber([{"id": "Z1", "b1": 0}, {"id": "Z2", "b1": 2}, {"id": "Z3", "b1": 0}], CHAIN)
        assert classify(s) is KulikovType.II

    def test_two_component_chain_both_rational(self):
        s = oracles.fiber(rational("Z1", "Z2"), [curve("C", "Z1", "Z2", 1)])
        assert classify(s) is KulikovType.II

    def test_tetrahedron(self):
        assert classify(tetrahedral_fiber()) is KulikovType.III

    def test_empty_fiber(self):
        with pytest.raises(NotKulikov, match="empty fiber"):
            classify(oracles.fiber([]))

    def test_invariant_under_list_permutation(self):
        rng = random.Random(41)
        payload = tetrahedral_payload()
        for _ in range(10):
            for cells in payload.values():
                rng.shuffle(cells)
            assert classify(SNCSurface.from_json_dict(payload)) is KulikovType.III

    def test_cycle_rejected(self):
        # a closed chain Z1-Z2-Z3-Z1 has one curve too many
        s = oracles.fiber(
            [{"id": "Z1", "b1": 0}, {"id": "Z2", "b1": 2}, {"id": "Z3", "b1": 0}],
            CHAIN + [curve("C13", "Z1", "Z3", 1)],
        )
        with pytest.raises(NotKulikov, match="chain of 3 needs 2"):
            classify(s)

    def test_star_rejected(self):
        # a central component meeting three others is not a path
        s = oracles.fiber(
            [{"id": "Z0", "b1": 2}, *rational("Z1", "Z2", "Z3")],
            [curve(f"C{i}", "Z0", f"Z{i}", 1) for i in (1, 2, 3)],
        )
        with pytest.raises(NotKulikov, match="not a path"):
            classify(s)

    def test_multi_edge_chain_rejected(self):
        s = oracles.fiber(rational("Z1", "Z2"), [curve("C", "Z1", "Z2", 1), curve("D", "Z1", "Z2", 1)])
        with pytest.raises(NotKulikov, match="more than one curve"):
            classify(s)

    def test_wrong_genus_everywhere(self):
        s = oracles.fiber(rational("Z1", "Z2"), [curve("C", "Z1", "Z2", 2)])
        with pytest.raises(NotKulikov, match="genus"):
            classify(s)

    def test_interior_not_elliptic_ruled(self):
        s = oracles.fiber([{"id": "Z1", "b1": 0}, {"id": "Z2", "b1": 4}, {"id": "Z3", "b1": 0}], CHAIN)
        with pytest.raises(NotKulikov, match="elliptic ruled"):
            classify(s)

    def test_kind_contradiction_rejected(self):
        s = oracles.fiber([{"id": "Z1", "b1": 0, "kind": "k3"}, {"id": "Z2", "b1": 0}], [curve("C", "Z1", "Z2", 1)])
        with pytest.raises(NotKulikov):
            classify(s)

    def test_broken_sphere_rejected(self):
        payload = tetrahedral_payload()
        s = oracles.fiber(payload["components"], payload["double_curves"], payload["triple_points"][:-1])
        with pytest.raises(NotKulikov, match="sphere"):
            classify(s)

    def test_reason_names_all_three_patterns(self):
        s = oracles.fiber([{"id": "A", "b1": 5}])
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


class TestType2Wording:
    """The Type II clause names the first failure along the chain, however
    the payload lists it, as the oracle does."""

    # the path Z0 - Z1 - Z2 - Z3 - Z4, listed so that its first end by index is Z4
    ORDER = ("Z1", "Z4", "Z3", "Z0", "Z2")

    def _check(self, b1, curves, expected):
        comps = [{"id": x, "b1": b1[x]} for x in self.ORDER]
        payload = {"components": comps, "double_curves": curves}
        assert oracles._type2_reason(comps, curves, []) == expected
        with pytest.raises(NotKulikov) as caught:
            classify(SNCSurface.from_json_dict(payload))
        assert f"; not Type II: {expected};" in str(caught.value)
        assert str(caught.value) == oracles.kulikov_verdict(payload)

    @pytest.mark.parametrize("bad, expected", [
        ({"Z0": 2}, "end component 'Z0' is not rational (b1 = 0)"),
        ({"Z0": 2, "Z4": 1}, "end component 'Z4' is not rational (b1 = 0)"),
        # component order would name Z1 first
        ({"Z1": 0, "Z3": 0}, "interior component 'Z3' is not elliptic ruled (b1 = 2)"),
        ({"Z0": 2, "Z1": 0, "Z3": 0}, "end component 'Z0' is not rational (b1 = 0)"),
    ])
    def test_first_failure_in_path_order(self, bad, expected):
        b1 = {"Z0": 0, "Z1": 2, "Z2": 2, "Z3": 2, "Z4": 0, **bad}
        curves = [curve(f"C{k}", f"Z{k + 1}", f"Z{k}", 1) for k in (2, 0, 3, 1)]
        self._check(b1, curves, expected)

    def test_repeated_curve_pair_names_the_repeat(self):
        b1 = {"Z0": 0, "Z1": 2, "Z2": 2, "Z3": 2, "Z4": 0}
        curves = [curve(f"C{k}", f"Z{k}", f"Z{k + 1}", 1) for k in range(4)]
        curves[2:2] = [curve("D", "Z2", "Z1", 1), curve("E", "Z1", "Z0", 1)]
        self._check(b1, curves, "components 'Z2' and 'Z1' meet in more than one curve (dual graph not a path)")

    def test_chain_beside_a_cycle_is_not_connected(self):
        b1 = {"Z0": 0, "Z1": 2, "Z2": 2, "Z3": 2, "Z4": 0}
        curves = [curve("C04", "Z0", "Z4", 1), curve("C12", "Z1", "Z2", 1), curve("C23", "Z2", "Z3", 1), curve("C31", "Z3", "Z1", 1)]
        self._check(b1, curves, "dual graph is not connected")


class TestE1Page:
    def test_type1_grid(self):
        rows = e1_page(smooth_fiber())
        nonzero = {(p, q): rows[p + 2][q] for p in range(-2, 3) for q in range(5) if rows[p + 2][q]}
        assert nonzero == {(0, 0): 1, (0, 2): 22, (0, 4): 1}

    def test_chain_grid(self):
        assert e1_page(chain_fiber()) == [
            [0, 0, 0, 0, 0],  # p = -2
            [0, 0, 2, 4, 2],
            [3, 2, 22, 2, 3],
            [2, 4, 2, 0, 0],
            [0, 0, 0, 0, 0],  # p = 2
        ]

    def test_tetrahedron_grid(self):
        assert e1_page(tetrahedral_fiber()) == [
            [0, 0, 0, 0, 4],  # p = -2
            [0, 0, 6, 0, 6],
            [4, 0, 32, 0, 4],
            [6, 0, 6, 0, 0],
            [4, 0, 0, 0, 0],  # p = 2
        ]

    def test_no_triple_points_kills_outer_columns(self):
        rows = e1_page(chain_fiber())
        assert all(rows[-2 + 2][q] == 0 for q in range(5))
        assert all(rows[2 + 2][q] == 0 for q in range(5))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_rows_match_the_strata_sum(self, data):
        # a Pachner sphere's strata, down to its curves or its components alone, with drawn Betti columns
        c = oracles.pachner_sphere(random.Random(data.draw(st.integers(0, 99))), data.draw(st.integers(0, 6)))
        payload = _complex_fiber(c)
        for section in ("triple_points", "double_curves")[:data.draw(st.integers(0, 2))]:
            payload[section] = []
        betti = st.integers(0, 40)
        for comp in payload["components"]:
            comp["b1"], comp["b2"] = data.draw(betti), data.draw(betti)
        for d in payload["double_curves"]:
            d["genus"] = data.draw(betti)
        s = SNCSurface.from_json_dict(payload)
        grid = oracles.e1_by_strata(s)
        assert e1_page(s) == [[grid[(p, q)] for q in range(5)] for p in range(-2, 3)]

    def test_missing_betti(self):
        s = oracles.fiber([{"id": "X", "b1": 0, "kind": "k3"}])
        with pytest.raises(ValueError, match="component 'X' has no b2"):
            e1_page(s)

    def test_alternating_row_sums_match_weight_table(self):
        # the alternating sum of a spectral sequence row is preserved from
        # the first page, so row q = 2 must recover the middle weight entry
        for fiber, t in (
            (smooth_fiber(), KulikovType.I),
            (chain_fiber(), KulikovType.II),
            (tetrahedral_fiber(), KulikovType.III),
        ):
            rows = e1_page(fiber)
            alt = sum((-1) ** p * rows[p + 2][2] for p in range(-2, 3))
            assert alt == grw_dims(t)[2]

    def test_middle_diagonal_dominates_h2(self):
        for fiber in (smooth_fiber(), chain_fiber(), tetrahedral_fiber()):
            rows = e1_page(fiber)
            assert sum(rows[p + 2][2 - p] for p in range(-2, 3)) >= 22


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
        again = SNCSurface.from_json_dict(json.loads(json.dumps(oracles.surface_json(s))))
        assert oracles.surface_json(again) == oracles.surface_json(s)
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
        assert s.point_ids == ["t0", "t1"]
