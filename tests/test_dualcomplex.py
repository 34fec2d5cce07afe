import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from k3degen import dualcomplex
from k3degen.dualcomplex import (
    ComplexAutomorphism,
    DeltaComplex,
    InvalidComplex,
    NonOrientable,
    orient,
    orientation_action,
    sphere_failure,
)
from k3degen.sncfiber import SNCSurface, crosscheck

import oracles


def projective_plane():
    # minimal 2-vertex Delta-structure: two edges v -> w, a loop at v,
    # two triangles; the loop side needs explicit signs
    return DeltaComplex(
        ["v", "w"],
        {"a": ("v", "w"), "b": ("w", "v"), "c": ("v", "v")},
        {
            "U": (("v", "v", "w"), ("c", "a", "b"), (1, None, None)),
            "L": (("v", "w", "v"), ("a", "b", "c"), (None, None, -1)),
        },
    )


def torus():
    # one vertex, three loops, two triangles; the standard square gluing
    return DeltaComplex(
        ["v"],
        {"a": ("v", "v"), "b": ("v", "v"), "c": ("v", "v")},
        {
            "L": (("v", "v", "v"), ("a", "b", "c"), (1, 1, -1)),
            "U": (("v", "v", "v"), ("c", "a", "b"), (1, -1, -1)),
        },
    )


def klein_bottle():
    # one vertex, three loops: the square a b a^-1 b cut along the diagonal c = ab
    return DeltaComplex(
        ["v"],
        {"a": ("v", "v"), "b": ("v", "v"), "c": ("v", "v")},
        {
            "L": (("v", "v", "v"), ("a", "b", "c"), (1, 1, -1)),
            "U": (("v", "v", "v"), ("c", "a", "b"), (1, -1, 1)),
        },
    )


def pillow():
    # two triangles glued along all three edges: a Delta-complex sphere
    return DeltaComplex(
        ["A", "B", "C"],
        {"ab": ("A", "B"), "bc": ("B", "C"), "ca": ("C", "A")},
        {
            "T1": (("A", "B", "C"), ("ab", "bc", "ca")),
            "T2": (("A", "B", "C"), ("ab", "bc", "ca")),
        },
    )


def wedge_of_tetrahedra():
    # two tetrahedron boundaries sharing the single vertex 0
    first = {(a, b, c) for a, b, c in itertools.combinations(range(4), 3)}
    second = {(a, b, c) for a, b, c in itertools.combinations([0, 4, 5, 6], 3)}
    edges = {}
    triangles = {}
    for tris in (first, second):
        for a, b, c in tris:
            for pair in ((a, b), (b, c), (a, c)):
                edges[pair] = pair
            triangles[(a, b, c)] = ((a, b, c), ((a, b), (b, c), (a, c)))
    return DeltaComplex(range(7), edges, triangles)


def octahedra_at_two_vertices():
    # two octahedron boundaries sharing the antipodal vertices 0 and 5, so no edge
    first = list(oracles.octahedron().triangles)
    other = {1: 6, 2: 7, 3: 8, 4: 9}
    return oracles._simplicial(10, first + [tuple(other.get(v, v) for v in t) for t in first], sep="-")


def open_triangle():
    return DeltaComplex(
        [0, 1, 2],
        {"e0": (0, 1), "e1": (1, 2), "e2": (2, 0)},
        {"t": ((0, 1, 2), ("e0", "e1", "e2"))},
    )


def tetrahedron_and_lonely_vertex():
    t = oracles.tetrahedron()
    return DeltaComplex(list(t.vertices) + ["lonely"], t.edges, t.triangles)


def three_sheets():
    # the pillow with a third copy of its triangle: every edge on three sides
    return DeltaComplex(
        ["A", "B", "C"],
        {"ab": ("A", "B"), "bc": ("B", "C"), "ca": ("C", "A")},
        {t: (("A", "B", "C"), ("ab", "bc", "ca")) for t in ("T1", "T2", "T3")},
    )


class TestConstruction:
    @pytest.mark.parametrize("bad", [True, 1.0, None])
    @pytest.mark.parametrize("path", [
        ("vertices", 0), ("edges", 0, "id"), ("edges", 0, "v", 1),
        ("triangles", 0, "id"), ("triangles", 0, "vertices", 2), ("triangles", 0, "edges", 2),
    ])
    def test_payload_ids_are_json_strings_or_integers(self, path, bad):
        payload = pillow().to_json_dict()
        assert DeltaComplex.from_json_dict(payload).homology_dims() == (1, 0, 1)
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = bad
        with pytest.raises(InvalidComplex, match="is not a JSON string or integer"):
            DeltaComplex.from_json_dict(payload)

    def test_rejects_unknown_ids(self):
        with pytest.raises(InvalidComplex):
            DeltaComplex([0], {"e": (0, 1)}, {})
        with pytest.raises(InvalidComplex):
            DeltaComplex([0, 1, 2], {"e": (0, 1)}, {"t": ((0, 1, 2), ("e", "e", "x"))})

    def test_rejects_mismatched_edge(self):
        with pytest.raises(InvalidComplex):
            DeltaComplex(
                [0, 1, 2, 3],
                {"e01": (0, 1), "e12": (1, 2), "e03": (0, 3)},
                {"t": ((0, 1, 2), ("e01", "e12", "e03"))},
            )
        with pytest.raises(InvalidComplex):  # loops at the wrong vertices
            DeltaComplex(
                ["A", "B", "C"],
                {"L": ("A", "A"), "x": ("B", "B"), "y": ("C", "C")},
                {"t": (("B", "C", "A"), ("L", "y", "x"), (1, 1, 1))},
            )

    def test_loop_requires_explicit_sign(self):
        with pytest.raises(InvalidComplex):
            DeltaComplex(
                ["v", "w"],
                {"a": ("v", "w"), "b": ("w", "v"), "c": ("v", "v")},
                {"U": (("v", "v", "w"), ("c", "a", "b"))},
            )
        # an explicit loop sign must be the integer 1 or -1 too
        for bad in (5, "x", True, 1.0):
            with pytest.raises(InvalidComplex):
                DeltaComplex(
                    ["v"],
                    {"a": ("v", "v"), "b": ("v", "v"), "c": ("v", "v")},
                    {
                        "L": (("v", "v", "v"), ("a", "b", "c"), (bad, 1, -1)),
                        "U": (("v", "v", "v"), ("c", "a", "b"), (1, -1, -1)),
                    },
                )

    def test_contradictory_sign_rejected(self):
        for bad in (-1, 2, "x", True, 1.0):
            with pytest.raises(InvalidComplex):
                DeltaComplex(
                    [0, 1, 2],
                    {"e0": (0, 1), "e1": (1, 2), "e2": (2, 0)},
                    {"t": ((0, 1, 2), ("e0", "e1", "e2"), (bad, None, None))},
                )

    def test_json_roundtrip(self):
        # through JSON text, so every id is a JSON string; the torus keeps its loop signs
        for c in (pillow(), torus()):
            again = DeltaComplex.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
            assert again.to_json_dict() == c.to_json_dict()
            assert again.homology_dims() == c.homology_dims()


class TestHomology:
    def test_single_vertex(self):
        c = DeltaComplex([0], {}, {})
        assert c.homology_dims() == (1, 0, 0)

    def test_path(self):
        c = DeltaComplex([0, 1], {"e": (0, 1)}, {})
        assert c.homology_dims() == (1, 0, 0)

    def test_circle(self):
        c = DeltaComplex([0, 1], {"e": (0, 1), "f": (1, 0)}, {})
        assert c.homology_dims() == (1, 1, 0)

    def test_tetrahedron(self):
        assert oracles.tetrahedron().homology_dims() == (1, 0, 1)

    def test_torus(self):
        assert torus().homology_dims() == (1, 2, 1)

    def test_projective_plane_rational(self):
        assert projective_plane().homology_dims() == (1, 0, 0)

    def test_minimal_triangulations(self):
        for c, h in ((oracles.seven_vertex_torus(), (1, 2, 1)), (oracles.six_vertex_rp2(), (1, 0, 0))):
            assert c.homology_dims() == oracles.raw_homology(*_raw(c)) == h

    def test_wedge_of_spheres(self):
        assert wedge_of_tetrahedra().homology_dims() == (1, 0, 2)

    def test_weights_stay_integers(self):
        # edge e lies on five sides, so its row 2 z[t1] + 3 z[t2] is ranked at the end
        # by exact_rank, and no Fraction (nor the fractions module) is needed
        one_vertex = (
            ["v"],
            {"e": ("v", "v"), "f": ("v", "v")},
            {"t1": (("v", "v", "v"), ("e", "e", "f"), (1, 1, 1)), "t2": (("v", "v", "v"), ("e", "e", "e"), (1, 1, 1))},
        )
        raws = [one_vertex] + [oracles.random_glued_complex(random.Random(seed)) for seed in (6568, 9473)]
        script = (  # oracles imports fractions, so the child builds the complexes from literals
            "import json, sys\n"
            "from k3degen.dualcomplex import DeltaComplex\n"
            f"dims = [DeltaComplex(*raw).homology_dims() for raw in {raws!r}]\n"
            "print(json.dumps([dims, 'fractions' in sys.modules]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        dims, loaded = json.loads(proc.stdout)
        assert dims[0] == [1, 0, 0]
        assert dims == [list(oracles.raw_homology(*raw)) for raw in raws]
        assert not loaded

    def test_euler_identity_random(self):
        rng = random.Random(101)
        for _ in range(60):
            c = oracles.random_delta_complex(rng)
            h0, h1, h2 = c.homology_dims()
            v, e, f = c.counts()
            assert h0 - h1 + h2 == v - e + f
            r1, r2 = (oracles.frac_rank(d) for d in c.boundary_matrices())
            assert (h0, h1, h2) == (v - r1, e - r1 - r2, f - r2)

    def test_boundary_of_boundary_vanishes(self):
        rng = random.Random(103)
        for _ in range(30):
            c = oracles.random_delta_complex(rng)
            d1, d2 = c.boundary_matrices()
            if not d2 or not d2[0]:
                continue
            rows, cols = len(d1), len(d2[0])
            for i in range(rows):
                for j in range(cols):
                    assert sum(d1[i][k] * d2[k][j] for k in range(len(d2))) == 0


class TestSphereRecognition:
    def test_accepts_spheres(self):
        for c in (oracles.tetrahedron(), oracles.octahedron(), pillow()):
            assert sphere_failure(c) is None
            assert c.homology_dims() == (1, 0, 1)

    def test_open_triangle_fails_on_edges(self):
        assert sphere_failure(open_triangle()) == "edge 'e0' lies on 1 triangle sides, expected 2"

    def test_wedge_fails_on_link(self):
        assert sphere_failure(wedge_of_tetrahedra()) == "link of vertex 0 is not a single circle"

    def test_projective_plane_fails_on_orientability(self):
        assert sphere_failure(projective_plane()) == "not orientable"

    def test_torus_fails_on_euler(self):
        assert sphere_failure(torus()) == "Euler characteristic is 0, expected 2"

    def test_disconnected_fails(self):
        assert sphere_failure(tetrahedron_and_lonely_vertex()) == "not connected"

    def test_empty_fails(self):
        assert sphere_failure(DeltaComplex([], {}, {})) == "empty complex or no triangles"

    # chi = 2 and every edge on two sides, yet no sphere: the certificate needs its other conditions
    def test_octahedra_at_two_vertices_fail_on_link(self):
        c = octahedra_at_two_vertices()
        assert c.euler_characteristic() == 2 and len(dualcomplex._walk(c)[2]) == 2
        assert sphere_failure(c) == "link of vertex 0 is not a single circle"
        assert _expected_failure(*_raw(c)) == sphere_failure(DeltaComplex(*_raw(c)))

    def test_rp2_and_lonely_vertex_fail_on_connectivity(self):
        rp2 = oracles.six_vertex_rp2()
        c = DeltaComplex([*rp2.vertices, "lonely"], rp2.edges, rp2.triangles)
        assert c.euler_characteristic() == 2 and len(dualcomplex._walk(c)[2]) == 1
        assert sphere_failure(c) == "not connected"
        assert _expected_failure(*_raw(c)) == sphere_failure(DeltaComplex(*_raw(c)))

    def test_subdivided_octahedron_at_scale(self):
        c = oracles.octahedron()
        for _ in range(4):
            c = oracles.subdivide(c)
        assert c.counts() == (1026, 3072, 2048)
        assert sphere_failure(c) is None
        assert c.homology_dims() == (1, 0, 1)


def _raw(c):
    """(vertices, edges, triangles) with every triangle's resolved signs explicit."""
    return (
        list(c.vertices),
        dict(c.edges),
        {t: (verts, tri_edges, c.triangle_signs[t]) for t, (verts, tri_edges) in c.triangles.items()},
    )


def _tagged(raw, tag):
    vertices, edges, triangles = raw
    name = lambda x: f"{tag}{x}"
    return (
        [name(v) for v in vertices],
        {name(e): (name(a), name(b)) for e, (a, b) in edges.items()},
        {
            name(t): (tuple(map(name, verts)), tuple(map(name, tri_edges)), signs)
            for t, (verts, tri_edges, signs) in triangles.items()
        },
    )


def _merged(raw, keep, drop):
    # identifying two vertices keeps every resolved sign: loops take them explicitly
    vertices, edges, triangles = raw
    same = lambda x: keep if x == drop else x
    return (
        [v for v in vertices if v != drop],
        {e: (same(a), same(b)) for e, (a, b) in edges.items()},
        {t: (tuple(map(same, verts)), tri_edges, signs) for t, (verts, tri_edges, signs) in triangles.items()},
    )


_SURFACES = (
    oracles.tetrahedron, oracles.octahedron, pillow, torus, projective_plane, klein_bottle,
    oracles.seven_vertex_torus, oracles.six_vertex_rp2,
)


@st.composite
def generated_complexes(draw):
    """A model surface, or a wedge or disjoint union of two, then random
    vertex merges and triangle deletions."""
    pick = st.sampled_from(_SURFACES)
    raw = _tagged(_raw(draw(pick)()), "a")
    join = draw(st.sampled_from(("none", "union", "wedge")))
    if join != "none":
        other = _tagged(_raw(draw(pick)()), "b")
        first = raw[0]
        raw = (raw[0] + other[0], {**raw[1], **other[1]}, {**raw[2], **other[2]})
        if join == "wedge":
            raw = _merged(raw, draw(st.sampled_from(first)), draw(st.sampled_from(other[0])))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):  # weighted towards closed surfaces
        if len(raw[0]) > 1:
            keep = draw(st.sampled_from(raw[0]))
            raw = _merged(raw, keep, draw(st.sampled_from([v for v in raw[0] if v != keep])))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        if raw[2]:
            gone = draw(st.sampled_from(list(raw[2])))
            raw = (raw[0], raw[1], {t: tri for t, tri in raw[2].items() if t != gone})
    return raw


def _clause(reason):
    """A failure reason without the cell ids and counts it names."""
    return None if reason is None else re.sub(r"'[^']*'|\d+", "#", reason)


def _raw_sides(edges, triangles):
    """edge -> the (triangle, side sign) pairs of its sides, read from the raw triangles."""
    sides = {e: [] for e in edges}
    for t, (_, tri_edges, signs) in triangles.items():
        for e, s in zip(tri_edges, signs):
            sides[e].append((t, s))
    return sides


def _expected_failure(vertices, edges, triangles):
    """The clause sphere_failure must report, from the raw data alone."""
    if not vertices or not triangles:
        return "empty complex or no triangles"
    if not oracles.is_connected(vertices, edges.values()):
        return "not connected"
    for e, sides in _raw_sides(edges, triangles).items():
        if len(sides) != 2:
            return f"edge {e!r} lies on {len(sides)} triangle sides, expected 2"
    for v in vertices:
        if not oracles.link_is_cycle(v, edges, triangles):
            return f"link of vertex {v!r} is not a single circle"
    # a connected closed surface has h2 = 1 if it is orientable and 0 if not
    if oracles.raw_homology(vertices, edges, triangles)[2] == 0:
        return "not orientable"
    chi = len(vertices) - len(edges) + len(triangles)
    return None if chi == 2 else f"Euler characteristic is {chi}, expected 2"


def _check_against_oracle(raw):
    reason = sphere_failure(DeltaComplex(*raw))
    assert reason == _expected_failure(*raw)
    assert (reason is None) == oracles.is_sphere(*raw)
    return reason


class TestGeneratedSurfaces:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(generated_complexes())
    def test_sphere_failure_matches_oracle(self, raw):
        _check_against_oracle(raw)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(generated_complexes(), st.data())
    def test_verdict_survives_relabelling_rotation_and_reordering(self, raw, data):
        vertices, edges, triangles = raw
        vmap = dict(zip(vertices, data.draw(st.permutations([f"v{k}" for k in range(len(vertices))]))))
        emap = dict(zip(edges, data.draw(st.permutations([f"e{k}" for k in range(len(edges))]))))
        tmap = dict(zip(triangles, data.draw(st.permutations([f"t{k}" for k in range(len(triangles))]))))
        moved = {}
        for t, (verts, tri_edges, signs) in triangles.items():
            r = data.draw(st.integers(0, 2))  # r = 1, 2 move side 0 to index 2, 1
            rot = lambda xs: tuple(xs[r:]) + tuple(xs[:r])
            moved[tmap[t]] = (rot([vmap[v] for v in verts]), rot([emap[e] for e in tri_edges]), rot(signs))
        again = (
            data.draw(st.permutations([vmap[v] for v in vertices])),
            dict(data.draw(st.permutations([(emap[e], (vmap[a], vmap[b])) for e, (a, b) in edges.items()]))),
            dict(data.draw(st.permutations(list(moved.items())))),
        )
        before = sphere_failure(DeltaComplex(*raw))
        assert _clause(_check_against_oracle(again)) == _clause(before)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(generated_complexes())
    def test_orient_matches_oracle(self, raw):
        vertices, edges, triangles = raw
        sides = _raw_sides(edges, triangles)
        orientable = (
            all(len(pairs) == 2 for pairs in sides.values())
            and oracles.is_connected(vertices, edges.values())
            and oracles.is_connected(triangles, [(t1, t2) for (t1, _), (t2, _) in sides.values()])
            and oracles.raw_homology(*raw)[2] == 1
        )
        try:
            orientation = orient(DeltaComplex(*raw))
        except (InvalidComplex, NonOrientable):
            assert not orientable
            return
        assert orientable
        for (t1, s1), (t2, s2) in sides.values():
            assert orientation[t1] * s1 + orientation[t2] * s2 == 0

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(generated_complexes())
    def test_homology_matches_oracle(self, raw):
        # merges make loops and d2 entries of +-2
        assert DeltaComplex(*raw).homology_dims() == oracles.raw_homology(*raw)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.randoms(use_true_random=False))
    @example(random.Random(6568))  # a one-sided edge kills a class; two rows rank the two live ones fully
    @example(random.Random(9473))  # two live classes, two rows of rank 1: h2 = 1
    @example(random.Random(1078))  # one live class, one dead, one row on five sides
    def test_glued_homology_matches_oracle(self, rng):
        # edges on three or more sides leave d2 rows for the final rank
        raw = oracles.random_glued_complex(rng)
        assert DeltaComplex(*raw).homology_dims() == oracles.raw_homology(*raw)


class TestPachnerSpheres:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.randoms(use_true_random=False), st.integers(0, 60))
    def test_random_spheres_are_oriented_spheres(self, rng, moves):
        c = oracles.pachner_sphere(rng, moves)
        assert sphere_failure(c) is None
        assert c.homology_dims() == (1, 0, 1)
        orientation = orient(c)
        for (t1, s1), (t2, s2) in _raw_sides(*_raw(c)[1:]).values():  # the oriented sides cancel
            assert orientation[t1] * s1 + orientation[t2] * s2 == 0


def _orient_outcome(c):
    try:
        return orient(c)
    except (InvalidComplex, NonOrientable) as exc:
        return type(exc).__name__, str(exc)


# what each reader of the shared walk returns, or orient's exception and text
_READERS = {"sphere_failure": sphere_failure, "orient": _orient_outcome, "homology_dims": DeltaComplex.homology_dims}


class TestSharedWalk:
    """sphere_failure, orient and homology_dims read one signed walk, built
    on first use and kept on the complex with its component count."""

    def _check_call_orders(self, raw):
        fresh = {name: read(DeltaComplex(*raw)) for name, read in _READERS.items()}
        for order in itertools.permutations(_READERS):
            c = DeltaComplex(*raw)
            assert {name: _READERS[name](c) for name in order} == fresh, order

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(generated_complexes())
    def test_call_order_does_not_matter_on_surfaces(self, raw):
        self._check_call_orders(raw)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.randoms(use_true_random=False))
    def test_call_order_does_not_matter_on_glued_complexes(self, rng):
        self._check_call_orders(oracles.random_glued_complex(rng))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(generated_complexes())
    def test_closed_connected_complexes_orient_exactly_when_h2_is_one(self, raw):
        # edges all on two sides, triangles joined through them: one class, live or not
        vertices, edges, triangles = raw
        sides = _raw_sides(edges, triangles)
        if not (
            triangles
            and all(len(pairs) == 2 for pairs in sides.values())
            and oracles.is_connected(vertices, edges.values())
            and oracles.is_connected(triangles, [(t1, t2) for (t1, _), (t2, _) in sides.values()])
        ):
            return
        h2 = oracles.raw_homology(*raw)[2]
        outcome = _orient_outcome(DeltaComplex(*raw))
        if h2 == 1:
            assert type(outcome) is dict
        else:
            assert h2 == 0 and outcome[0] == "NonOrientable"

    @pytest.fixture
    def passes(self, monkeypatch):
        """Calls to the connectivity and link union-find and to the walk's build."""
        calls = Counter()
        for name in ("_classes", "_walk"):
            def counted(*args, _name=name, _real=getattr(dualcomplex, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(dualcomplex, name, counted)
        return calls

    def test_crosscheck_runs_each_pass_once(self, passes):
        payload = json.loads((Path(dualcomplex.__file__).parent / "fixtures" / "tetrahedral_quartic_fiber.json").read_text())
        _, report = crosscheck(SNCSurface.from_json_dict(payload["surface"]))
        assert report["all_passed"]
        assert passes == {"_walk": 1}  # the walk for the sphere's certificate and h2; no union-find

    def test_orient_after_sphere_failure_builds_nothing(self, passes):
        c = oracles.octahedron()
        assert sphere_failure(c) is None
        assert passes == {"_walk": 1}
        orient(c)
        assert c.homology_dims() == (1, 0, 1)
        assert passes == {"_walk": 1}

    def test_type2_crosscheck_counts_components_once(self, passes):
        chain = oracles.fiber(
            [{"id": "Z1", "b1": 0}, {"id": "Z2", "b1": 2}, {"id": "Z3", "b1": 0}],
            [{"id": "C12", "components": ["Z1", "Z2"], "genus": 1}, {"id": "C23", "components": ["Z2", "Z3"], "genus": 1}],
        )
        t, report = crosscheck(chain)
        assert str(t) == "II" and report["all_passed"]
        assert passes == {"_classes": 1, "_walk": 1}  # the chain's connectivity, kept for h0; the walk for h2


class TestJsonRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(generated_complexes())
    def test_views_survive_to_json_and_back(self, raw):
        c = DeltaComplex(*raw)
        payload = json.loads(json.dumps(c.to_json_dict()))
        again = DeltaComplex.from_json_dict(payload)
        assert again.to_json_dict() == payload
        assert again.vertices == c.vertices
        for view in ("edges", "triangles", "triangle_signs"):  # the same entries; edges and triangles re-sorted
            assert getattr(again, view) == getattr(c, view), view
        assert again.homology_dims() == c.homology_dims()


class TestKleinBottle:
    def test_homology(self):
        c = klein_bottle()
        assert c.homology_dims() == (1, 1, 0)
        assert oracles.raw_homology(*_raw(c)) == (1, 1, 0)

    def test_not_orientable(self):
        with pytest.raises(NonOrientable):
            orient(klein_bottle())
        assert sphere_failure(klein_bottle()) == "not orientable"


class TestOrient:
    def test_tetrahedron_cancellation(self):
        # every orientable closed shape here: the oriented 2-chain is a cycle
        for c in (oracles.tetrahedron(), oracles.octahedron(), pillow(), torus()):
            signs = orient(c)
            for flip in (1, -1):
                boundary = {}
                for tid, (_, tri_edges) in c.triangles.items():
                    for i, eid in enumerate(tri_edges):
                        boundary[eid] = (
                            boundary.get(eid, 0) + flip * signs[tid] * c.triangle_signs[tid][i]
                        )
                assert all(v == 0 for v in boundary.values())

    def test_projective_plane_not_orientable(self):
        with pytest.raises(NonOrientable):
            orient(projective_plane())

    def test_torus_orientable(self):
        signs = orient(torus())
        assert set(signs.values()) <= {1, -1}

    def test_requires_closed(self):
        with pytest.raises(InvalidComplex, match="lies on 1 triangle sides, expected 2"):
            orient(open_triangle())

    @pytest.mark.parametrize("make, error, message", [
        (lambda: DeltaComplex([0], {}, {}), InvalidComplex, "nothing to orient: no triangles"),
        (tetrahedron_and_lonely_vertex, InvalidComplex, "orientation requires a connected complex"),
        (open_triangle, InvalidComplex, "edge 'e0' lies on 1 triangle sides, expected 2"),
        (three_sheets, InvalidComplex, "edge 'ab' lies on 3 triangle sides, expected 2"),
        (wedge_of_tetrahedra, InvalidComplex, "triangles not connected through shared edges"),
        (projective_plane, NonOrientable, "orientation contradiction at triangle 'L'"),
        (klein_bottle, NonOrientable, "orientation contradiction at triangle 'U'"),
    ])
    def test_messages(self, make, error, message):
        with pytest.raises(error) as info:
            orient(make())
        assert str(info.value) == message


class TestAutomorphisms:
    def test_identity_action(self):
        c = oracles.tetrahedron()
        identity = ComplexAutomorphism(
            c, {v: v for v in c.vertices}, {e: e for e in c.edges}, {t: t for t in c.triangles}
        )
        assert orientation_action(c, identity) == 1

    def test_transposition_and_three_cycle(self):
        c = oracles.tetrahedron()
        swap = oracles.vertex_automorphism(c, {0: 1, 1: 0, 2: 2, 3: 3})
        assert orientation_action(c, swap) == -1
        cycle = oracles.vertex_automorphism(c, {0: 1, 1: 2, 2: 0, 3: 3})
        assert orientation_action(c, cycle) == 1

    def test_full_symmetric_group_matches_sign(self):
        c = oracles.tetrahedron()
        for perm in itertools.permutations(range(4)):
            g = oracles.vertex_automorphism(c, dict(zip(range(4), perm)))
            assert orientation_action(c, g) == oracles.perm_sign(perm)

    def test_homomorphism_property(self):
        c = oracles.octahedron()
        autos = oracles.vertex_symmetries(c)
        assert len(autos) == 48
        rng = random.Random(13)
        for _ in range(60):
            g, h = rng.choice(autos), rng.choice(autos)
            assert orientation_action(c, oracles.compose(g, h)) == orientation_action(
                c, g
            ) * orientation_action(c, h)

    def test_validation_rejects_non_bijection(self):
        c = oracles.tetrahedron()
        with pytest.raises(InvalidComplex):
            ComplexAutomorphism(
                c,
                {0: 0, 1: 0, 2: 2, 3: 3},
                {e: e for e in c.edges},
                {t: t for t in c.triangles},
            )

    def test_validation_rejects_broken_incidence(self):
        c = oracles.tetrahedron()
        vmap = {0: 1, 1: 0, 2: 2, 3: 3}
        with pytest.raises(InvalidComplex):
            ComplexAutomorphism(c, vmap, {e: e for e in c.edges}, {t: t for t in c.triangles})

    def test_explicit_maps_tell_parallel_cells_apart(self):
        # no vertex map says which of two parallel edges or equal faces goes
        # where; the edge and triangle maps do
        c = pillow()
        fixed, same_edges = {v: v for v in c.vertices}, {e: e for e in c.edges}
        flip = ComplexAutomorphism(c, fixed, same_edges, {"T1": "T2", "T2": "T1"})
        assert orientation_action(c, flip) == -1
        double = DeltaComplex(
            ["A", "B", "C"],
            {"ab": ("A", "B"), "ab2": ("A", "B"), "bc": ("B", "C"), "ca": ("C", "A")},
            {
                "T1": (("A", "B", "C"), ("ab", "bc", "ca")),
                "T2": (("A", "B", "C"), ("ab2", "bc", "ca")),
            },
        )
        swap_edges = {"ab": "ab2", "ab2": "ab", "bc": "bc", "ca": "ca"}
        assert ComplexAutomorphism(double, fixed, swap_edges, {"T1": "T2", "T2": "T1"}).parity("T1") == 1
        with pytest.raises(InvalidComplex, match="triangle_map breaks incidence of triangle 'T1'"):
            ComplexAutomorphism(double, fixed, swap_edges, {"T1": "T1", "T2": "T2"})
