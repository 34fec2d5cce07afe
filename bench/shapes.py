"""Seeded semistable fibers whose answers follow from how they are built.

Every surface here is constructed combinatorially (subdivided octahedra,
triangulated tori, quotients by free involutions, chains and cycles of
elliptic ruled components), so its Euler characteristic, orientability and
Kulikov verdict are known without asking the library. Nothing in this file
imports k3degen.

A complex is a triple (vertices, edges, triangles): edges map a key to its
two endpoints, and a triangle is (verts, edge_keys) with side i running from
verts[i] to verts[i + 1 mod 3] along edge_keys[i].
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Fiber:
    """A classify-fiber payload and the answer its construction implies."""

    name: str
    payload: dict
    expect_type: str | None  # "II" / "III", or None when it must be rejected
    reject_clause: tuple = ()  # any of these substrings names the failed clause
    e1: list = field(default_factory=list)  # expected E1 rows, p = -2..2


def _complex_from_triples(triples):
    edges = {}
    triangles = []
    for verts in triples:
        keys = []
        for i in range(3):
            u, v = verts[i], verts[(i + 1) % 3]
            key = frozenset((u, v))
            edges.setdefault(key, (u, v))
            keys.append(key)
        triangles.append((tuple(verts), tuple(keys)))
    vertices = sorted({v for t in triples for v in t})
    return vertices, edges, triangles


def octahedron(k: int):
    """Boundary of the octahedron subdivided k times: 8 * 4**k triangles.

    Vertices are integer points (coordinates scaled by 2**k so every
    midpoint is integral); x -> -x is a free simplicial involution.
    """
    s = 2**k
    triples = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                a, b, c = (sx * s, 0, 0), (0, sy * s, 0), (0, 0, sz * s)
                triples.append((a, b, c) if sx * sy * sz > 0 else (a, c, b))
    for _ in range(k):
        finer = []
        for a, b, c in triples:
            ab, bc, ca = (tuple((x + y) // 2 for x, y in zip(p, q)) for p, q in ((a, b), (b, c), (c, a)))
            finer += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        triples = finer
    return _complex_from_triples(triples)


def torus_grid(a: int, b: int):
    """An a x b grid of squares on the torus, 2ab triangles.

    Diagonals alternate with the row parity, so for even b the triangulation
    is invariant under (i, j) -> (i + a/2, -j), the involution whose quotient
    is a Klein bottle.
    """
    if a < 3 or b < 4 or b % 2:
        raise ValueError("torus grid needs a >= 3 and even b >= 4")
    triples = []
    for i in range(a):
        for j in range(b):
            p00, p10 = (i, j), ((i + 1) % a, j)
            p01, p11 = (i, (j + 1) % b), ((i + 1) % a, (j + 1) % b)
            if j % 2 == 0:
                triples += [(p00, p10, p11), (p00, p11, p01)]
            else:
                triples += [(p00, p10, p01), (p10, p11, p01)]
    return _complex_from_triples(triples)


def quotient(cx, sigma):
    """Quotient of a complex by a free involution sigma on its vertices.

    Vertices, edges and triangles become orbits of size two; sigma must move
    every vertex off its own star, so no triangle meets its image.
    """
    vertices, edges, triangles = cx

    def vclass(v):
        return frozenset((v, sigma(v)))

    def eclass(key):
        return frozenset((key, frozenset(sigma(v) for v in key)))

    q_edges = {}
    for key, (u, v) in edges.items():
        q_edges.setdefault(eclass(key), (vclass(u), vclass(v)))
    q_triangles = {}
    for verts, keys in triangles:
        orbit = frozenset((frozenset(verts), frozenset(sigma(v) for v in verts)))
        q_triangles.setdefault(orbit, (tuple(vclass(v) for v in verts), tuple(eclass(k) for k in keys)))
    q_vertices = sorted({vclass(v) for v in vertices}, key=sorted)
    if 2 * len(q_vertices) != len(vertices) or 2 * len(q_triangles) != len(triangles):
        raise ValueError("involution is not free")
    return q_vertices, q_edges, list(q_triangles.values())


def projective_plane(k: int):
    """RP^2: antipodal quotient of the k-times subdivided octahedron."""
    return quotient(octahedron(k), lambda v: tuple(-x for x in v))


def klein_bottle(m: int, n: int):
    """Klein bottle with 2mn triangles: a 2m x n torus grid modulo a glide reflection."""
    return quotient(torus_grid(2 * m, n), lambda v: ((v[0] + m) % (2 * m), (-v[1]) % n))


def euler_characteristic(cx) -> int:
    vertices, edges, triangles = cx
    return len(vertices) - len(edges) + len(triangles)


# -- payloads ------------------------------------------------------------------


def _labels(rng: random.Random, prefix: str, keys):
    """Fresh, seeded, collision-free ids for the given keys."""
    keys = list(keys)
    numbers = rng.sample(range(10 * len(keys) + 10), len(keys))
    return {key: f"{prefix}{n:x}" for key, n in zip(keys, numbers)}


def _e1_rows(components, curves, points):
    """First-page dimensions from stratum Betti numbers of the construction.

    components: (b1, b2) pairs; curves: genera; points: a count. Entry (p, q)
    sums b_{q-2i} of the codimension-(p+2i) stratum over i >= max(0, -p).
    """
    strata = {
        0: [sum(x) for x in zip(*[(1, b1, b2, b1, 1) for b1, b2 in components])],
        1: [sum(x) for x in zip(*[(1, 2 * g, 1, 0, 0) for g in curves])] or [0] * 5,
        2: [points, 0, 0, 0, 0],
    }
    rows = []
    for p in range(-2, 3):
        dims = []
        for q in range(5):
            total = 0
            for i in range(max(0, -p), 3):
                if p + 2 * i in strata and 0 <= q - 2 * i < 5:
                    total += strata[p + 2 * i][q - 2 * i]
            dims.append(total)
        rows.append({"p": p, "dims": dims})
    return rows


def surface_fiber(rng: random.Random, name: str, cx, expect_type=None, reject_clause=()) -> Fiber:
    """Type III style payload for a triangulated surface: one rational
    component per vertex, a genus-0 curve per edge, a triple point per
    triangle; ids relabelled and every list shuffled from the seed."""
    vertices, edges, triangles = cx
    comp_id = _labels(rng, "Z", vertices)
    curve_id = _labels(rng, "C", edges)
    b2 = {v: rng.randint(1, 12) for v in vertices}
    components = [{"id": comp_id[v], "b1": 0, "b2": b2[v], "kind": "rational"} for v in vertices]
    curves = []
    for key, ends in edges.items():
        ends = [comp_id[v] for v in ends]
        rng.shuffle(ends)
        curves.append({"id": curve_id[key], "components": ends, "genus": 0})
    points = []
    for n, (_, keys) in zip(rng.sample(range(10 * len(triangles) + 10), len(triangles)), triangles):
        order = [curve_id[k] for k in keys]
        rng.shuffle(order)
        points.append({"id": f"P{n:x}", "curves": order})
    for items in (components, curves, points):
        rng.shuffle(items)
    e1 = _e1_rows([(0, b2[v]) for v in vertices], [0] * len(edges), len(triangles))
    payload = {"components": components, "double_curves": curves, "triple_points": points}
    return Fiber(name, payload, expect_type, tuple(reject_clause), e1)


def elliptic_chain(rng: random.Random, n: int, closed: bool = False) -> Fiber:
    """n components in a chain (Type II: rational ends, elliptic ruled
    interior, elliptic double curves) or, when closed, a cycle of n
    elliptic ruled components, whose dual graph is not a path."""
    ids = _labels(rng, "Z", range(n))
    b1 = [2 if closed or 0 < i < n - 1 else 0 for i in range(n)]
    b2 = [rng.randint(2 if b == 2 else 1, 12) for b in b1]
    kind = {0: "rational", 2: "elliptic_ruled"}
    components = [{"id": ids[i], "b1": b1[i], "b2": b2[i], "kind": kind[b1[i]]} for i in range(n)]
    links = [(i, (i + 1) % n) for i in range(n if closed else n - 1)]
    curve_id = _labels(rng, "C", links)
    curves = []
    for i, j in links:
        ends = [ids[i], ids[j]]
        rng.shuffle(ends)
        curves.append({"id": curve_id[(i, j)], "components": ends, "genus": 1})
    rng.shuffle(components)
    rng.shuffle(curves)
    payload = {"components": components, "double_curves": curves, "triple_points": []}
    if closed:
        clause = ("not a path", f"a chain of {n} needs {n - 1}")
        return Fiber(f"cycle{n}", payload, None, clause)
    e1 = _e1_rows(list(zip(b1, b2)), [1] * len(links), 0)
    return Fiber(f"chain{n}", payload, "II", (), e1)
