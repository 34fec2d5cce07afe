"""Two-dimensional Delta-complexes and orientation actions of their symmetries.

These are the dual complexes of semistable degenerations: a vertex per
component, an edge per double curve, a triangle per triple point. Distinct
components can meet in several curves, so multi-edges are allowed and
triangles carry explicit edge ids rather than vertex pairs.

Conventions. A triangle stores a cyclic vertex order (v0, v1, v2) and edges
(e0, e1, e2) with side i running from v_i to v_{i+1 mod 3} along edge e_i.
The side sign is +1 when the traversal agrees with the stored direction of
the edge and -1 otherwise; it is inferred from the endpoints, except that a
loop edge at v lies only on sides from v to v, leaves the direction
undetermined there, and the triangle must then supply explicit signs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction

from . import _linalg


class InvalidComplex(Exception):
    """Raised when incidence data does not describe a Delta-complex."""


class NonOrientable(Exception):
    """Raised when orientation propagation reaches a contradiction."""


_ID_TYPES = frozenset((str, int))


def _require_json_ids(error, *groups):
    """Raise error unless every id in the lists is a JSON string or integer:
    Python equality would let JSON true and 2.0 stand for the ids 1 and 2."""
    for ids in groups:
        if not _ID_TYPES.issuperset(map(type, ids)):
            bad = next(x for x in ids if type(x) not in _ID_TYPES)
            raise error(f"id {bad!r} is not a JSON string or integer")


def _json_array(error, field, value):
    """value as a tuple; tuple() of a JSON string would split it into one-character ids."""
    if type(value) is not list:
        raise error(f"{field} must be a JSON array, got {value!r}")
    return tuple(value)


def _classes(nodes, joins):
    """Union-find: the class representative of each node, where joins is a
    flat list [a0, b0, a1, b1, ...] of nodes joined in pairs."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(0, len(joins), 2):
        parent[find(joins[k])] = find(joins[k + 1])
    return [find(x) for x in nodes]


def _infer_sign(edge, tail, head, explicit):
    if explicit is not None and (type(explicit) is not int or explicit not in (1, -1)):
        raise InvalidComplex(f"side sign must be the integer 1 or -1, got {explicit!r}")
    a, b = edge
    if a == b == tail == head:
        if explicit is None:
            raise InvalidComplex(
                "triangle side runs along a loop edge; explicit signs are required"
            )
        return explicit
    if (a, b) == (tail, head):
        inferred = 1
    elif (a, b) == (head, tail):
        inferred = -1
    else:
        raise InvalidComplex(
            f"edge {a, b} does not connect triangle side {tail} -> {head}"
        )
    if explicit is not None and explicit != inferred:
        raise InvalidComplex(
            f"declared sign {explicit} contradicts edge direction {a, b} on side {tail} -> {head}"
        )
    return inferred


class DeltaComplex:
    """A 2-dimensional Delta-complex with explicit cell ids.

    vertices: iterable of ids.
    edges: map edge id -> (v0, v1).
    triangles: map triangle id -> (vertices, edges) or (vertices, edges, signs).
    """

    def __init__(self, vertices, edges, triangles):
        vertices = tuple(vertices)
        vertex_set = set(vertices)
        if len(vertex_set) != len(vertices):
            raise InvalidComplex("repeated vertex id")

        checked_edges = {}
        for eid, pair in dict(edges).items():
            a, b = pair
            if a not in vertex_set or b not in vertex_set:
                raise InvalidComplex(f"edge {eid!r} references an unknown vertex")
            checked_edges[eid] = tuple(pair)

        checked_triangles = {}
        triangle_signs = {}
        for tid, data in dict(triangles).items():
            if len(data) == 2:
                (verts, tri_edges), signs = data, (None, None, None)
            else:
                verts, tri_edges, signs = data
            verts, tri_edges, signs = tuple(verts), tuple(tri_edges), tuple(signs)
            if len(verts) != 3 or len(tri_edges) != 3 or len(signs) != 3:
                raise InvalidComplex(f"triangle {tid!r} needs 3 vertices, edges, and signs")
            if any(v not in vertex_set for v in verts):
                raise InvalidComplex(f"triangle {tid!r} references an unknown vertex")
            if any(e not in checked_edges for e in tri_edges):
                raise InvalidComplex(f"triangle {tid!r} references an unknown edge")
            triangle_signs[tid] = tuple(
                _infer_sign(checked_edges[tri_edges[i]], verts[i], verts[(i + 1) % 3], signs[i])
                for i in range(3)
            )
            checked_triangles[tid] = (verts, tri_edges)
        self._build(vertices, checked_edges, checked_triangles, triangle_signs)

    def _build(self, vertices, edges, triangles, triangle_signs):
        """Assign cells that the caller has checked, and index each edge's sides; returns self."""
        self.vertices, self.edges, self.triangles, self.triangle_signs = vertices, edges, triangles, triangle_signs
        self._sides = {eid: [] for eid in edges}  # edge -> glued sides as a flat list [tid, i, ...]
        for tid, (_, tri_edges) in triangles.items():
            for i in range(3):
                self._sides[tri_edges[i]] += (tid, i)
        return self

    # -- incidence helpers -------------------------------------------------

    def sides_of_edge(self, eid):
        """All (triangle id, side index) pairs glued to an edge."""
        flat = self._sides.get(eid, ())
        return list(zip(flat[::2], flat[1::2]))

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.edges), len(self.triangles)

    def euler_characteristic(self) -> int:
        v, e, f = self.counts()
        return v - e + f

    def component_count(self) -> int:
        """Connected components, by union-find over the edges: each triangle's
        corners are joined by its own sides, so triangles add nothing."""
        ends = [v for pair in self.edges.values() for v in pair]
        return len(set(_classes(self.vertices, ends)))

    def _link_circles(self) -> Counter:
        """Circles in each vertex link when every edge lies on two sides: the
        classes of edge-ends that the triangle corners join. The k-th edge
        has ends 2k (tail) and 2k + 1 (head); the corner at verts[i] joins
        the end where side i - 1 arrives to the end where side i leaves."""
        tail = {eid: 2 * k for k, eid in enumerate(self.edges)}
        joins = []
        for tid, (_, tri_edges) in self.triangles.items():
            signs = self.triangle_signs[tid]
            for i in range(3):  # i - 1 = -1 wraps round to side 2
                joins += (tail[tri_edges[i - 1]] + (signs[i - 1] == 1),
                          tail[tri_edges[i]] + (signs[i] == -1))
        ends = [v for pair in self.edges.values() for v in pair]
        # corners join only ends at one vertex, so each class has one owner
        return Counter(dict(zip(_classes(range(len(ends)), joins), ends)).values())

    # -- homology ----------------------------------------------------------

    def boundary_matrices(self):
        """Integer matrices of the chain complex C2 -> C1 -> C0."""
        v_index = {v: i for i, v in enumerate(self.vertices)}
        e_ids = sorted(self.edges, key=str)
        e_index = {e: i for i, e in enumerate(e_ids)}
        t_ids = sorted(self.triangles, key=str)

        d1 = [[0] * len(e_ids) for _ in range(len(self.vertices))]
        for eid, (a, b) in self.edges.items():
            j = e_index[eid]
            d1[v_index[b]][j] += 1
            d1[v_index[a]][j] -= 1

        d2 = [[0] * len(t_ids) for _ in range(len(e_ids))]
        for col, tid in enumerate(t_ids):
            _, tri_edges = self.triangles[tid]
            for i, eid in enumerate(tri_edges):
                d2[e_index[eid]][col] += self.triangle_signs[tid][i]
        return d1, d2

    def homology_dims(self) -> tuple[int, int, int]:
        """Rational Betti numbers (h0, h1, h2): h0 counts components (so
        rank d1 = V - h0), h2 = dim ker d2, and h1 = h0 - chi + h2.

        h2 reduces d2 one edge row at a time without building it
        (Kaczynski-Mrozek-Slusarek): a weighted union-find over triangles
        keeps z[t] = q[t] * z[parent[t]] exactly. A row with one live class
        kills it (joins it to `zero`, where z = 0), a row with two joins
        them, and rows with more are ranked at the end over the live roots.
        """
        zero = object()
        parent = {t: t for t in (*self.triangles, zero)}  # values are key objects: compare by `is`
        q = dict.fromkeys(self.triangles, 1)

        def find(t):  # (root, w) with z[t] = w * z[root], compressing the path
            path = []
            while parent[t] is not t:
                path.append(t)
                t = parent[t]
            w = 1
            for u in reversed(path):
                w *= q[u]
                parent[u], q[u] = t, w
            return t, w

        def live_terms(flat):  # an edge's row of d2 -> {live root: coefficient}
            terms = {}
            for t, i in zip(flat[::2], flat[1::2]):
                r, w = find(t)
                if r is not zero:
                    terms[r] = terms.get(r, 0) + self.triangle_signs[t][i] * w
            return {r: c for r, c in terms.items() if c}

        residual = []
        for flat in self._sides.values():
            terms = live_terms(flat)
            if len(terms) == 1:
                parent[next(iter(terms))] = zero
            elif len(terms) == 2:  # a z[r1] + b z[r2] = 0
                (r1, a), (r2, b) = terms.items()
                # an int where it divides (always, on a surface): ints multiply faster
                parent[r2], q[r2] = r1, (-a // b if a % b == 0 else Fraction(-a, b))
            elif terms:
                residual.append(flat)

        live = [t for t in self.triangles if parent[t] is t]
        matrix = []
        for terms in map(live_terms, residual):
            scale = math.lcm(*(c.denominator for c in terms.values()))  # Bareiss takes ints only
            matrix.append([int(terms.get(r, 0) * scale) for r in live])
        h2 = len(live) - _linalg.exact_rank(matrix)
        h0 = self.component_count()
        return h0, h0 - self.euler_characteristic() + h2, h2

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": eid, "v": list(pair)} for eid, pair in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "triangles": [
                {
                    "id": tid,
                    "edges": list(self.triangles[tid][1]),
                    "vertices": list(self.triangles[tid][0]),
                    "signs": list(self.triangle_signs[tid]),
                }
                for tid in sorted(self.triangles, key=str)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeltaComplex":
        try:
            vertices = _json_array(InvalidComplex, "vertices", data["vertices"])
            edge_list = _json_array(InvalidComplex, "edges", data["edges"])
            edges = {e["id"]: _json_array(InvalidComplex, "edge v", e["v"]) for e in edge_list}
            triangles = {}
            for t in _json_array(InvalidComplex, "triangles", data["triangles"]):
                triangles[t["id"]] = (
                    _json_array(InvalidComplex, "triangle vertices", t["vertices"]),
                    _json_array(InvalidComplex, "triangle edges", t["edges"]),
                    _json_array(InvalidComplex, "triangle signs", t["signs"]) if "signs" in t else (None,) * 3,
                )
        except (KeyError, TypeError) as exc:
            raise InvalidComplex(f"malformed complex payload: {exc}") from exc
        if len(edges) != len(edge_list):
            raise InvalidComplex("repeated edge id")
        if len(triangles) != len(data["triangles"]):
            raise InvalidComplex("repeated triangle id")
        # after the repeat checks, so the keys of edges and triangles are every declared id
        _require_json_ids(
            InvalidComplex,
            vertices,
            [x for eid, pair in edges.items() for x in (eid, *pair)],
            [x for tid, (verts, tri_edges, _) in triangles.items() for x in (tid, *verts, *tri_edges)],
        )
        return cls(vertices, edges, triangles)


def sphere_failure(c: DeltaComplex):
    """Why the complex does not triangulate the 2-sphere, or None if it does.

    Checks, in order: nonempty with 2-cells, connected, every edge on
    exactly two triangle sides, every vertex link a single circle,
    orientable, Euler characteristic 2. The first failure is reported.
    """
    if not c.vertices or not c.triangles:
        return "empty complex or no triangles"
    if c.component_count() != 1:
        return "not connected"
    for eid, flat in c._sides.items():
        if len(flat) != 4:
            return f"edge {eid!r} lies on {len(flat) // 2} triangle sides, expected 2"
    # relies on the edge check above: with every edge on two sides, every
    # edge-end meets two corners, so each link is a disjoint union of circles
    circles = c._link_circles()
    for v in c.vertices:
        if circles[v] != 1:
            return f"link of vertex {v!r} is not a single circle"
    try:
        _propagate(c)  # orient's own checks, connectivity and pairing, are proven above
    except NonOrientable:
        return "not orientable"
    if c.euler_characteristic() != 2:
        return f"Euler characteristic is {c.euler_characteristic()}, expected 2"
    return None


def orient(c: DeltaComplex) -> dict:
    """Assign +-1 to each triangle so induced edge orientations cancel.

    Signs are propagated breadth-first from an arbitrary seed triangle.
    Requires a closed connected pseudo-surface: every edge on exactly two
    triangle sides. Raises NonOrientable on contradiction.
    """
    if not c.triangles:
        raise InvalidComplex("nothing to orient: no triangles")
    if c.component_count() != 1:
        raise InvalidComplex("orientation requires a connected complex")
    return _propagate(c)


def _propagate(c: DeltaComplex) -> dict:
    """orient on a connected complex with triangles: pair each edge's two
    sides, then propagate signs breadth-first from the first triangle."""
    neighbors = {tid: [] for tid in c.triangles}  # flat: [neighbor, relative sign, ...]
    for eid, flat in c._sides.items():
        if len(flat) != 4:
            raise InvalidComplex(f"edge {eid!r} lies on {len(flat) // 2} triangle sides, expected 2")
        t1, i1, t2, i2 = flat
        # or[t1]*s1 + or[t2]*s2 = 0  <=>  or[t2] = -or[t1]*s1*s2
        rel = -c.triangle_signs[t1][i1] * c.triangle_signs[t2][i2]
        neighbors[t1] += (t2, rel)
        neighbors[t2] += (t1, rel)

    seed = next(iter(c.triangles))
    orientation, queue = {seed: 1}, deque([seed])
    while queue:
        t = queue.popleft()
        flat = neighbors[t]
        for u, rel in zip(flat[::2], flat[1::2]):
            expected = orientation[t] * rel
            if u in orientation:
                if orientation[u] != expected:
                    raise NonOrientable(f"orientation contradiction at triangle {u!r}")
            else:
                orientation[u] = expected
                queue.append(u)
    if len(orientation) != len(c.triangles):
        raise InvalidComplex("triangles not connected through shared edges")
    # every pairing was set or checked above, so the signed 2-chain is a cycle
    return orientation


# The six symmetries of a triangle as (corner map, side map, parity): corner
# i goes to corner map[i] and side i to side map[i]. A rotation by r keeps
# the cyclic order. A reflection i -> (c - i) % 3 reverses it, so side i,
# from corner i to i + 1, lands backwards on side (c - i - 1) % 3.
_TRIANGLE_SYMMETRIES = (
    ((0, 1, 2), (0, 1, 2), 1),
    ((1, 2, 0), (1, 2, 0), 1),
    ((2, 0, 1), (2, 0, 1), 1),
    ((0, 2, 1), (2, 1, 0), -1),
    ((1, 0, 2), (0, 2, 1), -1),
    ((2, 1, 0), (1, 0, 2), -1),
)


class ComplexAutomorphism:
    """A symmetry of a DeltaComplex: bijections of vertex, edge, triangle ids
    commuting with all incidence relations."""

    def __init__(self, complex: DeltaComplex, vertex_map, edge_map, triangle_map):
        self.complex = complex
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)
        self.triangle_map = dict(triangle_map)
        self._parities = {}
        self._validate()

    def _validate(self):
        c = self.complex
        for name, mapping, domain in (
            ("vertex", self.vertex_map, set(c.vertices)),
            ("edge", self.edge_map, set(c.edges)),
            ("triangle", self.triangle_map, set(c.triangles)),
        ):
            if set(mapping) != domain or set(mapping.values()) != domain:
                raise InvalidComplex(f"{name}_map is not a bijection of the {name} ids")

        for eid, (a, b) in c.edges.items():
            image = c.edges[self.edge_map[eid]]
            if set(image) != {self.vertex_map[a], self.vertex_map[b]}:
                raise InvalidComplex(f"edge_map breaks endpoints of edge {eid!r}")

        for tid, (verts, tri_edges) in c.triangles.items():
            image_id = self.triangle_map[tid]
            iverts, iedges = c.triangles[image_id]
            gv = tuple(self.vertex_map[v] for v in verts)
            ge = tuple(self.edge_map[e] for e in tri_edges)
            parities = {
                parity
                for corners, sides, parity in _TRIANGLE_SYMMETRIES
                if all(gv[i] == iverts[corners[i]] and ge[i] == iedges[sides[i]] for i in range(3))
            }
            if not parities:
                raise InvalidComplex(f"triangle_map breaks incidence of triangle {tid!r}")
            if len(parities) > 1:
                raise InvalidComplex(
                    f"triangle {tid!r} maps ambiguously (both parities); data too symmetric"
                )
            self._parities[tid] = parities.pop()

    def parity(self, tid) -> int:
        """+1 if the triangle's cyclic vertex order is preserved, -1 if reversed."""
        return self._parities[tid]

    @classmethod
    def from_json_dict(cls, complex: DeltaComplex, data: dict) -> "ComplexAutomorphism":
        if type(data) is not dict:
            raise InvalidComplex(f"malformed automorphism payload: expected a JSON object, got {data!r}")
        try:
            maps = data["vertex_map"], data["edge_map"], data["triangle_map"]
        except KeyError as exc:
            raise InvalidComplex(f"malformed automorphism payload: missing {exc}") from exc
        names = ("vertex", "edge", "triangle")
        for name, mapping in zip(names, maps):
            if type(mapping) is not dict:
                raise InvalidComplex(f"{name}_map must be a JSON object, got {mapping!r}")
        for name, ids in zip(names, (complex.vertices, complex.edges, complex.triangles)):
            bad = next((x for x in ids if type(x) is not str), None)
            if bad is not None:
                raise InvalidComplex(f"automorphism maps are JSON objects, so they need string ids; {name} id {bad!r} is not a string")
        return cls(complex, *maps)


def orientation_action(c: DeltaComplex, g: ComplexAutomorphism) -> int:
    """The sign by which a symmetry acts on the 2-element set of orientations.

    Pushing the fundamental 2-cycle forward along g multiplies it by a global
    sign on a connected closed orientable surface; that sign is returned.
    """
    orientation = orient(c)
    signs = {orientation[tid] * g.parity(tid) * orientation[g.triangle_map[tid]] for tid in c.triangles}
    if len(signs) != 1:
        raise InvalidComplex("pushforward of the fundamental cycle is not a multiple of it")
    return signs.pop()
