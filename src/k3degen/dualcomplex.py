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

from collections import Counter

from . import Refusal, _linalg


class InvalidComplex(ValueError):
    """Raised when a payload or incidence data does not describe a Delta-complex or an SNC fiber."""


class NonOrientable(Refusal):
    """Raised when orientation propagation reaches a contradiction."""

    summary_prefix = "non-orientable: "


_ID_TYPES = frozenset((str, int))


def _require_json_ids(*groups):
    """Raise InvalidComplex unless every id in the lists is a JSON string or integer:
    Python equality would let JSON true and 2.0 stand for the ids 1 and 2."""
    for ids in groups:
        if not _ID_TYPES.issuperset(map(type, ids)):
            bad = next(x for x in ids if type(x) not in _ID_TYPES)
            raise InvalidComplex(f"id {bad!r} is not a JSON string or integer")


def _known_fields(data, names):
    """Raise InvalidComplex naming the first field of the payload object data, in payload
    order, that is not in names; a payload that is not an object passes here."""
    for key in data if type(data) is dict else ():
        if key not in names:
            raise InvalidComplex(f"payload has unknown field {key!r}")


def _section(data, name):
    """The JSON array data[name] of a payload object; a name ending in ? may be absent, reading []."""
    if type(data) is not dict:
        raise InvalidComplex(f"payload must be a JSON object, got {data!r}")
    key = name.rstrip("?")
    if key not in data:
        if key == name:
            raise InvalidComplex(f"payload has no field {key!r}")
        return []
    if type(data[key]) is not list:
        raise InvalidComplex(f"{key} must be a JSON array, got {data[key]!r}")
    return data[key]


def _read(data, section, fields, absent=None):
    """The cells of the JSON array data[section] as one list per field, then None. A
    field x? may be absent, reading absent; a field x[] must be a JSON array. When a
    cell is not a JSON object, a field is missing or not an array, or the cell has a
    field not in fields, the lists stop before that cell, and the InvalidComplex naming its
    section, index and field comes in place of None: the caller checks the values of
    the cells before it, then raises it, so that faults are reported cell by cell."""
    cells = _section(data, section)
    section, specs = section.rstrip("?"), [(f, f.rstrip("?").removesuffix("[]")) for f in fields]

    def columns(cells):
        return [[c.get(n, absent) for c in cells] if f[-1] == "?" else [c[n] for c in cells] for f, n in specs]

    try:
        out = columns(cells) if {dict}.issuperset(map(type, cells)) else None
    except KeyError:  # a missing field, worded below
        out = None
    if out is not None and all(
        {list}.issuperset(map(type, [x for x in col if x is not absent] if f[-1] == "?" else col))
        for (f, _), col in zip(specs, out)
        if "[]" in f
    ):
        # a key the columns did not read makes the cells hold more keys than they took;
        # a given null in an x? field reads as absent, so it too sends the cells to the scan
        read = len(cells) * len(specs)
        for (f, _), col in zip(specs, out):
            if f[-1] == "?":
                read -= col.count(absent)
        if sum(map(len, cells)) == read:
            return out, None
    names = {n for _, n in specs}
    for k, cell in enumerate(cells):
        if type(cell) is not dict:
            return columns(cells[:k]), InvalidComplex(f"{section}[{k}] must be a JSON object, got {cell!r}")
        for f, n in specs:
            if n not in cell and f[-1] != "?":
                return columns(cells[:k]), InvalidComplex(f"{section}[{k}] has no field {n!r}")
            if n in cell and "[]" in f and type(cell[n]) is not list:
                return columns(cells[:k]), InvalidComplex(f"{section}[{k}].{n} must be a JSON array, got {cell[n]!r}")
        for key in cell:
            if key not in names:
                return columns(cells[:k]), InvalidComplex(f"{section}[{k}] has unknown field {key!r}")
    return out, None


def _classes(n, joins):
    """Union-find: the class representative of each node 0..n-1, where joins
    is a flat list [a0, b0, a1, b1, ...] of nodes joined in pairs. A root
    joins the smaller root, so parent[x] <= x and one pass in order resolves
    each node to its root."""
    parent = list(range(n))
    for a, b in zip(joins[::2], joins[1::2]):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent


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

    Cells are stored by index. vertices, _eids and _tids list the ids; edge k
    runs from vertex _ends[2k] to _ends[2k + 1]; side i of triangle t, side
    number 3t + i, lies on edge _tedges[3t + i] with sign _signs[3t + i]; and
    _sides[k] lists the side numbers on edge k.
    """

    def __init__(self, vertices, edges, triangles):
        vertices = tuple(vertices)
        vertex_index = {v: k for k, v in enumerate(vertices)}
        if len(vertex_index) != len(vertices):
            raise InvalidComplex("repeated vertex id")

        checked_edges = {}
        for eid, pair in dict(edges).items():
            if len(pair) != 2:
                raise InvalidComplex(f"edge {eid!r}: v must list 2 vertices, got {len(pair)}")
            a, b = pair
            if a not in vertex_index or b not in vertex_index:
                raise InvalidComplex(f"edge {eid!r} references an unknown vertex")
            checked_edges[eid] = (a, b)
        edge_index = {eid: k for k, eid in enumerate(checked_edges)}

        tids, tedges, side_signs = [], [], []
        for tid, data in dict(triangles).items():
            if len(data) == 2:
                (verts, tri_edges), signs = data, (None, None, None)
            else:
                verts, tri_edges, signs = data
            verts, tri_edges, signs = tuple(verts), tuple(tri_edges), tuple(signs)
            if len(verts) != 3 or len(tri_edges) != 3 or len(signs) != 3:
                raise InvalidComplex(f"triangle {tid!r} needs 3 vertices, edges, and signs")
            if any(v not in vertex_index for v in verts):
                raise InvalidComplex(f"triangle {tid!r} references an unknown vertex")
            if any(e not in checked_edges for e in tri_edges):
                raise InvalidComplex(f"triangle {tid!r} references an unknown edge")
            side_signs += (
                _infer_sign(checked_edges[tri_edges[i]], verts[i], verts[(i + 1) % 3], signs[i])
                for i in range(3)
            )
            tids.append(tid)
            tedges += (edge_index[e] for e in tri_edges)
        ends = [vertex_index[v] for pair in checked_edges.values() for v in pair]
        self._build(vertices, list(checked_edges), ends, tids, tedges, side_signs)

    def _build(self, vertices, eids, ends, tids, tedges, signs):
        """Store cells that the caller has checked, and list each edge's sides; returns self."""
        self.vertices, self._eids, self._ends = vertices, eids, ends
        self._tids, self._tedges, self._signs = tids, tedges, signs
        self._components = self._walked = None  # component_count and _walk, kept on first use
        sides = self._sides = [[] for _ in eids]
        for k, e in enumerate(tedges):
            sides[e].append(k)
        return self

    # -- id-keyed views, built on each call --------------------------------

    @property
    def edges(self) -> dict:
        """edge id -> (tail, head)."""
        v, ends = self.vertices, self._ends
        return {eid: (v[ends[2 * k]], v[ends[2 * k + 1]]) for k, eid in enumerate(self._eids)}

    @property
    def triangles(self) -> dict:
        """triangle id -> (vertices, edge ids); side i leaves vertex i from the
        end of its edge that its sign makes the tail."""
        v, ends, eids = self.vertices, self._ends, self._eids
        corners = [v[ends[2 * e + (s == -1)]] for e, s in zip(self._tedges, self._signs)]
        edge_ids = [eids[e] for e in self._tedges]
        return {tid: (tuple(corners[3 * t:3 * t + 3]), tuple(edge_ids[3 * t:3 * t + 3]))
                for t, tid in enumerate(self._tids)}

    @property
    def triangle_signs(self) -> dict:
        """triangle id -> the signs of its three sides."""
        return {tid: tuple(self._signs[3 * t:3 * t + 3]) for t, tid in enumerate(self._tids)}

    # -- incidence helpers -------------------------------------------------

    def sides_of_edge(self, eid):
        """All (triangle id, side index) pairs glued to an edge."""
        sides = self._sides[self._eids.index(eid)] if eid in self._eids else ()
        return [(self._tids[k // 3], k % 3) for k in sides]

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self._eids), len(self._tids)

    def euler_characteristic(self) -> int:
        v, e, f = self.counts()
        return v - e + f

    def component_count(self) -> int:
        """Connected components, by one union-find over the edges, kept: each
        triangle's corners are joined by its own sides, so triangles add nothing."""
        if self._components is None:
            self._components = len(set(_classes(len(self.vertices), self._ends)))
        return self._components

    def _link_circles(self) -> Counter:
        """Circles in each vertex link, by vertex index, when every edge lies on
        two sides: the classes of edge-ends that the triangle corners join.
        Edge k has ends 2k and 2k + 1, at vertices _ends[2k] and _ends[2k + 1].
        A side on edge e arrives at end 2e + (sign == 1) and leaves from the
        other; the corner where side i starts joins side i - 1's arrival to
        side i's departure."""
        arrive = [2 * e + (s == 1) for e, s in zip(self._tedges, self._signs)]
        joins = []
        for k in range(0, len(arrive), 3):
            a0, a1, a2 = arrive[k:k + 3]
            joins += (a2, a0 ^ 1, a0, a1 ^ 1, a1, a2 ^ 1)
        # corners join only ends at one vertex, so each class has one owner
        return Counter(self._ends[r] for r in set(_classes(len(self._ends), joins)))

    # -- homology ----------------------------------------------------------

    def boundary_matrices(self):
        """Integer matrices of the chain complex C2 -> C1 -> C0, cells in the str order of their ids."""
        e_order = sorted(range(len(self._eids)), key=lambda k: str(self._eids[k]))
        row = {k: j for j, k in enumerate(e_order)}
        d1 = [[0] * len(e_order) for _ in self.vertices]
        for j, k in enumerate(e_order):
            d1[self._ends[2 * k + 1]][j] += 1
            d1[self._ends[2 * k]][j] -= 1
        d2 = [[0] * len(self._tids) for _ in e_order]
        for col, t in enumerate(sorted(range(len(self._tids)), key=lambda t: str(self._tids[t]))):
            for k in range(3 * t, 3 * t + 3):
                d2[row[self._tedges[k]]][col] += self._signs[k]
        return d1, d2

    def homology_dims(self) -> tuple[int, int, int]:
        """Rational Betti numbers (h0, h1, h2): h0 counts components (so
        rank d1 = V - h0), h2 = dim ker d2, and h1 = h0 - chi + h2.

        h2 reads the signed walk (_walk) without building d2: a 2-cycle is
        a multiple of the walk's signs on each class of triangles joined
        through two-sided edges, and vanishes on a class that is not live.
        Only the rows of edges on three or more sides tie the live classes,
        so h2 = live classes - the rank of those rows over them.
        """
        klass, orientation, bad, residual = self._walked or _walk(self)
        live, matrix = [k for k, b in enumerate(bad) if b is None], []
        for sides in residual:
            row = [0] * len(bad)
            for k in sides:
                row[klass[k // 3]] += self._signs[k] * orientation[k // 3]
            matrix.append([row[k] for k in live])
        h2 = len(live) - _linalg.exact_rank(matrix)
        h0 = self.component_count()
        return h0, h0 - self.euler_characteristic() + h2, h2

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        triangles, signs = self.triangles, self.triangle_signs
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": eid, "v": list(pair)} for eid, pair in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "triangles": [
                {
                    "id": tid,
                    "edges": list(triangles[tid][1]),
                    "vertices": list(triangles[tid][0]),
                    "signs": list(signs[tid]),
                }
                for tid in sorted(triangles, key=str)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeltaComplex":
        vertices = _section(data, "vertices")
        (eids, ends), fault = _read(data, "edges", ("id", "v[]"))
        if fault:
            raise fault
        (tids, corners, sides, signs), fault = _read(
            data, "triangles", ("id", "vertices[]", "edges[]", "signs[]?"), (None,) * 3
        )
        if fault:
            raise fault
        # before the repeat checks, which hash the ids
        _require_json_ids(
            vertices,
            [x for eid, pair in zip(eids, ends) for x in (eid, *pair)],
            [x for cell in zip(tids, corners, sides) for x in (cell[0], *cell[1], *cell[2])],
        )
        edges = dict(zip(eids, ends))
        if len(edges) != len(eids):
            raise InvalidComplex("repeated edge id")
        triangles = dict(zip(tids, zip(corners, sides, signs)))
        if len(triangles) != len(tids):
            raise InvalidComplex("repeated triangle id")
        return cls(vertices, edges, triangles)


def sphere_failure(c: DeltaComplex):
    """Why the complex does not triangulate the 2-sphere, or None if it does.

    Accepted at once, when nonempty with 2-cells, if every edge lies on two
    sides, the walk has one class, every vertex ends an edge and chi = 2:
    splitting each vertex into one per circle of its link gives a closed
    connected surface X', and chi = chi(X') - (V' - V) <= 2 forces X = X' = S^2.
    Else the first failure of, in order: connected, every edge on exactly two
    triangle sides, every vertex link a single circle, orientable, chi = 2.
    """
    if not c.vertices or not c._tids:
        return "empty complex or no triangles"
    if (all(len(sides) == 2 for sides in c._sides) and len(set(c._ends)) == len(c.vertices)
            and len((c._walked or _walk(c))[2]) == 1):
        c._components = 1  # the triangles are joined, and every vertex and edge is on one
        if c.euler_characteristic() == 2:
            return None
    if c.component_count() != 1:
        return "not connected"
    for e, sides in enumerate(c._sides):
        if len(sides) != 2:
            return f"edge {c._eids[e]!r} lies on {len(sides)} triangle sides, expected 2"
    # relies on the edge check above: with every edge on two sides, every
    # edge-end meets two corners, so each link is a disjoint union of circles
    circles = c._link_circles()
    for v, vid in enumerate(c.vertices):
        if circles[v] != 1:
            return f"link of vertex {vid!r} is not a single circle"
    # the checks above leave one class, with no one-sided edge
    if (c._walked or _walk(c))[2][0] is not None:
        return "not orientable"
    # clauses 2-5 give the certificate's other three conditions, so chi != 2
    return f"Euler characteristic is {c.euler_characteristic()}, expected 2"


def orient(c: DeltaComplex) -> dict:
    """Assign +-1 to each triangle so induced edge orientations cancel.

    Signs are those of the walk breadth-first from the first triangle.
    Requires a closed connected pseudo-surface: every edge on exactly two
    triangle sides. Raises NonOrientable on contradiction.
    """
    if not c._tids:
        raise InvalidComplex("nothing to orient: no triangles")
    if c.component_count() != 1:
        raise InvalidComplex("orientation requires a connected complex")
    for e, sides in enumerate(c._sides):
        if len(sides) != 2:
            raise InvalidComplex(f"edge {c._eids[e]!r} lies on {len(sides)} triangle sides, expected 2")
    _, orientation, bad, _ = c._walked or _walk(c)
    if bad[0] is not None:
        raise NonOrientable(f"orientation contradiction at triangle {c._tids[bad[0]]!r}")
    if len(bad) > 1:
        raise InvalidComplex("triangles not connected through shared edges")
    # every pairing was set or checked by the walk, so the signed 2-chain is a cycle
    return dict(zip(c._tids, orientation))


def _walk(c: DeltaComplex):
    """Walk breadth-first through two-sided edges from each unreached
    triangle in index order, once: callers read c._walked first. Returns
    (klass, orientation, bad, residual): walk k makes class k, and triangle
    t is in klass[t] with sign orientation[t]. bad[k] is the first triangle
    where walk k contradicts itself, else one on a one-sided edge, else
    None (class k is live); residual lists each edge's sides when it has 3
    or more."""
    signs = c._signs
    neighbors = [[] for _ in c._tids]  # u, or ~u where u takes the opposite sign
    dead, residual = [], []
    for sides in c._sides:
        if len(sides) == 2:
            k1, k2 = sides
            t1, t2 = k1 // 3, k2 // 3
            if signs[k1] == signs[k2]:  # or[t1]*s1 + or[t2]*s2 = 0  <=>  or[t2] = -or[t1]*s1*s2
                t1, t2 = ~t1, ~t2
            neighbors[k1 // 3].append(t2)
            neighbors[k2 // 3].append(t1)
        elif len(sides) == 1:
            dead.append(sides[0] // 3)
        elif sides:
            residual.append(sides)

    klass, orientation, bad = [0] * len(neighbors), [0] * len(neighbors), []  # orientation 0: not reached yet
    for root in range(len(neighbors)):
        if orientation[root]:
            continue
        k, first, queue = len(bad), None, [root]
        orientation[root], klass[root] = 1, k
        for t in queue:  # breadth-first: the loop goes on over the triangles appended
            for u in neighbors[t]:
                expected = orientation[t]
                if u < 0:
                    u, expected = ~u, -expected
                if not orientation[u]:
                    orientation[u] = expected
                    klass[u] = k
                    queue.append(u)
                elif first is None and orientation[u] != expected:
                    first = u
        bad.append(first)
    for t in dead:
        if bad[klass[t]] is None:
            bad[klass[t]] = t
    c._walked = klass, orientation, bad, residual
    return c._walked


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
        edges, triangles = c.edges, c.triangles
        for name, mapping, domain in (
            ("vertex", self.vertex_map, set(c.vertices)),
            ("edge", self.edge_map, set(edges)),
            ("triangle", self.triangle_map, set(triangles)),
        ):
            if set(mapping) != domain or set(mapping.values()) != domain:
                raise InvalidComplex(f"{name}_map is not a bijection of the {name} ids")

        for eid, (a, b) in edges.items():
            image = edges[self.edge_map[eid]]
            if set(image) != {self.vertex_map[a], self.vertex_map[b]}:
                raise InvalidComplex(f"edge_map breaks endpoints of edge {eid!r}")

        for tid, (verts, tri_edges) in triangles.items():
            image_id = self.triangle_map[tid]
            iverts, iedges = triangles[image_id]
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
        if len(data) != 3:
            extra = next(key for key in data if key not in ("vertex_map", "edge_map", "triangle_map"))
            raise InvalidComplex(f"malformed automorphism payload: unknown field {extra!r}")
        names = ("vertex", "edge", "triangle")
        for name, mapping in zip(names, maps):
            if type(mapping) is not dict:
                raise InvalidComplex(f"{name}_map must be a JSON object, got {mapping!r}")
            for key, image in mapping.items():
                if type(image) is not str:
                    raise InvalidComplex(f"{name}_map maps {key!r} to {image!r}, not to a JSON string")
        for name, ids in zip(names, (complex.vertices, complex._eids, complex._tids)):
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
    signs = {orientation[tid] * g.parity(tid) * orientation[g.triangle_map[tid]] for tid in c._tids}
    if len(signs) != 1:
        raise InvalidComplex("pushforward of the fundamental cycle is not a multiple of it")
    return signs.pop()
