"""Independent oracles for the test suite.

Everything here is deliberately written from first principles, on purpose
not sharing code paths with the library: a sieve of Eratosthenes for
primality, brute-force totients, the Moebius product formula for cyclotomic
polynomials, Fraction-based elimination for determinants and ranks, and
Descartes' rule on exact characteristic polynomials for signatures (valid
because symmetric matrices have only real eigenvalues).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from k3degen.degeneration import KulikovType
from k3degen.dualcomplex import ComplexAutomorphism, DeltaComplex, InvalidComplex
from k3degen.sncfiber import SNCSurface


# -- number theory ----------------------------------------------------------


def naive_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def prime_sieve(limit: int) -> list[bool]:
    """Sieve of Eratosthenes: flags[n] is True iff n < limit is prime."""
    flags = [True] * limit
    flags[:2] = [False, False]
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, limit, p))
    return flags


def totient_table(limit: int) -> list[int]:
    """phi[m] for every m < limit, by sieving each prime's factor (1 - 1/p) into m."""
    phi = list(range(limit))
    for p, prime in enumerate(prime_sieve(limit)):
        if prime:
            for k in range(p, limit, p):
                phi[k] -= phi[k] // p
    return phi


def mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


# -- polynomial arithmetic on plain tuples (lowest degree first) -------------


def poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_product(factors):
    """prod of Phi_m^mult over a map m -> mult, from the Moebius cyclotomics."""
    out = (1,)
    for m, mult in factors.items():
        for _ in range(mult):
            out = poly_mul(out, cyclo_oracle(m))
    return out


def poly_div_exact(num, den):
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - 1, len(den) - 2, -1):
        c = num[k]
        if c == 0:
            continue
        q[k - len(den) + 1] = c
        for j, d in enumerate(den):
            num[k - len(den) + 1 + j] -= c * d
    assert all(c == 0 for c in num[: len(den) - 1]), "inexact division"
    return poly_trim(q)


def x_pow_minus_one(d):
    return poly_trim([-1] + [0] * (d - 1) + [1])


def cyclo_oracle(m: int):
    """Phi_m by the Moebius product: prod over d|m of (x^d - 1)^mu(m/d)."""
    num = (1,)
    den = (1,)
    for d in range(1, m + 1):
        if m % d:
            continue
        mu = mobius(m // d)
        if mu == 1:
            num = poly_mul(num, x_pow_minus_one(d))
        elif mu == -1:
            den = poly_mul(den, x_pow_minus_one(d))
    return poly_div_exact(num, den)


# -- the order/type theorem as literal tables -----------------------------------

# orders whose cyclotomic field is Q, or Q or imaginary quadratic
ORDERS_Q = frozenset({1, 2})
ORDERS_Q_OR_IMAG_QUADRATIC = frozenset({1, 2, 3, 4, 6})
# every m with phi(m) <= 20; phi(m) >= sqrt(m / 2) puts them all below 2 * 20**2
ORDERS_PHI_20 = frozenset(m for m in range(1, 2 * 20**2 + 1) if naive_phi(m) <= 20)


def orders_from_type_table(t: KulikovType) -> frozenset:
    """The orders a type allows, as stated: Q^* for III, Q or imaginary quadratic for II."""
    return {KulikovType.III: ORDERS_Q, KulikovType.II: ORDERS_Q_OR_IMAG_QUADRATIC}.get(t, ORDERS_PHI_20)


def types_from_order_table(m: int) -> frozenset:
    """The types an order allows, as stated: {1,2} allow all, {3,4,6} rule out III, the rest force I."""
    if m in ORDERS_Q:
        return frozenset(KulikovType)
    if m in ORDERS_Q_OR_IMAG_QUADRATIC:
        return frozenset({KulikovType.I, KulikovType.II})
    return frozenset({KulikovType.I})


# -- exact matrix oracles -----------------------------------------------------


def frac_det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            for j in range(col, n):
                m[i][j] -= f * m[col][j]
    return det


def frac_rank(rows) -> int:
    if not rows:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for i in range(rank + 1, nrows):
            f = m[i][col] * inv
            for j in range(col, ncols):
                m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == nrows:
            break
    return rank


def char_poly_coeffs(rows):
    """Coefficients [1, c1, ..., cn] of det(xI - A) by Faddeev-LeVerrier."""
    n = len(rows)
    a = [[int(x) for x in row] for row in rows]

    def mat_mul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]

    coeffs = [1]
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        trace = sum(m[i][i] for i in range(n))
        assert trace % k == 0, "trace division must be exact for integer input"
        c = -(trace // k)
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            m[i][i] += c
        m = mat_mul(a, m)
    return coeffs


def signature_by_descartes(rows):
    """Inertia of a symmetric integer matrix from its characteristic polynomial.

    All eigenvalues are real, so Descartes' rule of signs is exact: the
    number of positive roots equals the sign variations of p(x), negatives
    those of p(-x), and zeros the multiplicity of the root 0.
    """
    coeffs = char_poly_coeffs(rows)  # highest degree first
    rev = list(reversed(coeffs))  # constant term first
    zero = 0
    while rev and rev[0] == 0:
        rev.pop(0)
        zero += 1

    def variations(seq):
        seq = [c for c in seq if c != 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))

    pos = variations(list(reversed(rev)))
    negated = [c if (i % 2 == 0) else -c for i, c in enumerate(rev)]
    neg = variations(list(reversed(negated)))
    return pos, neg, zero


# -- permutations and model complexes ----------------------------------------


def perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def tetrahedron() -> DeltaComplex:
    vertices = [0, 1, 2, 3]
    edges = {(i, j): (i, j) for i, j in itertools.combinations(range(4), 2)}
    triangles = {
        (a, b, c): ((a, b, c), ((a, b), (b, c), (a, c)))
        for a, b, c in itertools.combinations(range(4), 3)
    }
    return DeltaComplex(vertices, edges, triangles)


_ANTIPODES = {0: 5, 5: 0, 1: 4, 4: 1, 2: 3, 3: 2}


def octahedron() -> DeltaComplex:
    vertices = list(range(6))
    edges = {
        (i, j): (i, j)
        for i, j in itertools.combinations(range(6), 2)
        if _ANTIPODES[i] != j
    }
    triangles = {}
    for a, b, c in itertools.combinations(range(6), 3):
        if _ANTIPODES[a] in (b, c) or _ANTIPODES[b] == c:
            continue
        triangles[(a, b, c)] = ((a, b, c), ((a, b), (b, c), (a, c)))
    return DeltaComplex(vertices, edges, triangles)


def _simplicial(n, triples, sep="") -> DeltaComplex:
    """The complex on vertices 0..n-1 whose triangles are the given vertex
    triples, each side along the edge between its ends. Edge ids "ab" and
    triangle ids "abc" (joined by sep) are strings, so the complex
    round-trips through JSON."""
    edges, triangles = {}, {}
    for a, b, c in map(sorted, triples):
        for x, y in ((a, b), (b, c), (a, c)):
            edges[f"{x}{sep}{y}"] = (x, y)
        triangles[f"{a}{sep}{b}{sep}{c}"] = ((a, b, c), (f"{a}{sep}{b}", f"{b}{sep}{c}", f"{a}{sep}{c}"))
    return DeltaComplex(range(n), edges, triangles)


def seven_vertex_torus() -> DeltaComplex:
    """Moebius' minimal torus: 14 triangles {i, i+1, i+3}, {i, i+2, i+3} mod 7
    on all 21 edges of K7; h = (1, 2, 1)."""
    return _simplicial(7, [(i, (i + d) % 7, (i + 3) % 7) for i in range(7) for d in (1, 2)])


def six_vertex_rp2() -> DeltaComplex:
    """The hemi-icosahedron, the minimal RP^2: 10 triangles on all 15 edges
    of K6, a disc fanned round vertex 0 with antipodal rim points glued;
    h = (1, 0, 0)."""
    return _simplicial(6, [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ])


def pachner_sphere(rng, moves) -> DeltaComplex:
    """A random simplicial 2-sphere: the tetrahedron's boundary after the given
    number of bistellar moves, each a 1-3 move (a new vertex inside a random
    triangle) or a 2-2 move (two triangles on a random edge ab, acb and abd,
    become acd and bcd; skipped when the edge cd exists already). Vertex
    degrees end up irregular. Ids are joined by "-", so vertex 12 stays apart
    from vertices 1 and 2."""
    triangles = {frozenset(t) for t in itertools.combinations(range(4), 3)}
    n = 4
    for _ in range(moves):
        t = rng.choice(sorted(triangles, key=sorted))
        if rng.random() < 0.5:
            a, b, c = sorted(t)
            triangles -= {t}
            triangles |= {frozenset((a, b, n)), frozenset((b, c, n)), frozenset((a, c, n))}
            n += 1
            continue
        ab = frozenset(rng.sample(sorted(t), 2))
        (other,) = [u for u in triangles if ab < u and u != t]
        cd = (t | other) - ab
        if not any(cd < u for u in triangles):
            triangles -= {t, other}
            triangles |= {cd | {x} for x in ab}
    return _simplicial(n, [tuple(t) for t in triangles], sep="-")


def vertex_automorphism(complex_: DeltaComplex, vertex_map) -> ComplexAutomorphism:
    """The automorphism a vertex bijection induces when the edge and triangle
    images are forced by endpoints, built through the validating constructor;
    InvalidComplex on multi-edges, repeated triangles or a map that breaks
    incidence."""
    by_ends = {}
    for eid, (a, b) in complex_.edges.items():
        key = frozenset((a, b)) if a != b else (a,)
        if key in by_ends:
            raise InvalidComplex("multi-edge: vertex map does not determine edge map")
        by_ends[key] = eid
    edge_map = {}
    for eid, (a, b) in complex_.edges.items():
        ia, ib = vertex_map[a], vertex_map[b]
        key = frozenset((ia, ib)) if ia != ib else (ia,)
        if key not in by_ends:
            raise InvalidComplex(f"vertex map sends edge {eid!r} to a non-edge")
        edge_map[eid] = by_ends[key]
    by_verts = {}
    for tid, (verts, _) in complex_.triangles.items():
        key = frozenset(verts)
        if key in by_verts:
            raise InvalidComplex("repeated triangle: vertex map does not determine triangle map")
        by_verts[key] = tid
    triangle_map = {}
    for tid, (verts, _) in complex_.triangles.items():
        key = frozenset(vertex_map[v] for v in verts)
        if key not in by_verts:
            raise InvalidComplex(f"vertex map sends triangle {tid!r} to a non-triangle")
        triangle_map[tid] = by_verts[key]
    return ComplexAutomorphism(complex_, vertex_map, edge_map, triangle_map)


def compose(g: ComplexAutomorphism, h: ComplexAutomorphism) -> ComplexAutomorphism:
    """g after h on each kind of cell, built through the validating constructor."""
    return ComplexAutomorphism(
        g.complex,
        {v: g.vertex_map[w] for v, w in h.vertex_map.items()},
        {e: g.edge_map[f] for e, f in h.edge_map.items()},
        {t: g.triangle_map[u] for t, u in h.triangle_map.items()},
    )


def vertex_symmetries(complex_: DeltaComplex):
    """All automorphisms induced by vertex permutations (no multi-edges)."""
    edge_sets = {frozenset(pair) for pair in complex_.edges.values()}
    tri_sets = {frozenset(verts) for verts, _ in complex_.triangles.values()}
    out = []
    for perm in itertools.permutations(complex_.vertices):
        vmap = dict(zip(complex_.vertices, perm))
        if any(frozenset((vmap[a], vmap[b])) not in edge_sets for a, b in complex_.edges.values()):
            continue
        if any(
            frozenset(vmap[v] for v in verts) not in tri_sets
            for verts, _ in complex_.triangles.values()
        ):
            continue
        out.append(vertex_automorphism(complex_, vmap))
    return out


# -- surfaces from raw incidence data -----------------------------------------
# edges: id -> (tail, head); triangles: id -> (vertices, edges, signs) with every
# side sign explicit. Nothing here reads DeltaComplex's own incidence index.


def is_connected(nodes, pairs) -> bool:
    """Whether the nodes form one nonempty class once each (a, b) pair is
    joined: a bare union-find, without the library's path halving."""
    root = {x: x for x in nodes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in pairs:
        root[find(a)] = find(b)
    return len({find(x) for x in nodes}) == 1


def link_is_cycle(vertex, edges, triangles) -> bool:
    """Whether the link of a vertex is one cycle: its nodes are the edge-ends
    at the vertex, and each triangle corner there is an arc from the end
    where the arriving side ends to the end where the leaving side starts."""
    nodes = [(e, end) for e, pair in edges.items() for end in (0, 1) if pair[end] == vertex]
    adjacency = {node: [] for node in nodes}
    for verts, tri_edges, signs in triangles.values():
        for i in range(3):
            if verts[i] != vertex:
                continue
            j = (i + 2) % 3  # side j runs from verts[j] into verts[i]
            arrive = (tri_edges[j], 1 if signs[j] == 1 else 0)
            leave = (tri_edges[i], 0 if signs[i] == 1 else 1)
            adjacency[arrive].append(leave)
            adjacency[leave].append(arrive)
    if not nodes or any(len(arcs) != 2 for arcs in adjacency.values()):
        return False
    seen, stack = {nodes[0]}, [nodes[0]]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(nodes)


def raw_homology(vertices, edges, triangles):
    """Rational Betti numbers from boundary matrices built here, ranked by frac_rank."""
    v_index = {v: i for i, v in enumerate(vertices)}
    e_index = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in vertices]
    for e, (a, b) in edges.items():
        d1[v_index[a]][e_index[e]] -= 1
        d1[v_index[b]][e_index[e]] += 1
    d2 = [[0] * len(triangles) for _ in edges]
    for col, (_, tri_edges, signs) in enumerate(triangles.values()):
        for e, s in zip(tri_edges, signs):
            d2[e_index[e]][col] += s
    r1, r2 = frac_rank(d1), frac_rank(d2)
    return len(vertices) - r1, len(edges) - r1 - r2, len(triangles) - r2


def is_sphere(vertices, edges, triangles) -> bool:
    """A closed surface (every edge on two sides, every link one cycle) with
    the rational homology of the 2-sphere."""
    sides = {e: 0 for e in edges}
    for _, tri_edges, _ in triangles.values():
        for e in tri_edges:
            sides[e] += 1
    return (
        all(n == 2 for n in sides.values())
        and all(link_is_cycle(v, edges, triangles) for v in vertices)
        and raw_homology(vertices, edges, triangles) == (1, 0, 1)
    )


def random_delta_complex(rng) -> DeltaComplex:
    """A random valid loop-free Delta-complex, possibly with multi-edges,
    floating edges, and isolated vertices."""
    nv = rng.randint(1, 8)
    vertices = list(range(nv))
    edges = {}

    def add_edge(a, b):
        eid = len(edges)
        edges[eid] = (a, b) if rng.random() < 0.5 else (b, a)
        return eid

    for _ in range(rng.randint(0, 4)):
        if nv >= 2:
            a, b = rng.sample(vertices, 2)
            add_edge(a, b)

    triangles = {}
    if nv >= 3:
        for t in range(rng.randint(0, 6)):
            v0, v1, v2 = rng.sample(vertices, 3)
            tri_edges = []
            for a, b in ((v0, v1), (v1, v2), (v2, v0)):
                parallel = [e for e, (x, y) in edges.items() if {x, y} == {a, b}]
                if parallel and rng.random() < 0.5:
                    tri_edges.append(rng.choice(parallel))
                else:
                    tri_edges.append(add_edge(a, b))
            triangles[f"t{t}"] = ((v0, v1, v2), tuple(tri_edges))
    return DeltaComplex(vertices, edges, triangles)


def subdivide(c: DeltaComplex) -> DeltaComplex:
    """Midpoint subdivision of a loop-free complex: every edge splits in two
    at a new vertex and every triangle into four. Ids become integers."""
    index = {v: k for k, v in enumerate(c.vertices)}
    vertices = list(index.values())
    edges, mid, half = {}, {}, {}  # half[e, v]: the half of edge e at its end v
    for e, (a, b) in c.edges.items():
        mid[e] = m = len(vertices)
        vertices.append(m)
        for end, pair in ((a, (index[a], m)), (b, (m, index[b]))):
            half[e, end] = len(edges)
            edges[len(edges)] = pair
    triangles = {}
    for verts, tri_edges in c.triangles.values():
        m = [mid[e] for e in tri_edges]  # m[i] splits side i, from verts[i] to verts[i + 1]
        inner = []  # inner[i] joins m[i - 1] and m[i]
        for i in range(3):
            inner.append(len(edges))
            edges[len(edges)] = (m[i - 1], m[i])
        for i in range(3):  # the corner at verts[i]
            triangles[len(triangles)] = (
                (m[i - 1], index[verts[i]], m[i]),
                (half[tri_edges[i - 1], verts[i]], half[tri_edges[i], verts[i]], inner[i]),
            )
        triangles[len(triangles)] = ((m[0], m[1], m[2]), (inner[1], inner[2], inner[0]))
    return DeltaComplex(vertices, edges, triangles)


def random_glued_complex(rng):
    """Raw (vertices, edges, triangles) with every side sign explicit: up to 4
    vertices and 14 triangles whose sides reuse a parallel edge (or loop) 80 %
    of the time, so edges lie on many sides, twice on one triangle, or on
    loops with random signs."""
    vertices = list(range(rng.randint(1, 4)))
    edges, triangles = {}, {}
    for t in range(rng.randint(0, 14)):
        verts = tuple(rng.choice(vertices) for _ in range(3))
        tri_edges, signs = [], []
        for i in range(3):
            a, b = verts[i], verts[(i + 1) % 3]
            parallel = [e for e, (x, y) in edges.items() if {x, y} == {a, b}]
            if parallel and rng.random() < 0.8:
                e = rng.choice(parallel)
            else:
                e = len(edges)
                edges[e] = (a, b) if rng.random() < 0.5 else (b, a)
            tri_edges.append(e)
            signs.append(rng.choice((1, -1)) if a == b else 1 if edges[e] == (a, b) else -1)
        triangles[f"t{t}"] = (verts, tuple(tri_edges), tuple(signs))
    return vertices, edges, triangles


# -- fibers from raw strata ----------------------------------------------------


def fiber(components, double_curves=(), triple_points=()) -> SNCSurface:
    """The fiber with these payload cells, read by SNCSurface.from_json_dict."""
    return SNCSurface.from_json_dict(
        {"components": list(components), "double_curves": list(double_curves), "triple_points": list(triple_points)}
    )


def surface_json(s: SNCSurface) -> dict:
    """The payload dict of a fiber, read back from its columns: what
    SNCSurface.from_json_dict reads, and what classify-fiber echoes."""
    ends, on = s.ends, s.point_curves
    return {
        "components": [
            {
                "id": cid,
                "b1": b1,
                **({"b2": b2} if b2 is not None else {}),
                **({"kind": kind} if kind is not None else {}),
            }
            for cid, b1, b2, kind in zip(s.component_ids, s.b1, s.b2, s.kinds)
        ],
        "double_curves": [
            {"id": cid, "components": ends[2 * k:2 * k + 2], "genus": g}
            for k, (cid, g) in enumerate(zip(s.curve_ids, s.genus))
        ],
        "triple_points": [{"id": pid, "curves": on[3 * k:3 * k + 3]} for k, pid in enumerate(s.point_ids)],
    }


def fiber_triangle(point_id, curve_ids, curves):
    """The dual triangle of a triple point, where curves maps each double
    curve id to its (first, second) component: (vertices, signs), side i
    running along curve i from vertices[i] to vertices[i + 1], with sign +1
    when that is the curve's stored direction. Raises SNCSurface's ValueError
    when the curves do not bound a triangle."""
    if not all(x in curves for x in curve_ids):
        raise ValueError(f"triple point {point_id!r} references an unknown double curve")
    pairs = list(zip(curve_ids, curve_ids[1:] + curve_ids[:1]))
    for x, y in pairs:
        met = [c for c in curves[x] if c in curves[y]]
        if len(met) != 1:
            raise ValueError(
                f"triple point {point_id!r}: curves {x!r} and {y!r} share {len(met)} components, expected exactly 1"
            )
    # neighbouring curves meet once, so three curves on three components close up a triangle
    if len({c for x in curve_ids for c in curves[x]}) != 3:
        raise ValueError(f"triple point {point_id!r}: incident components are not distinct")
    vertices = tuple(next(c for c in curves[x] if c not in curves[y]) for x, y in pairs)
    return vertices, tuple(1 if curves[x][0] == v else -1 for x, v in zip(curve_ids, vertices))


def e1_by_strata(s: SNCSurface) -> dict:
    """e1_page's grid by its defining sum: entry (p, q) adds, over i >=
    max(0, -p), the (q - 2i)-th Betti number of the codimension-(p + 2i)
    stratum. Needs b2 on every component."""
    n, curves, b1 = len(s.component_ids), len(s.curve_ids), sum(s.b1)
    betti = {
        0: (n, b1, sum(s.b2), b1, n),  # disjoint smooth proper surfaces: b3 = b1, b4 = b0
        1: (curves, 2 * sum(s.genus), curves, 0, 0),
        2: (len(s.point_ids), 0, 0, 0, 0),
    }
    grid = {}
    for p in range(-2, 3):
        for q in range(0, 5):
            total = 0
            for i in range(max(0, -p), 3):
                stratum = p + 2 * i
                degree = q - 2 * i
                if stratum in betti and 0 <= degree < 5:
                    total += betti[stratum][degree]
            grid[(p, q)] = total
    return grid


def _rational(c) -> bool:
    return c["b1"] == 0 and c.get("kind") in (None, "rational")


def _elliptic_ruled(c) -> bool:
    return c["b1"] == 2 and c.get("kind") in (None, "elliptic_ruled")


def _type1_reason(comps, curves):
    if len(comps) != 1:
        return f"{len(comps)} components, expected 1"
    if curves:
        return "has double curves"
    (c,) = comps
    if c.get("kind") not in (None, "k3"):
        return f"component kind is {c['kind']!r}, expected k3"
    if c["b1"] != 0:
        return f"component has b1 = {c['b1']}, expected 0"
    if c.get("b2") not in (None, 22):
        return f"component has b2 = {c['b2']}, expected 22"
    return None


def _type2_reason(comps, curves, points):
    """A chain: its ends found by degree, its order by distance from the first
    end in component order, connectivity by the bare union-find."""
    n = len(comps)
    if n < 2:
        return "fewer than 2 components"
    if points:
        return "has triple points"
    for d in curves:
        if d["genus"] != 1:
            return f"double curve {d['id']!r} has genus {d['genus']}, expected 1"
    for k, d in enumerate(curves):
        if any(set(e["components"]) == set(d["components"]) for e in curves[:k]):
            a, b = d["components"]
            return f"components {a!r} and {b!r} meet in more than one curve (dual graph not a path)"
    if len(curves) != n - 1:
        return f"{len(curves)} double curves, a chain of {n} needs {n - 1}"
    ids = [c["id"] for c in comps]
    degree = {x: sum(x in d["components"] for d in curves) for x in ids}
    ends = [x for x in ids if degree[x] == 1]
    if len(ends) != 2 or max(degree.values()) > 2:
        return "dual graph is not a path"
    if not is_connected(ids, [d["components"] for d in curves]):
        return "dual graph is not connected"
    distance, frontier = {ends[0]: 0}, [ends[0]]
    while frontier:
        x = frontier.pop()
        for a, b in (d["components"] for d in curves):
            for y, z in ((a, b), (b, a)):
                if y == x and z not in distance:
                    distance[z] = distance[x] + 1
                    frontier.append(z)
    by_id = dict(zip(ids, comps))
    order = sorted(ids, key=distance.__getitem__)
    for x in (order[0], order[-1]):
        if not _rational(by_id[x]):
            return f"end component {x!r} is not rational (b1 = 0)"
    for x in order[1:-1]:
        if not _elliptic_ruled(by_id[x]):
            return f"interior component {x!r} is not elliptic ruled (b1 = 2)"
    return None


def _sphere_reason(vertices, edges, triangles):
    """sphere_failure's reason, from the raw cells: a connected closed surface
    whose links are cycles is orientable iff h2 = 1 over Q, and then a sphere
    iff its Euler characteristic is 2."""
    if not vertices or not triangles:
        return "empty complex or no triangles"
    if not is_connected(vertices, edges.values()):
        return "not connected"
    for e in edges:
        sides = sum(tri_edges.count(e) for _, tri_edges, _ in triangles.values())
        if sides != 2:
            return f"edge {e!r} lies on {sides} triangle sides, expected 2"
    for v in vertices:
        if not link_is_cycle(v, edges, triangles):
            return f"link of vertex {v!r} is not a single circle"
    if is_sphere(vertices, edges, triangles):
        return None
    if raw_homology(vertices, edges, triangles)[2] != 1:
        return "not orientable"
    return f"Euler characteristic is {len(vertices) - len(edges) + len(triangles)}, expected 2"


def _type3_reason(comps, curves, triangles):
    for c in comps:
        if not _rational(c):
            return f"component {c['id']!r} is not rational (b1 = 0)"
    for d in curves:
        if d["genus"] != 0:
            return f"double curve {d['id']!r} has genus {d['genus']}, expected 0"
    edges = {d["id"]: tuple(d["components"]) for d in curves}
    reason = _sphere_reason([c["id"] for c in comps], edges, triangles)
    return None if reason is None else f"dual complex is not a sphere triangulation: {reason}"


def kulikov_verdict(payload):
    """classify's answer on a valid fiber payload, from its raw cells: the
    type "I", "II" or "III", or the NotKulikov text that names the first
    failed clause of each pattern. Raises SNCSurface's ValueError when a
    triple point does not bound a triangle."""
    comps, curves = payload["components"], payload["double_curves"]
    points = payload.get("triple_points", [])
    ends = {d["id"]: tuple(d["components"]) for d in curves}
    triangles = {}
    for i, p in enumerate(points):
        pid = p.get("id", f"t{i}")
        verts, signs = fiber_triangle(pid, tuple(p["curves"]), ends)
        triangles[pid] = (verts, tuple(p["curves"]), signs)
    if not comps:
        return "empty fiber"
    failures = []
    for name, why in (
        ("I", _type1_reason(comps, curves)),
        ("II", _type2_reason(comps, curves, points)),
        ("III", _type3_reason(comps, curves, triangles)),
    ):
        if why is None:
            return name
        failures.append(f"not Type {name}: {why}")
    return "; ".join(failures)
