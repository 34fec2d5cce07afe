"""Combinatorial semistable K3 fibers: Kulikov classification, the crosscheck
of a type's weight-graded dimensions (KulikovType and grw_dims live in
degeneration) against the dual complex, and first-page dimensions of the
weight spectral sequence.

The input is purely combinatorial: components with first Betti numbers
(second Betti numbers optional), double curves with genera, and triple
points. Kinds (rational / elliptic_ruled / k3) are optional tags; when
absent, rationality is inferred from b1 = 0 and elliptic-ruledness from
b1 = 2, the weakest testable surrogate for the birational conditions.
"""

from __future__ import annotations

from collections import Counter

from . import Refusal
from .degeneration import _GRW_TABLE, KulikovType
from .dualcomplex import _ID_TYPES, DeltaComplex, _known_fields, _read, _require_json_ids, sphere_failure

KINDS = ("rational", "elliptic_ruled", "k3")
_NO_ID = object()  # a triple point given without an id is named t<k>, k its index


class NotKulikov(Refusal):
    """Raised when a fiber matches none of the three Kulikov patterns."""

    summary_prefix = "not a Kulikov fiber: "


class SNCSurface:
    """A simple normal crossing surface given by its strata incidence.

    The cells are stored as columns. Component k has id component_ids[k],
    b1[k], and b2[k] and kinds[k], None where not given; double curve k has id
    curve_ids[k] and genus[k], and joins the components ends[2k] and
    ends[2k + 1], as given; triple point k has id point_ids[k] and lies on the
    double curves point_curves[3k:3k + 3], as given.
    """

    def __init__(self, component_ids, b1, b2, kinds, curve_ids, ends, genus, point_ids=(), point_curves=()):
        self.component_ids, self.b1, self.b2, self.kinds = component_ids, b1, b2, kinds
        self.curve_ids, self.ends, self.genus = curve_ids, ends, genus
        self.point_ids, self.point_curves = point_ids, point_curves

        comp_index = dict(zip(component_ids, range(len(component_ids))))
        if len(comp_index) != len(component_ids):
            raise ValueError("repeated component id")
        curve_index = dict(zip(curve_ids, range(len(curve_ids))))
        if len(curve_index) != len(curve_ids):
            raise ValueError("repeated double curve id")
        if len(set(point_ids)) != len(point_ids):
            raise ValueError("repeated triple point id")

        # curve k joins components iends[2k] and iends[2k + 1]; -1 marks an unknown one
        iends = [comp_index.get(x, -1) for x in ends]
        if -1 in iends:
            raise ValueError(f"double curve {curve_ids[iends.index(-1) // 2]!r} references an unknown component")

        us, vs = iends[::2], iends[1::2]  # curve k runs from us[k] to vs[k]
        tedges = [curve_index.get(x, -1) for x in point_curves]
        signs = []
        for k, pid in enumerate(point_ids):
            e0, e1, e2 = es = tedges[3 * k:3 * k + 3]
            if -1 in es:
                raise ValueError(f"triple point {pid!r} references an unknown double curve")
            u0, v0, u1, v1, u2, v2 = us[e0], vs[e0], us[e1], vs[e1], us[e2], vs[e2]
            # side i runs along curve i forwards iff u_i is not on curve i + 1, and each side
            # must start where the one before it ends
            f0, f1, f2 = u0 != u1 and u0 != v1, u1 != u2 and u1 != v2, u2 != u0 and u2 != v0
            if ((u1 if f1 else v1) != (v0 if f0 else u0) or (u2 if f2 else v2) != (v1 if f1 else u1)
                    or (u0 if f0 else v0) != (v2 if f2 else u2)):
                for i in range(3):  # the first pair of curves i, i + 1 (i - 2 wraps round) that fails
                    common = [x for x in (us[es[i]], vs[es[i]]) if x in (us[es[i - 2]], vs[es[i - 2]])]
                    if len(common) != 1:
                        raise ValueError(
                            f"triple point {pid!r}: curves {curve_ids[es[i]]!r} and "
                            f"{curve_ids[es[i - 2]]!r} share {len(common)} components, expected exactly 1"
                        )
                # each pair of curves meets once, so the three meeting points repeat
                raise ValueError(f"triple point {pid!r}: incident components are not distinct")
            signs += (1 if f0 else -1, 1 if f1 else -1, 1 if f2 else -1)
        # DeltaComplex's checks follow from these, so they are not run again: ids are unique,
        # each curve joins two distinct known components (no unknown end, no loop), and each
        # point's curves pairwise share exactly one component (so side i's edge joins corners i, i + 1)
        self._complex = DeltaComplex.__new__(DeltaComplex)._build(
            tuple(component_ids), curve_ids, iends, point_ids, tedges, signs
        )

    def dual_complex(self) -> DeltaComplex:
        """Vertex per component, edge per double curve, triangle per triple point."""
        return self._complex

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "SNCSurface":
        _known_fields(data, ("components", "double_curves", "triple_points"))
        (ids, b1, b2, kinds), fault = _read(data, "components", ("id", "b1", "b2?", "kind?"))
        for cid, x, y, kind in zip(ids, b1, b2, kinds):
            # JSON true and 2.0 are not integers, however Python compares them
            if type(x) is not int:
                raise ValueError(f"component {cid!r}: b1 must be an integer, got {x!r}")
            if y is not None and type(y) is not int:
                raise ValueError(f"component {cid!r}: b2 must be an integer, got {y!r}")
            if x < 0 or (y is not None and y < 0):
                raise ValueError(f"component {cid!r}: Betti numbers must be nonnegative")
            if kind is not None and kind not in KINDS:
                raise ValueError(f"component {cid!r}: unknown kind {kind!r}")
        if fault:
            raise fault
        (curve_ids, pairs, genus), fault = _read(data, "double_curves", ("id", "components[]", "genus"))
        for cid, pair, g in zip(curve_ids, pairs, genus):
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(f"double curve {cid!r} must join two distinct components")
            if type(g) is not int:
                raise ValueError(f"double curve {cid!r}: genus must be an integer, got {g!r}")
            if g < 0:
                raise ValueError(f"double curve {cid!r}: genus must be nonnegative")
        if fault:
            raise fault
        (given, on), fault = _read(data, "triple_points?", ("id?", "curves[]"), _NO_ID)
        point_ids = [f"t{t}" if pid is _NO_ID else pid for t, pid in enumerate(given)]
        for pid, c in zip(point_ids, on):
            if len(c) != 3 or c[0] == c[1] or c[1] == c[2] or c[0] == c[2]:
                raise ValueError(f"triple point {pid!r} needs three distinct double curves")
        if fault:
            raise fault
        ends = [x for pair in pairs for x in pair]
        point_curves = [x for c in on for x in c]
        if not all(_ID_TYPES.issuperset(map(type, column)) for column in (ids, curve_ids, ends, point_ids, point_curves)):
            # the first offending id, in payload order
            _require_json_ids(
                ids,
                [x for k, cid in enumerate(curve_ids) for x in (cid, *ends[2 * k:2 * k + 2])],
                [x for t, pid in enumerate(point_ids) for x in (pid, *point_curves[3 * t:3 * t + 3])],
            )
        if _NO_ID in given:  # a default name may be another point's id; the constructor words true repeats
            taken = set(given)
            for k, pid in enumerate(given):
                if pid is _NO_ID and point_ids[k] in taken:
                    raise ValueError(f"triple_points[{k}] has no id, and its default id {point_ids[k]!r} is another point's id")
        return cls(ids, b1, b2, kinds, curve_ids, ends, genus, point_ids, point_curves)


def _is_rational(b1, kind) -> bool:
    return b1 == 0 and kind in (None, "rational")


def _is_elliptic_ruled(b1, kind) -> bool:
    return b1 == 2 and kind in (None, "elliptic_ruled")


def _type1_failure(s: SNCSurface):
    if len(s.component_ids) != 1:
        return f"{len(s.component_ids)} components, expected 1"
    if s.curve_ids:
        return "has double curves"
    (b1,), (b2,), (kind,) = s.b1, s.b2, s.kinds
    if kind not in (None, "k3"):
        return f"component kind is {kind!r}, expected k3"
    if b1 != 0:
        return f"component has b1 = {b1}, expected 0"
    if b2 is not None and b2 != 22:
        return f"component has b2 = {b2}, expected 22"
    return None


def _type2_failure(s: SNCSurface):
    """Why the fiber is not a Type II chain, or None. The chain is read off the degrees of
    the curve ends and connectivity off the dual complex's component count, kept for
    homology_dims; the path is walked, from its end of lower index, only to name a failure."""
    n = len(s.component_ids)
    if n < 2:
        return "fewer than 2 components"
    if s.point_ids:
        return "has triple points"
    for cid, g in zip(s.curve_ids, s.genus):
        if g != 1:
            return f"double curve {cid!r} has genus {g}, expected 1"
    ends = s.dual_complex()._ends  # by component index
    pairs = [(a, b) if a < b else (b, a) for a, b in zip(ends[::2], ends[1::2])]
    if len(set(pairs)) != len(pairs):
        seen = set()  # the first curve whose pair repeats; set.add returns None
        k = next(k for k, pair in enumerate(pairs) if pair in seen or seen.add(pair))
        return f"components {s.ends[2 * k]!r} and {s.ends[2 * k + 1]!r} meet in more than one curve (dual graph not a path)"
    if len(pairs) != n - 1:
        return f"{len(pairs)} double curves, a chain of {n} needs {n - 1}"
    degree = Counter(ends)
    tips = [v for v in range(n) if degree[v] == 1]
    if len(tips) != 2 or max(degree.values()) > 2:
        return "dual graph is not a path"
    # n - 1 curves, two tips and no degree above 2: a path, plus cycles unless connected
    if s.dual_complex().component_count() != 1:
        return "dual graph is not connected"
    ids, b1, kinds = s.component_ids, s.b1, s.kinds
    for v in tips:
        if not _is_rational(b1[v], kinds[v]):
            return f"end component {ids[v]!r} is not rational (b1 = 0)"
    if all(_is_elliptic_ruled(b1[v], kinds[v]) for v in range(n) if degree[v] == 2):
        return None
    link = [0] * n  # the XOR of each component's neighbours: the one after v, from prev, is link[v] ^ prev
    for a, b in pairs:
        link[a] ^= b
        link[b] ^= a
    prev, v = tips[0], link[tips[0]]
    while _is_elliptic_ruled(b1[v], kinds[v]):
        prev, v = v, link[v] ^ prev
    return f"interior component {ids[v]!r} is not elliptic ruled (b1 = 2)"


def _type3_failure(s: SNCSurface):
    for cid, b1, kind in zip(s.component_ids, s.b1, s.kinds):
        if not _is_rational(b1, kind):
            return f"component {cid!r} is not rational (b1 = 0)"
    for cid, g in zip(s.curve_ids, s.genus):
        if g != 0:
            return f"double curve {cid!r} has genus {g}, expected 0"
    reason = sphere_failure(s.dual_complex())
    if reason is not None:
        return f"dual complex is not a sphere triangulation: {reason}"
    return None


def classify(s: SNCSurface) -> KulikovType:
    """Match the fiber against the Type I / II / III patterns.

    Raises NotKulikov when none fits, naming the first violated clause of
    each pattern.
    """
    if not s.component_ids:
        raise NotKulikov("empty fiber")
    failures = []
    for t, probe in (
        (KulikovType.I, _type1_failure),
        (KulikovType.II, _type2_failure),
        (KulikovType.III, _type3_failure),
    ):
        reason = probe(s)
        if reason is None:
            return t
        failures.append(f"not Type {t}: {reason}")
    raise NotKulikov("; ".join(failures))


def e1_page(s: SNCSurface) -> list[list[int]]:
    """First-page dimensions of the weight spectral sequence of the fiber.

    Row p + 2, p in -2..2, lists the entries q = 0..4. Entry (p, q) is the
    sum over i >= max(0, -p) of the (q - 2i)-th Betti number of the
    codimension-(p + 2i) stratum; Tate twists do not change dimensions. Only
    strata 0, 1 and 2 are nonempty, so the rows are written out. Requires b2
    on every component.
    """
    if None in s.b2:
        raise ValueError(f"component {s.component_ids[s.b2.index(None)]!r} has no b2")
    # codim-0 stratum: disjoint smooth proper surfaces, so b3 = b1, b4 = b0
    n, c, t, b1, g2 = len(s.component_ids), len(s.curve_ids), len(s.point_ids), sum(s.b1), 2 * sum(s.genus)
    return [
        [0, 0, 0, 0, t],
        [0, 0, c, g2, c],
        [n, b1, sum(s.b2) + t, b1, n],
        [c, g2, c, 0, 0],
        [t, 0, 0, 0, 0],
    ]


def crosscheck(s: SNCSurface) -> tuple[KulikovType, dict]:
    """Classify, then verify the weight table against the dual complex.

    Returns the type and the report classify-fiber prints under
    "crosscheck": {"type", "all_passed", "checks": [{"name", "passed", "detail"}]}.
    """
    t = classify(s)
    dims = _GRW_TABLE[t]
    duality = all(dims[n] == dims[4 - n] for n in range(5)) and sum(dims) == 22
    checks = [{"name": "grw_duality_and_total", "passed": duality, "detail": f"dims={list(dims)}, sum={sum(dims)}"}]
    h2 = s.dual_complex().homology_dims()[2]
    if t is KulikovType.III:
        checks.append({
            "name": "type3_top_weight_is_dual_complex_h2",
            "passed": h2 == 1 and dims[4] == 1 and dims[0] == 1,
            "detail": f"h2(dual complex)={h2}, dims[4]={dims[4]}, dims[0]={dims[0]}",
        })
    else:
        checks.append({"name": "dual_complex_h2_vanishes", "passed": h2 == 0, "detail": f"h2(dual complex)={h2}"})
    return t, {"type": str(t), "all_passed": all(c["passed"] for c in checks), "checks": checks}
