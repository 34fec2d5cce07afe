"""Combinatorial semistable K3 fibers: Kulikov classification, weight-graded
dimension tables, and first-page dimensions of the weight spectral sequence.

The input is purely combinatorial: components with first Betti numbers
(second Betti numbers optional), double curves with genera, and triple
points. Kinds (rational / elliptic_ruled / k3) are optional tags; when
absent, rationality is inferred from b1 = 0 and elliptic-ruledness from
b1 = 2, the weakest testable surrogate for the birational conditions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .dualcomplex import DeltaComplex, _json_array, _require_json_ids, sphere_failure

KINDS = ("rational", "elliptic_ruled", "k3")


class NotKulikov(Exception):
    """Raised when a fiber matches none of the three Kulikov patterns."""


class MissingBetti(Exception):
    """Raised when an operation needs b2 data that a component lacks."""


class KulikovType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"

    def __str__(self):
        return self.value


def _require_int(cell, cell_id, field, value):
    # JSON true and 2.0 are not integers, however Python compares them
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{cell} {cell_id!r}: {field} must be an integer, got {value!r}")


# slots: a fiber holds one instance per cell, so no per-instance __dict__
@dataclass(frozen=True, slots=True)
class Component:
    id: object
    b1: int
    b2: int | None = None
    kind: str | None = None

    def __post_init__(self):
        _require_int("component", self.id, "b1", self.b1)
        if self.b2 is not None:
            _require_int("component", self.id, "b2", self.b2)
        if self.b1 < 0 or (self.b2 is not None and self.b2 < 0):
            raise ValueError(f"component {self.id!r}: Betti numbers must be nonnegative")
        if self.kind is not None and self.kind not in KINDS:
            raise ValueError(f"component {self.id!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class DoubleCurve:
    id: object
    components: tuple
    genus: int

    def __post_init__(self):
        if len(self.components) != 2 or self.components[0] == self.components[1]:
            raise ValueError(f"double curve {self.id!r} must join two distinct components")
        _require_int("double curve", self.id, "genus", self.genus)
        if self.genus < 0:
            raise ValueError(f"double curve {self.id!r}: genus must be nonnegative")


@dataclass(frozen=True, slots=True)
class TriplePoint:
    id: object
    curves: tuple

    def __post_init__(self):
        if len(self.curves) != 3 or len(set(self.curves)) != 3:
            raise ValueError(f"triple point {self.id!r} needs three distinct double curves")


class SNCSurface:
    """A simple normal crossing surface given by its strata incidence."""

    def __init__(self, components, double_curves, triple_points=()):
        self.components = tuple(components)
        self.double_curves = tuple(double_curves)
        self.triple_points = tuple(triple_points)

        comp_ids = tuple(c.id for c in self.components)
        comp_index = {cid: k for k, cid in enumerate(comp_ids)}
        if len(comp_index) != len(comp_ids):
            raise ValueError("repeated component id")
        curve_index = {d.id: k for k, d in enumerate(self.double_curves)}
        if len(curve_index) != len(self.double_curves):
            raise ValueError("repeated double curve id")
        if len({t.id for t in self.triple_points}) != len(self.triple_points):
            raise ValueError("repeated triple point id")

        # curve k joins components ends[2k] and ends[2k + 1]; -1 marks an unknown one
        ends = [comp_index.get(x, -1) for d in self.double_curves for x in d.components]
        if -1 in ends:
            raise ValueError(f"double curve {self.double_curves[ends.index(-1) // 2].id!r} references an unknown component")

        pairs = list(zip(ends[::2], ends[1::2]))
        tedges, signs = [], []
        for t in self.triple_points:
            try:
                es = [curve_index[x] for x in t.curves]
            except KeyError:
                raise ValueError(f"triple point {t.id!r} references an unknown double curve") from None
            (a0, b0), (a1, b1), (a2, b2) = p0, p1, p2 = [pairs[e] for e in es]
            # side i runs along curve i forwards iff its first end is not on curve i + 1
            f0, f1, f2 = a0 not in p1, a1 not in p2, a2 not in p0
            tails = (a0 if f0 else b0), (a1 if f1 else b1), (a2 if f2 else b2)
            heads = (b0 if f0 else a0), (b1 if f1 else a1), (b2 if f2 else a2)
            if tails != (heads[2], heads[0], heads[1]):  # each side must start where the last one ends
                for i in range(3):  # the first pair of curves i, i + 1 (i - 2 wraps round) that fails
                    common = [x for x in pairs[es[i]] if x in pairs[es[i - 2]]]
                    if len(common) != 1:
                        raise ValueError(
                            f"triple point {t.id!r}: curves {self.double_curves[es[i]].id!r} and "
                            f"{self.double_curves[es[i - 2]].id!r} share {len(common)} components, expected exactly 1"
                        )
                # each pair of curves meets once, so the three meeting points repeat
                raise ValueError(f"triple point {t.id!r}: incident components are not distinct")
            tedges += es
            signs += (1 if f0 else -1, 1 if f1 else -1, 1 if f2 else -1)
        # DeltaComplex's checks follow from these, so they are not run again: ids are unique,
        # each curve joins two distinct known components (no unknown end, no loop), and each
        # point's curves pairwise share exactly one component (so side i's edge joins corners i, i + 1)
        self._complex = DeltaComplex.__new__(DeltaComplex)._build(
            comp_ids, list(curve_index), ends, [t.id for t in self.triple_points], tedges, signs
        )

    def dual_complex(self) -> DeltaComplex:
        """Vertex per component, edge per double curve, triangle per triple point."""
        return self._complex

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {
                    "id": c.id,
                    "b1": c.b1,
                    **({"b2": c.b2} if c.b2 is not None else {}),
                    **({"kind": c.kind} if c.kind is not None else {}),
                }
                for c in self.components
            ],
            "double_curves": [
                {"id": d.id, "components": list(d.components), "genus": d.genus}
                for d in self.double_curves
            ],
            "triple_points": [{"id": t.id, "curves": list(t.curves)} for t in self.triple_points],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SNCSurface":
        try:
            components = [
                Component(c["id"], c["b1"], c.get("b2"), c.get("kind"))
                for c in _json_array(ValueError, "components", data["components"])
            ]
            curves = [
                DoubleCurve(
                    d["id"], _json_array(ValueError, "double curve components", d["components"]), d["genus"]
                )
                for d in _json_array(ValueError, "double_curves", data["double_curves"])
            ]
            points = _json_array(ValueError, "triple_points", data.get("triple_points", []))
            for t in points:
                if type(t) is not dict:
                    raise ValueError(f"triple_points entries must be JSON objects, got {t!r}")
            points = [
                TriplePoint(t.get("id", f"t{i}"), _json_array(ValueError, "triple point curves", t["curves"]))
                for i, t in enumerate(points)
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed surface payload: {exc}") from exc
        _require_json_ids(
            ValueError,
            [c.id for c in components],
            [x for d in curves for x in (d.id, *d.components)],
            [x for t in points for x in (t.id, *t.curves)],
        )
        return cls(components, curves, points)


_GRW_TABLE = {
    KulikovType.I: (0, 0, 22, 0, 0),
    KulikovType.II: (0, 2, 18, 2, 0),
    KulikovType.III: (1, 0, 20, 0, 1),
}


def grw_dims(t: KulikovType) -> tuple:
    """The weight-graded dimensions of H^2 attached to a Kulikov type, pieces 0..4."""
    return _GRW_TABLE[t]


def _is_rational(c: Component) -> bool:
    return c.b1 == 0 and c.kind in (None, "rational")


def _is_elliptic_ruled(c: Component) -> bool:
    return c.b1 == 2 and c.kind in (None, "elliptic_ruled")


def _type1_failure(s: SNCSurface):
    if len(s.components) != 1:
        return f"{len(s.components)} components, expected 1"
    if s.double_curves:
        return "has double curves"
    c = s.components[0]
    if c.kind not in (None, "k3"):
        return f"component kind is {c.kind!r}, expected k3"
    if c.b1 != 0:
        return f"component has b1 = {c.b1}, expected 0"
    if c.b2 is not None and c.b2 != 22:
        return f"component has b2 = {c.b2}, expected 22"
    return None


def _type2_failure(s: SNCSurface):
    n = len(s.components)
    if n < 2:
        return "fewer than 2 components"
    if s.triple_points:
        return "has triple points"
    for d in s.double_curves:
        if d.genus != 1:
            return f"double curve {d.id!r} has genus {d.genus}, expected 1"
    degree = {c.id: 0 for c in s.components}
    neighbors = {c.id: [] for c in s.components}
    seen_pairs = set()
    for d in s.double_curves:
        a, b = d.components
        pair = frozenset((a, b))
        if pair in seen_pairs:
            return f"components {a!r} and {b!r} meet in more than one curve (dual graph not a path)"
        seen_pairs.add(pair)
        degree[a] += 1
        degree[b] += 1
        neighbors[a].append(b)
        neighbors[b].append(a)
    if len(s.double_curves) != n - 1:
        return f"{len(s.double_curves)} double curves, a chain of {n} needs {n - 1}"
    ends = [cid for cid, deg in degree.items() if deg == 1]
    if len(ends) != 2 or any(deg > 2 for deg in degree.values()):
        return "dual graph is not a path"
    # walk the path to check connectivity and collect the order
    order = [ends[0]]
    prev = None
    while True:
        nxt = [x for x in neighbors[order[-1]] if x != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    if len(order) != n:
        return "dual graph is not connected"
    by_id = {c.id: c for c in s.components}
    for cid in (order[0], order[-1]):
        if not _is_rational(by_id[cid]):
            return f"end component {cid!r} is not rational (b1 = 0)"
    for cid in order[1:-1]:
        if not _is_elliptic_ruled(by_id[cid]):
            return f"interior component {cid!r} is not elliptic ruled (b1 = 2)"
    return None


def _type3_failure(s: SNCSurface):
    for c in s.components:
        if not _is_rational(c):
            return f"component {c.id!r} is not rational (b1 = 0)"
    for d in s.double_curves:
        if d.genus != 0:
            return f"double curve {d.id!r} has genus {d.genus}, expected 0"
    reason = sphere_failure(s.dual_complex())
    if reason is not None:
        return f"dual complex is not a sphere triangulation: {reason}"
    return None


def classify(s: SNCSurface) -> KulikovType:
    """Match the fiber against the Type I / II / III patterns.

    Raises NotKulikov when none fits, naming the first violated clause of
    each pattern.
    """
    if not s.components:
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


def _strata_betti(s: SNCSurface):
    # codim-0 stratum: disjoint smooth proper surfaces, so b3 = b1, b4 = b0
    n = len(s.components)
    b1_sum = sum(c.b1 for c in s.components)
    b2_sum = sum(c.b2 for c in s.components)
    curves = len(s.double_curves)
    genus2_sum = 2 * sum(d.genus for d in s.double_curves)
    points = len(s.triple_points)
    return {
        0: (n, b1_sum, b2_sum, b1_sum, n),
        1: (curves, genus2_sum, curves, 0, 0),
        2: (points, 0, 0, 0, 0),
    }


def e1_page(s: SNCSurface) -> dict:
    """First-page dimensions of the weight spectral sequence of the fiber.

    Entry (p, q), p in -2..2, q in 0..4, is the sum over i >= max(0, -p) of
    the (q - 2i)-th Betti number of the codimension-(p + 2i) stratum; Tate
    twists do not change dimensions. Requires b2 on every component.
    """
    for c in s.components:
        if c.b2 is None:
            raise MissingBetti(f"component {c.id!r} has no b2")
    betti = _strata_betti(s)
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
