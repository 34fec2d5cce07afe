"""Which Kulikov degeneration types a K3 surface admits, given the order of
its non-symplectic automorphisms, its Hodge endomorphism field class, or its
formal Brauer height, plus the dimension bookkeeping for the moduli spaces
of prime-order non-symplectic pairs.

The engine encodes theorem statements, not proofs: every constraint is a
subset of {I, II, III}, and independent constraints intersect. Type I (good
reduction) is never excluded.

The order constraint is derived from grw_dims: the automorphism acts
rationally on each Gr_W piece of the limit cohomology, and the limit 2-form
lies in the top nonzero one (Morrison 1984; Friedman-Scattone 1986), so all
phi(m) conjugates of its eigenvalue zeta_m fit there. The field and height
constraints are stated tables.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from ._record import Record
from .autorders import is_prime
from .cyclotomic import bounded_orders
from .sncfiber import KulikovType, grw_dims

ALL_TYPES = frozenset(KulikovType)


class HodgeFieldClass(enum.Enum):
    """Coarse classes of the Hodge endomorphism field of the transcendental
    lattice; it is always a totally real field or a CM field."""

    RATIONAL = "rational"
    IMAGINARY_QUADRATIC = "imaginary_quadratic"
    CM_DEGREE_GT2 = "cm_degree_gt2"
    TOTALLY_REAL_DEGREE_GT1 = "totally_real_degree_gt1"


# the height of a supersingular surface; a string, so no float enters the engine
INFINITE_HEIGHT = "infinite"


def allowed_types_from_m(m: int) -> frozenset[KulikovType]:
    """Degeneration types compatible with 2-form action of order m.

    Type I always; every other type t when m is in allowed_m_from_type(t).
    That gives {I, II, III} for m in {1, 2}, {I, II} for m in {3, 4, 6},
    and {I} for every other m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return frozenset(t for t in KulikovType if t is KulikovType.I or m in allowed_m_from_type(t))


class FieldConstraint(Record):
    __slots__ = ("allowed", "conditional")

    def __init__(self, allowed: frozenset, conditional: bool):
        self._set(allowed, conditional)


def allowed_types_from_field(e: HodgeFieldClass) -> FieldConstraint:
    """Degeneration types compatible with a Hodge endomorphism field class.

    For CM fields the statement is unconditional (the Hodge conjecture for
    the self-product is known there); for totally real fields of degree > 1
    it is conditional on that conjecture, and the flag records this.
    """
    if e is HodgeFieldClass.RATIONAL:
        return FieldConstraint(ALL_TYPES, conditional=False)
    if e is HodgeFieldClass.IMAGINARY_QUADRATIC:
        return FieldConstraint(frozenset({KulikovType.I, KulikovType.II}), conditional=False)
    if e is HodgeFieldClass.CM_DEGREE_GT2:
        return FieldConstraint(frozenset({KulikovType.I}), conditional=False)
    if e is HodgeFieldClass.TOTALLY_REAL_DEGREE_GT1:
        return FieldConstraint(frozenset({KulikovType.I}), conditional=True)
    raise ValueError(f"unknown field class {e!r}")


@lru_cache(maxsize=None)
def allowed_m_from_type(t: KulikovType) -> frozenset[int]:
    """Orders m that can occur over a special fiber of the given type.

    The phi(m) conjugates of the 2-form's eigenvalue fill at most the top
    nonzero piece of grw_dims(t), so phi(m) <= d_top, capped by the global
    bound phi(m) <= 20: Type III (d_4 = 1) gives {1, 2}, Type II (d_3 = 2)
    gives {1, 2, 3, 4, 6}, and Type I (d_2 = 22) the 20 bound alone.
    """
    d_top = next(d for d in reversed(grw_dims(t)) if d)
    return frozenset(bounded_orders(min(d_top, 20)))


def allowed_types_from_height(h) -> frozenset[KulikovType]:
    """Degeneration types compatible with the formal Brauer group height.

    Type II fibers force height <= 2 and Type III height = 1; height is
    upper semicontinuous, so h >= 3 (or infinite) leaves only Type I.
    """
    if h == INFINITE_HEIGHT:
        return frozenset({KulikovType.I})
    if type(h) is not int or not 1 <= h <= 10:
        raise ValueError(f"height must be an integer in 1..10 or infinite, got {h!r}")
    if h == 1:
        return ALL_TYPES
    if h == 2:
        return frozenset({KulikovType.I, KulikovType.II})
    return frozenset({KulikovType.I})


class Decision(Record):
    """Combined verdict: the intersection of the applicable constraints."""

    __slots__ = ("allowed", "conditional", "reasons", "outside_hypotheses")

    def __init__(
        self, allowed: frozenset, conditional: bool = False, reasons: tuple = (), outside_hypotheses: bool = False
    ):
        self._set(allowed, conditional, reasons, outside_hypotheses)

    def to_json_dict(self) -> dict:
        if self.outside_hypotheses:
            return {
                "status": "outside theorem hypotheses",
                "reasons": list(self.reasons),
            }
        return {
            "allowed": sorted(str(t) for t in self.allowed),
            "conditional": self.conditional,
            "reasons": list(self.reasons),
        }


def combine(m=None, e=None, h=None, residue_char=None) -> Decision:
    """Intersect the constraints from order, field class, and height.

    Residue characteristic 2 falls outside the hypotheses of the order
    constraint, so such inputs get an explicit out-of-scope status instead
    of a set. At least one constraint must be supplied.
    """
    if m is None and e is None and h is None:
        raise ValueError("at least one of m, e, h is required")
    if residue_char is not None and not is_prime(residue_char):
        raise ValueError(f"residue characteristic must be a prime, got {residue_char}")
    if residue_char == 2:
        return Decision(
            frozenset(),
            reasons=("residue characteristic 2 is outside the hypotheses of the order constraint",),
            outside_hypotheses=True,
        )
    allowed = ALL_TYPES
    conditional = False
    reasons = []
    if m is not None:
        types = allowed_types_from_m(m)
        allowed &= types
        reasons.append(f"order m = {m} allows {{{', '.join(sorted(str(t) for t in types))}}}")
    if e is not None:
        constraint = allowed_types_from_field(e)
        allowed &= constraint.allowed
        conditional = conditional or constraint.conditional
        reasons.append(
            f"field class {e.value} allows "
            f"{{{', '.join(sorted(str(t) for t in constraint.allowed))}}}"
            + (" (conditional on the Hodge conjecture)" if constraint.conditional else "")
        )
    if h is not None:
        types = allowed_types_from_height(h)
        allowed &= types
        reasons.append(f"height {h} allows {{{', '.join(sorted(str(t) for t in types))}}}")
    return Decision(allowed, conditional, tuple(reasons))


def moduli_dim(p: int, rank_s: int) -> int:
    """Dimension of the moduli ball for order-p pairs with invariant lattice
    of the given rank: (22 - rank_s) / (p - 1) - 1."""
    if not is_prime(p) or not 3 <= p <= 19:
        raise ValueError(f"p must be a prime in 3..19, got {p}")
    if not 1 <= rank_s <= 21:
        raise ValueError(f"rank_s must lie in 1..21, got {rank_s}")
    if (22 - rank_s) % (p - 1) != 0:
        raise ValueError(f"p - 1 = {p - 1} must divide 22 - rank_s = {22 - rank_s}")
    return (22 - rank_s) // (p - 1) - 1

