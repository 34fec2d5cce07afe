"""The Kulikov types I, II and III with the weight-graded dimensions of H^2
each one carries (KulikovType, grw_dims), and which of them a K3 surface
admits, given the order of its non-symplectic automorphisms, its Hodge
endomorphism field class, or its formal Brauer height, plus the dimension
bookkeeping for the moduli spaces of prime-order non-symplectic pairs.

The engine encodes theorem statements, not proofs: every constraint is a
subset of {I, II, III}, and independent constraints intersect. Type I (good
reduction) is never excluded.

The order constraint is derived from grw_dims: the automorphism acts
rationally on each Gr_W piece of the limit cohomology, and the limit 2-form
lies in the top nonzero one (Morrison 1984; Friedman-Scattone 1986), so all
phi(m) conjugates of its eigenvalue zeta_m fit there. The field constraint
(FIELD_CLASSES) and the height constraint are quoted from the theorems, not
derived here.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from . import autorders, cyclotomic


class KulikovType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"

    def __str__(self):
        return self.value


_GRW_TABLE = {
    KulikovType.I: (0, 0, 22, 0, 0),
    KulikovType.II: (0, 2, 18, 2, 0),
    KulikovType.III: (1, 0, 20, 0, 1),
}


def grw_dims(t: KulikovType) -> tuple:
    """The weight-graded dimensions of H^2 attached to a Kulikov type, pieces 0..4."""
    return _GRW_TABLE[t]


ALL_TYPES = frozenset(KulikovType)


# Hodge endomorphism field class of the transcendental lattice -> (the types it
# allows, whether that rests on the Hodge conjecture). The field is always
# totally real or CM. For CM fields the Hodge conjecture for the self-product
# is known, so only the totally real class of degree > 1 is conditional.
FIELD_CLASSES = {
    "rational": (ALL_TYPES, False),
    "imaginary_quadratic": (frozenset({KulikovType.I, KulikovType.II}), False),
    "cm_degree_gt2": (frozenset({KulikovType.I}), False),
    "totally_real_degree_gt1": (frozenset({KulikovType.I}), True),
}

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


@lru_cache(maxsize=None)
def allowed_m_from_type(t: KulikovType) -> frozenset[int]:
    """Orders m that can occur over a special fiber of the given type.

    The phi(m) conjugates of the 2-form's eigenvalue fill at most the top
    nonzero piece of grw_dims(t), so phi(m) <= d_top, capped by the global
    bound phi(m) <= 20: Type III (d_4 = 1) gives {1, 2}, Type II (d_3 = 2)
    gives {1, 2, 3, 4, 6}, and Type I (d_2 = 22) the 20 bound alone.
    """
    d_top = next(d for d in reversed(grw_dims(t)) if d)
    return frozenset(cyclotomic.bounded_orders(min(d_top, 20)))


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


def _listed(types) -> str:
    return "{" + ", ".join(sorted(str(t) for t in types)) + "}"


def combine(m=None, e=None, h=None, residue_char=None) -> dict:
    """Intersect the constraints from order, field class name, and height.

    The report is {"allowed", "conditional", "reasons"}: the allowed types,
    sorted, whether they rest on the Hodge conjecture, and one reason per
    constraint. Residue characteristic 2 falls outside the hypotheses of the
    order constraint, so such inputs get {"status", "reasons"} instead. At
    least one constraint must be supplied.

    >>> combine(m=5)
    {'allowed': ['I'], 'conditional': False, 'reasons': ['order m = 5 allows {I}']}
    >>> combine(m=4, e="imaginary_quadratic")["allowed"]
    ['I', 'II']
    """
    if m is None and e is None and h is None:
        raise ValueError("at least one of m, e, h is required")
    if residue_char is not None and not autorders.is_prime(residue_char):
        raise ValueError(f"residue characteristic must be a prime, got {residue_char}")
    if residue_char == 2:
        return {
            "status": "outside theorem hypotheses",
            "reasons": ["residue characteristic 2 is outside the hypotheses of the order constraint"],
        }
    allowed = ALL_TYPES
    conditional = False
    reasons = []
    if m is not None:
        types = allowed_types_from_m(m)
        allowed &= types
        reasons.append(f"order m = {m} allows {_listed(types)}")
    if e is not None:
        if e not in FIELD_CLASSES:
            raise ValueError(f"unknown field class {e!r}")
        types, conditional = FIELD_CLASSES[e]
        allowed &= types
        reasons.append(
            f"field class {e} allows {_listed(types)}" + (" (conditional on the Hodge conjecture)" if conditional else "")
        )
    if h is not None:
        types = allowed_types_from_height(h)
        allowed &= types
        reasons.append(f"height {h} allows {_listed(types)}")
    return {"allowed": sorted(str(t) for t in allowed), "conditional": conditional, "reasons": reasons}


def moduli_dim(p: int, rank_s: int) -> int:
    """Dimension of the moduli ball for order-p pairs with invariant lattice
    of the given rank: (22 - rank_s) / (p - 1) - 1."""
    if not autorders.is_prime(p) or not 3 <= p <= 19:
        raise ValueError(f"p must be a prime in 3..19, got {p}")
    if not 1 <= rank_s <= 21:
        raise ValueError(f"rank_s must lie in 1..21, got {rank_s}")
    if (22 - rank_s) % (p - 1) != 0:
        raise ValueError(f"p - 1 = {p - 1} must divide 22 - rank_s = {22 - rank_s}")
    return (22 - rank_s) // (p - 1) - 1

