"""Kodaira singular-fiber bookkeeping for elliptic K3 surfaces.

Euler numbers and fiber component counts are standard constants of the
Kodaira classification; an elliptic K3 has total Euler number 24, and the
zero section plus fiber components span the trivial lattice of rank
2 + sum(components - 1). The arithmetic here is the tame, characteristic-0
one; wild fibers in characteristic 2 or 3 can contribute more.
"""

from __future__ import annotations

import re
import sys
from collections import Counter

from ._record import Record


class ImpossibleConfiguration(Exception):
    """Raised when a fiber configuration cannot live on a K3 surface."""


# fixed kind -> (Euler number, component count)
_FIXED = {"II": (2, 1), "III": (3, 2), "IV": (4, 3), "II*": (10, 9), "III*": (9, 8), "IV*": (8, 7)}

# n is written as a JSON integer, without a sign: ASCII digits and no leading zero
_FIBER_RE = re.compile(r"I(0|[1-9][0-9]*)(\*?)")


class KodairaFiber(Record):
    """One singular fiber: kind "I" or "I*" with an index n, or one of the
    fixed kinds II, III, IV, II*, III*, IV*."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int | None = None):
        if kind == "I":
            if n is None or n < 1:
                raise ValueError("I(n) requires n >= 1")
        elif kind == "I*":
            if n is None or n < 0:
                raise ValueError("I*(n) requires n >= 0")
        elif kind in _FIXED:
            if n is not None:
                raise ValueError(f"{kind} takes no index")
        else:
            raise ValueError(f"unknown Kodaira fiber kind {kind!r}")
        self._set(kind, n)

    @classmethod
    def parse(cls, label: str) -> "KodairaFiber":
        """Parse labels like "I1", "I11", "I0*", "II", "IV*"."""
        if not isinstance(label, str):
            raise ValueError(f"Kodaira fiber label must be a string, got {label!r}")
        if label in _FIXED:
            return cls(label)
        match = _FIBER_RE.fullmatch(label)
        if match:
            try:
                n = int(match.group(1))
            except ValueError:  # more digits than int() converts
                pass
            else:
                return cls("I*" if match.group(2) else "I", n)
        raise ValueError(f"cannot parse Kodaira fiber label {label!r}")

    def __str__(self):
        if self.kind == "I":
            return f"I{self.n}"
        if self.kind == "I*":
            return f"I{self.n}*"
        return self.kind


def euler_number(f: KodairaFiber) -> int:
    """Euler number of the fiber: n for I(n), n + 6 for I*(n), table otherwise."""
    if f.kind == "I":
        return f.n
    if f.kind == "I*":
        return f.n + 6
    return _FIXED[f.kind][0]


def component_count(f: KodairaFiber) -> int:
    """Number of irreducible components: n for I(n), n + 5 for I*(n)."""
    if f.kind == "I":
        return f.n
    if f.kind == "I*":
        return f.n + 5
    return _FIXED[f.kind][1]


class FiberConfiguration:
    """A multiset of Kodaira fibers, given by their labels."""

    def __init__(self, fibers):
        self.fibers = Counter(map(KodairaFiber.parse, fibers))

    @classmethod
    def from_json(cls, data) -> "FiberConfiguration":
        """Accepts a list of labels (with repeats) or a label -> count map."""
        if isinstance(data, dict):
            for count in data.values():
                if isinstance(count, bool) or not isinstance(count, int):
                    raise ValueError(f"fiber count must be an integer, got {count!r}")
                if count < 1:
                    raise ValueError(f"fiber count must be positive, got {count}")
            config = cls(())
            for label, count in data.items():  # each label parsed once, however large its count
                config.fibers[KodairaFiber.parse(label)] += count
            return config
        if type(data) is not list:
            raise ValueError(f"fiber multiset must be a JSON array or object, got {data!r}")
        return cls(data)

    def to_json_dict(self) -> dict:
        return {str(f): count for f, count in sorted(self.fibers.items(), key=lambda kv: str(kv[0]))}

    def euler_sum(self) -> int:
        return sum(euler_number(f) * count for f, count in self.fibers.items())

    def check_k3(self) -> bool:
        """True iff the Euler numbers sum to 24."""
        return self.euler_sum() == 24

    def trivial_lattice_rank(self) -> int:
        """Rank of the trivial lattice: 2 + sum over fibers of (components - 1).

        A rank above 22 cannot fit in H^2 of a K3 in any characteristic, so
        such configurations are rejected.
        """
        rank = 2 + sum((component_count(f) - 1) * count for f, count in self.fibers.items())
        if rank > 22:
            try:
                shown = str(rank)
            except ValueError:  # more digits than str() prints
                shown = f"of more than {sys.get_int_max_str_digits()} digits"
            raise ImpossibleConfiguration(f"trivial lattice rank {shown} exceeds the K3 bound 22")
        return rank
