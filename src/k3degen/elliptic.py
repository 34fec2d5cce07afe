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

from . import Refusal


class ImpossibleConfiguration(Refusal):
    """Raised when a fiber configuration cannot live on a K3 surface."""


# fixed kind -> (Euler number, component count)
_FIXED = {"II": (2, 1), "III": (3, 2), "IV": (4, 3), "II*": (10, 9), "III*": (9, 8), "IV*": (8, 7)}

# n is written as a JSON integer, without a sign: ASCII digits and no leading zero
_FIBER_RE = re.compile(r"I(0|[1-9][0-9]*)(\*?)")


def fiber_numbers(label: str) -> tuple[int, int]:
    """(Euler number, component count) of the fiber with this Kodaira label:
    (n, n) for I<n> with n >= 1, (n + 6, n + 5) for I<n>* with n >= 0, and
    a table entry for the fixed kinds II, III, IV, II*, III*, IV*.

    >>> fiber_numbers("I3*")
    (9, 8)
    >>> fiber_numbers("I11")
    (11, 11)
    """
    if not isinstance(label, str):
        raise ValueError(f"Kodaira fiber label must be a string, got {label!r}")
    if label in _FIXED:
        return _FIXED[label]
    match = _FIBER_RE.fullmatch(label)
    if match:
        try:
            n = int(match.group(1))
        except ValueError:  # more digits than int() converts
            pass
        else:
            if match.group(2):
                return n + 6, n + 5
            if n < 1:
                raise ValueError("I(n) requires n >= 1")
            return n, n
    raise ValueError(f"cannot parse Kodaira fiber label {label!r}")


class FiberConfiguration:
    """A multiset of Kodaira fibers: a Counter of their labels."""

    def __init__(self, fibers):
        """fibers: labels with repeats, or a label -> count map."""
        for label in fibers:  # in order, so a label that is not a string is named before Counter hashes it
            fiber_numbers(label)
        self.fibers = Counter(fibers)

    @classmethod
    def from_json(cls, data) -> "FiberConfiguration":
        """Accepts a list of labels (with repeats) or a label -> count map."""
        if isinstance(data, dict):
            for count in data.values():
                if isinstance(count, bool) or not isinstance(count, int):
                    raise ValueError(f"fiber count must be an integer, got {count!r}")
                if count < 1:
                    raise ValueError(f"fiber count must be positive, got {count}")
        elif type(data) is not list:
            raise ValueError(f"fiber multiset must be a JSON array or object, got {data!r}")
        return cls(data)

    def to_json_dict(self) -> dict:
        return dict(sorted(self.fibers.items()))

    def euler_sum(self) -> int:
        return sum(fiber_numbers(label)[0] * count for label, count in self.fibers.items())

    def check_k3(self) -> bool:
        """True iff the Euler numbers sum to 24."""
        return self.euler_sum() == 24

    def trivial_lattice_rank(self) -> int:
        """Rank of the trivial lattice: 2 + sum over fibers of (components - 1).

        A rank above 22 cannot fit in H^2 of a K3 in any characteristic, so
        such configurations are rejected.
        """
        rank = 2 + sum((fiber_numbers(label)[1] - 1) * count for label, count in self.fibers.items())
        if rank > 22:
            try:
                shown = str(rank)
            except ValueError:  # more digits than str() prints
                shown = f"of more than {sys.get_int_max_str_digits()} digits"
            raise ImpossibleConfiguration(f"trivial lattice rank {shown} exceeds the K3 bound 22")
        return rank
