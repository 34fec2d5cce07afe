"""Immutable value records: the part of a frozen dataclass the library uses.

A subclass names its fields in __slots__ and sets them once, in order, with
_set from its own __init__. Two records are equal when they have the same
class and equal fields, never equal to a tuple; they hash by their fields,
and repr shows them as Class(field=value, ...).
"""

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # the field values, read in C, for __eq__ and __hash__
        cls._fields = property(attrgetter(*cls.__slots__))

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
