"""Frozen value classes on `__slots__`.

A subclass names its fields in `__slots__` and sets them in its own
`__init__` through `object.__setattr__`, after its checks.  The base
compares, hashes, prints and pickles instances by those fields, and
refuses to assign or delete them afterwards.  A subclass that declares no
fields of its own (`__slots__ = ()`) keeps those of the nearest class that
does.  The standard library's class generator would do the same, but
importing it imports `inspect` too, a cost every command would pay at
start-up.

Constructors check outside input: every value a caller hands in.  Values
the package built itself (a ring operation's result from valid operands,
a table row's factors from its digit walk) skip those checks through
`trusted`, the one builder that sets a record's fields directly; it takes
nothing from outside the package.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = next((c.__slots__ for c in cls.__mro__ if vars(c).get("__slots__")), ())

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        # a dict field makes this a TypeError, as for any unhashable value
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the constructor takes the fields in slot order and checks them again
        return self.__class__, self._values()


def trusted(cls, **fields):
    """Instance of the record class cls with the given fields, which the
    package built itself and knows to be what cls's constructor would
    store, skipping that constructor and its checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
