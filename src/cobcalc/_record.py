"""Frozen value classes on tuples.

A subclass names its fields in `_fields` and declares `__slots__ = ()`, so
an instance is the tuple of its field values with no `__dict__`: the
layout of `collections.namedtuple`, and of `Partition`.  A subclass that
names no fields of its own keeps those of its parent.  Each field is read
through the C getter that namedtuple uses, which refuses assignment and
deletion.  The base compares, hashes, prints and pickles instances by
their fields: an instance equals only an instance of its exact class, never
a plain tuple, and hashes as the tuple of its fields.  It is a value, not a
sequence: tuple's ordering, concatenation and repetition raise.  The standard
library's class generator would do the same, but importing it imports
`inspect` too, a cost every command would pay at start-up.

Instances are made in one place, this module, by two functions generated
for each class when it is created, as namedtuple generates its `__new__`.
Both take the fields in order (or by name) and make the instance in one
`tuple.__new__` call:
- `__new__(cls, ...)` is the constructor of a class that neither defines
  nor inherits one.  A constructor that checks outside input (every value
  a caller hands in, a coefficient map by `_sparse.build`) is a `__new__`
  that ends in `return cls._trusted(...)`.
- `_trusted(...)` makes an instance without the constructor and its checks.
  It takes values the package built itself (a ring operation's result from
  valid operands, by `_sparse.normalize`; a table row's factors from its
  digit walk), never outside input.  Hot loops call it positionally.
Each class compiles its own two from one piece of source that names its
fields, about 0.8 ms at import for the package's 14 classes.
"""

from __future__ import annotations

from _collections import _tuplegetter


_tuple_eq = tuple.__eq__


class Record(tuple):
    __slots__ = ()

    def __init_subclass__(cls):
        if vars(cls).get("__slots__") != ():
            raise TypeError(f"{cls.__name__} must declare __slots__ = ()")
        if "_fields" in vars(cls):
            for i, name in enumerate(cls._fields):
                setattr(cls, name, _tuplegetter(i, None))
        params = ", ".join(cls._fields)
        namespace = {"_cls": cls, "_new": tuple.__new__, "__name__": __name__}
        exec(
            f"def _trusted({params}): return _new(_cls, ({params},))\n"
            f"def __new__(_cls, {params}): return _new(_cls, ({params},))",
            namespace,
        )
        for name in ("_trusted", "__new__"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        cls._trusted = staticmethod(namespace["_trusted"])
        if cls.__new__ is tuple.__new__:
            cls.__new__ = staticmethod(namespace["__new__"])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or _tuple_eq(self, other)
        # a plain tuple would otherwise compare itself with the fields
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    # a dict field makes this a TypeError, as for any unhashable value
    __hash__ = tuple.__hash__

    def _not_a_sequence(self, other):
        # NotImplemented would let tuple's operator take a record as its fields
        raise TypeError(f"{self.__class__.__name__} is not ordered, concatenated or repeated")

    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence
    __lt__ = __le__ = __gt__ = __ge__ = _not_a_sequence

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self)])
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        # the constructor takes the fields in order and checks them again
        return self.__class__, tuple(self)
