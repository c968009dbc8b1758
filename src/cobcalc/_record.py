"""Frozen value classes on `__slots__`.

A subclass names its fields in `__slots__`.  The base compares, hashes,
prints and pickles instances by those fields, and refuses to assign or
delete them afterwards.  A subclass that declares no fields of its own
(`__slots__ = ()`) keeps those of the nearest class that does.  The
standard library's class generator would do the same, but importing it
imports `inspect` too, a cost every command would pay at start-up.

Fields are set in one place, this module, by two functions generated for
each class when it is created, as `collections.namedtuple` generates its
`__new__`.  Both take the fields in slot order (or by name) and set each
slot through its member descriptor's `__set__`, with no attribute lookup:
- `_set(self, ...)` sets the fields of an instance.  A class that
  neither defines nor inherits a constructor has it as its constructor.
  A constructor that checks outside input (every value a caller hands in)
  ends in one call of it.
- `_trusted(...)` makes a new instance and sets its fields, skipping the
  constructor and its checks.  It takes values the package built itself
  (a ring operation's result from valid operands, a table row's factors
  from its digit walk), never outside input.  Hot loops call it
  positionally.
Each class compiles its own two from one piece of source that names its
fields, about 1.3 ms at import for the package's 15 classes.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        owner = next((c for c in cls.__mro__ if vars(c).get("__slots__")), None)
        cls._fields = owner.__slots__ if owner else ()
        cls._set, build = _setters(cls, owner)
        cls._trusted = staticmethod(build)
        if cls.__init__ is object.__init__:
            cls.__init__ = cls._set

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


def _setters(cls, owner):
    """cls's setter and builder, compiled from source that names its fields,
    with globals holding cls and the member descriptors of owner, the class
    that declares the fields."""
    fields = cls._fields
    namespace = {f"_set{i}": vars(owner)[name].__set__ for i, name in enumerate(fields)}
    namespace.update(_cls=cls, _new=object.__new__)
    params = ", ".join(fields)
    set_body, build_body = (
        "".join(f"\n    _set{i}({obj}, {name})" for i, name in enumerate(fields))
        for obj in ("self", "_obj")
    )
    exec(
        f"def _set(self, {params}):{set_body or ' pass'}\n"
        f"def _trusted({params}):\n    _obj = _new(_cls){build_body}\n    return _obj",
        namespace,
    )
    for name in ("_set", "_trusted"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return namespace["_set"], namespace["_trusted"]
