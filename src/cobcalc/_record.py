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
Both come from one template per field count.  Generating the two functions
of each of the package's 15 classes takes about 1 ms at import, most of
it compiling the templates.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType, FunctionType


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


@lru_cache(maxsize=None)
def _templates(arity: int) -> tuple[CodeType, CodeType]:
    """Code of the setter and the builder of arity fields: each passes its
    parameter i to the global _set{i}, the setter with the instance it is
    given, the builder with a new instance of the global _cls."""
    params = ", ".join(f"_{i}" for i in range(arity))
    sets = [f"    _set{i}(_obj, _{i})" for i in range(arity)]
    lines = [f"def _set(_obj, {params}):", *(sets or ["    pass"])]
    lines += [f"def _trusted({params}):", "    _obj = _new(_cls)", *sets, "    return _obj"]
    module = compile("\n".join(lines), "<record setters>", "exec")
    codes = {c.co_name: c for c in module.co_consts if isinstance(c, CodeType)}
    return codes["_set"], codes["_trusted"]


def _setters(cls, owner) -> tuple[FunctionType, FunctionType]:
    """cls's setter and builder: the templates of its arity with the
    parameters renamed to its fields, which the bytecode reads by position
    only, and globals holding cls and the member descriptors of owner, the
    class that declares the fields.  A compile costs about 30 us plus
    10 us a field, so there is one per arity, not per class."""
    fields = cls._fields
    namespace = {"_cls": cls, "_new": object.__new__}
    for i, name in enumerate(fields):
        namespace[f"_set{i}"] = vars(owner)[name].__set__
    set_code, build_code = _templates(len(fields))
    setter = FunctionType(set_code.replace(co_varnames=("self",) + fields), namespace)
    build = FunctionType(build_code.replace(co_varnames=fields + ("_obj",)), namespace)
    setter.__qualname__ = f"{cls.__qualname__}._set"
    build.__qualname__ = f"{cls.__qualname__}._trusted"
    return setter, build
