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
nothing from outside the package.  Its fast form is each class's
`_trusted`, generated when the class is created, as
`collections.namedtuple` generates its `__new__`: a function of the fields
in slot order that makes the instance and sets each slot through its
member descriptor's `__set__`, with no keyword dict and no attribute
lookup.  Hot loops call it positionally; `trusted` passes its keywords on
to it.  Per `StongDatum` on a 2-core x86 host, Python 3.11.7 (medians of
15 interleaved timings): the checked constructor 1.10 us, `_trusted`
0.55 us, `trusted` with 7 keywords 1.24 us.  Generating the builders of
the package's 15 classes takes about 0.5 ms at import, most of it
compiling one template per field count.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType, FunctionType


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        owner = next((c for c in cls.__mro__ if vars(c).get("__slots__")), None)
        cls._fields = owner.__slots__ if owner else ()
        cls._trusted = staticmethod(_builder(cls, owner))

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
def _template(arity: int) -> CodeType:
    """Code of a builder of arity fields: it makes an instance of the
    global _cls and passes parameter i to the global _set{i}."""
    params = [f"_{i}" for i in range(arity)]
    lines = [f"def _trusted({', '.join(params)}):", "    _obj = _new(_cls)"]
    lines += [f"    _set{i}(_obj, {name})" for i, name in enumerate(params)]
    lines.append("    return _obj")
    module = compile("\n".join(lines), "<record builder>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _builder(cls, owner) -> FunctionType:
    """cls's positional builder: the template of its arity with the
    parameters renamed to its fields, which the bytecode reads by position
    only, and globals holding cls and the member descriptors of owner, the
    class that declares the fields.  A compile costs about 30 us plus
    10 us a field, so there is one per arity, not per class."""
    fields = cls._fields
    namespace = {"_cls": cls, "_new": object.__new__}
    for i, name in enumerate(fields):
        namespace[f"_set{i}"] = vars(owner)[name].__set__
    build = FunctionType(_template(len(fields)).replace(co_varnames=fields + ("_obj",)), namespace)
    build.__qualname__ = f"{cls.__qualname__}._trusted"
    return build


def trusted(cls, **fields):
    """Instance of the record class cls with the given fields, which the
    package built itself and knows to be what cls's constructor would
    store, skipping that constructor and its checks.  Every field is
    named; a hot loop calls cls._trusted with them in slot order."""
    return cls._trusted(**fields)
