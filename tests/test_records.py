"""The frozen value classes: immutable, compared, hashed, printed and
pickled by their fields, and checked on construction."""

import pickle
from fractions import Fraction

import pytest

from cobcalc._record import Record
from cobcalc.adams import DecompositionReport, DecompositionRow
from cobcalc.chow import ChowClass, LineTerm, ProjProduct, VirtualBundle
from cobcalc.criterion import CandidateFamily, DegreeVerdict, GeneratorVerdict
from cobcalc.stong import StongDatum
from cobcalc.symfun import BPoly, SymFn, ZClass
from cobcalc.valuation import LadicDigits

def space():
    return ProjProduct((1, 2))


def row():
    return DecompositionRow(4, 2, 2)


def verdicts():
    return (
        DegreeVerdict(1, 1, 1, True, ""),
        DegreeVerdict(2, 0, 1, False, "valuation 1, required 0"),
    )


# class: (a new instance, each call equal to the last; hashable; the calls
# that each break one constructor check).  Each call names its class as a
# global of this module, so a test can put a subclass in its place.
CASES = {
    LadicDigits: (
        lambda: LadicDigits(3, (2, 0, 1)),
        True,
        [lambda: LadicDigits(4, (1,)), lambda: LadicDigits(3, (3,)),
         lambda: LadicDigits(3, (-1,)), lambda: LadicDigits(3, (1, 0)),
         lambda: LadicDigits(3, (1.5, 2.0)), lambda: LadicDigits(3, (True,))],
    ),
    DecompositionRow: (row, True, []),
    DecompositionReport: (lambda: DecompositionReport((row(), row())), True, []),
    ProjProduct: (
        space,
        True,
        [lambda: ProjProduct(()), lambda: ProjProduct((0, 1)), lambda: ProjProduct((2**63, -1)),
         lambda: ProjProduct((1.7, 2)), lambda: ProjProduct((True, 3))],
    ),
    ChowClass: (
        lambda: ChowClass(space(), {(1, 0): 2, (0, 2): -1, (2, 0): 5}),
        False,
        [lambda: ChowClass(space(), {(1,): 1}), lambda: ChowClass(space(), {(-1, 0): 1}),
         lambda: ChowClass(space(), {(1, 0): 0.5}), lambda: ChowClass(space(), {(1, 0): True}),
         lambda: ChowClass(space(), {(1.0, 0): 1}), lambda: ChowClass(space(), {(1, 0): Fraction(1, 2)})],
    ),
    LineTerm: (
        lambda: LineTerm(-1, (0, 1)),
        True,
        [lambda: LineTerm(0, (1, 1)), lambda: LineTerm(2, (1, 1)),
         lambda: LineTerm(1, (1.7, 0)), lambda: LineTerm(1, (True, 0))],
    ),
    VirtualBundle: (
        lambda: VirtualBundle(space(), (LineTerm(1, (1, 1)), LineTerm(-1, (0, 1)))),
        True,
        [lambda: VirtualBundle(space(), (LineTerm(1, (1,)),)),
         lambda: VirtualBundle(space(), ((1, (1, 1)),))],
    ),
    CandidateFamily: (
        lambda: CandidateFamily("msp", {1: 48, 2: 40}),
        False,
        [lambda: CandidateFamily("mu", {1: 48}), lambda: CandidateFamily("msp", {0: 48}),
         lambda: CandidateFamily("msp", {1: 48.9}), lambda: CandidateFamily("msp", {2.5: 40}),
         lambda: CandidateFamily("msp", {True: 7}), lambda: CandidateFamily("msp", {"1": 48})],
    ),
    DegreeVerdict: (lambda: verdicts()[1], True, []),
    GeneratorVerdict: (lambda: GeneratorVerdict(verdicts()), True, []),
    StongDatum: (lambda: StongDatum(1, ProjProduct((1, 1, 1, 1)), -48, 1, 1), True, []),
    SymFn: (
        lambda: SymFn({(2, 1): 3, (3,): -1}, "elementary"),
        False,
        [lambda: SymFn({(1,): 1}, "schur"), lambda: SymFn({(1,): 1}, "monomial", 9),
         lambda: SymFn({(0,): 1}), lambda: SymFn({(1,): 1.5}), lambda: SymFn({(1,): True})],
    ),
    BPoly: (
        lambda: BPoly({((1, 2),): 1, ((2, 1),): 2}, 5),
        False,
        [lambda: BPoly({((1, 1),): 1}, 9), lambda: BPoly({((0, 1),): 1}),
         lambda: BPoly({((1, 2),): 1.5}, 3), lambda: BPoly({((1, 2),): 1.5}),
         lambda: BPoly({((1, 2),): True})],
    ),
    ZClass: (
        lambda: ZClass(3, {(4,): 1, (4, 4): 2}),
        False,
        [lambda: ZClass(9, {}), lambda: ZClass(3, {(3,): 1}), lambda: ZClass(3, {(2,): 1}),
         lambda: ZClass(3, {(4,): 1.0}), lambda: ZClass(3, {(4,): True}),
         lambda: ZClass(3, {(4,): Fraction(1, 3)})],
    ),
}


# the classes whose constructor is the one `_record` generates, with no checks
CHECK_FREE = {
    DecompositionRow, DecompositionReport, DegreeVerdict, GeneratorVerdict, StongDatum,
}


def fields(obj) -> tuple:
    return type(obj)._fields


class SubDigits(LadicDigits):
    __slots__ = ()


class SubProduct(ProjProduct):
    __slots__ = ()


@pytest.mark.parametrize(
    "a, b, shown",
    [
        (SubDigits(3, (1,)), SubDigits(3, (2,)), "SubDigits(prime=3, digits=(1,))"),
        (SubProduct((1, 2)), SubProduct((1, 3)), "SubProduct(1, 2)"),
    ],
    ids=["LadicDigits", "ProjProduct"],
)
def test_subclass_without_fields_of_its_own_keeps_its_parents(a, b, shown):
    twin = pickle.loads(pickle.dumps(a))
    assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    assert a != b and hash(a) != hash(b)
    assert repr(a) == shown


def rebuilt(obj) -> list:
    """obj rebuilt from its fields by its class's builder, with every field
    named and positionally."""
    cls, values = type(obj), [getattr(obj, name) for name in type(obj)._fields]
    return [cls._trusted(**dict(zip(cls._fields, values))), cls._trusted(*values)]


@pytest.mark.parametrize(
    "obj", [SubDigits(3, (1, 0, 2)), SubProduct((1, 2))], ids=["LadicDigits", "ProjProduct"]
)
def test_builders_of_a_subclass_without_fields_of_its_own_make_the_subclass(obj):
    for built in rebuilt(obj):
        assert type(built) is type(obj) and built == obj and hash(built) == hash(obj)
        assert repr(built) == repr(obj)
        twin = pickle.loads(pickle.dumps(built))
        assert type(twin) is type(obj) and twin == obj


def test_trusted_names_every_field_and_no_other():
    for cls, (make, _, _) in CASES.items():
        named = dict(zip(cls._fields, make()))
        first, *rest = cls._fields
        misnamed = {first + "_": named[first], **{name: named[name] for name in rest}}
        for bad in [{}, {**named, "extra": None}, misnamed]:
            with pytest.raises(TypeError):
                cls._trusted(**bad)
        for bad in [(), (*named.values(), None)]:
            with pytest.raises(TypeError):
                cls._trusted(*bad)


def test_a_subclass_without_empty_slots_is_refused():
    # without `__slots__ = ()` every instance would grow a __dict__
    with pytest.raises(TypeError, match="__slots__"):
        class Loose(LadicDigits):
            pass
    with pytest.raises(TypeError, match="__slots__"):
        type("Loose", (Record,), {"_fields": ("a",), "__slots__": ("a",)})
    for make, _, _ in CASES.values():
        assert not hasattr(make(), "__dict__")


def test_factor_dimensions_have_no_width_limit():
    for dims in [(2**63,), (1, 2**64 + 1), (2**100, 3)]:
        X = ProjProduct(dims)
        assert X.dims == dims and X == ProjProduct(dims) and hash(X) == hash(ProjProduct(dims))
        assert pickle.loads(pickle.dumps(X)) == X


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        obj = CASES[cls][0]()
        for name in fields(obj):
            value = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is value
        with pytest.raises(AttributeError):
            obj.no_such_field = 1

    def test_equal_fields_give_equal_objects(self, cls):
        make, hashable, _ = CASES[cls]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        if hashable:
            assert hash(a) == hash(b) == hash(tuple(a))
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_never_equals_another_class(self, cls):
        obj = CASES[cls][0]()
        others = [make() for other, (make, _, _) in CASES.items() if other is not cls]
        same_fields = {name: getattr(obj, name) for name in fields(obj)}
        subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
        others += [tuple(same_fields.values()), subclass(**same_fields)]
        for other in others:
            assert obj != other and other != obj
            assert not obj == other and not other == obj

    def test_no_tuple_operator_applies(self, cls):
        # a record is a value, not a sequence of its fields: tuple's ordering,
        # concatenation and repetition raise, from either side
        obj = CASES[cls][0]()
        plain = tuple(obj)
        calls = [lambda: 2 * obj, lambda: plain + obj, lambda: obj < obj, lambda: obj <= plain,
                 lambda: plain < obj, lambda: plain >= obj]
        if "__add__" not in vars(cls):
            calls.append(lambda: obj + obj)
        if "__mul__" not in vars(cls):
            calls.append(lambda: obj * 2)
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_repr_names_the_fields(self, cls):
        obj = CASES[cls][0]()
        if cls is ProjProduct:
            assert repr(obj) == "ProjProduct" + repr(obj.dims)
            return
        shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in fields(obj))
        assert repr(obj) == f"{cls.__name__}({shown})"

    def test_pickle_round_trip(self, cls):
        obj = CASES[cls][0]()
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and type(copy) is cls

    def test_builders_rebuild_an_instance_from_its_fields(self, cls):
        make, hashable, _ = CASES[cls]
        obj = make()
        for built in rebuilt(obj):
            assert type(built) is cls and built is not obj and built == obj
            assert repr(built) == repr(obj)
            if hashable:
                assert hash(built) == hash(obj)
            copy = pickle.loads(pickle.dumps(built))
            assert type(copy) is cls and copy == obj and repr(copy) == repr(obj)
        assert (cls.__new__.__module__ == Record.__module__) == (cls in CHECK_FREE)
        if cls in CHECK_FREE:
            values = tuple(obj)
            assert cls(*values) == obj and cls(**dict(zip(cls._fields, values))) == obj
            for wrong in (values[:-1], values + (None,)):
                with pytest.raises(TypeError):
                    cls(*wrong)

    def test_constructor_checks(self, cls, monkeypatch):
        make, _, calls = CASES[cls]
        subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
        for each in (cls, subclass):
            # a subclass without fields of its own keeps its parent's checks
            monkeypatch.setitem(globals(), cls.__name__, each)
            assert type(make()) is each
            for bad in calls:
                with pytest.raises(ValueError):
                    bad()
