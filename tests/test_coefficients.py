"""The one coefficient policy of the four sparse classes, `_sparse.build`
for constructor input and `_sparse.normalize` for ring results: the
spellings of one key sum, a Fraction normalizes the same way in every
class, and a ring result is what the constructor builds from its
coefficients."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cobcalc import _sparse
from cobcalc.chow import ChowClass, ProjProduct
from cobcalc.partitions import Partition
from cobcalc.symfun import BPoly, SymFn, ZClass, pair, z_mul

PRIMES = (3, 5, 7, 11)
moduli = st.sampled_from((None, *PRIMES))
ints = st.integers(-50, 50)


def even_non_ladic(ell: int):
    """Even partitions of up to 3 parts, each at most 12, not ell-adic."""
    parts = st.lists(st.sampled_from(range(2, 13, 2)), max_size=3)
    return parts.map(Partition).filter(lambda p: not p.is_ladic(ell))


def two_distinct_even_non_ladic(ell: int):
    """Even partitions of 2 or 3 parts, each at most 12, not ell-adic, with
    at least two distinct parts: built from the parts that are not, so no
    draw is discarded."""
    allowed = [p for p in range(2, 13, 2) if not Partition((p,)).is_ladic(ell)]
    distinct = st.lists(st.sampled_from(allowed), min_size=2, max_size=2, unique=True)
    return st.tuples(distinct, st.lists(st.sampled_from(allowed), max_size=1)).map(lambda d: Partition(d[0] + d[1]))


class TestSpellingsSum:
    """Keys that are equal once made canonical are one key, and their
    coefficients sum, whichever spelling a caller wrote last."""

    @given(st.lists(st.integers(1, 6), min_size=2, max_size=4), ints, ints, moduli)
    @settings(max_examples=60, deadline=None)
    def test_symfn(self, parts, c1, c2, modulus):
        assume(len(set(parts)) > 1)
        spelled = {tuple(sorted(parts)): c1, tuple(sorted(parts, reverse=True)): c2}
        assert SymFn(spelled, "elementary", modulus) == SymFn({tuple(parts): c1 + c2}, "elementary", modulus)

    @given(st.dictionaries(st.integers(1, 5), st.integers(1, 3), min_size=1, max_size=3), ints, ints, moduli)
    @settings(max_examples=60, deadline=None)
    def test_bpoly(self, exps, c1, c2, modulus):
        mono = tuple(sorted(exps.items()))
        spelled = {mono: c1, tuple(reversed(mono)) + ((6, 0),): c2}
        assert BPoly(spelled, modulus) == BPoly({mono: c1 + c2}, modulus)

    @given(
        st.sampled_from(PRIMES).flatmap(lambda ell: st.tuples(st.just(ell), two_distinct_even_non_ladic(ell))),
        ints,
        ints,
    )
    @settings(max_examples=60, deadline=None)
    def test_zclass(self, ell_and_key, c1, c2):
        ell, key = ell_and_key
        spelled = {tuple(key): c1, tuple(reversed(key)): c2}
        assert ZClass(ell, spelled) == ZClass(ell, {key: c1 + c2})

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=2), ints, ints)
    @settings(max_examples=60, deadline=None)
    def test_chow_class(self, exps, c1, c2):
        # any hashable iterable of ints spells an exponent vector
        X = ProjProduct((2, 3))
        spelled = {tuple(exps): c1, bytes(exps): c2}
        assert ChowClass(X, spelled) == ChowClass(X, {tuple(exps): c1 + c2})


class TestFractions:
    """Mod l a Fraction is its residue, or refused when l divides its
    denominator; over Q an integral Fraction is an int; ChowClass, over Z,
    refuses any other Fraction."""

    @given(ints, st.integers(1, 30), st.sampled_from(PRIMES))
    @settings(max_examples=100, deadline=None)
    def test_residue_or_refusal_in_every_class_mod_l(self, n, q, ell):
        c = Fraction(n, q)
        makes = {
            "SymFn": lambda: SymFn({(4, 2): c}, "monomial", ell).coeffs.get((4, 2), 0),
            "BPoly": lambda: BPoly({((1, 2),): c}, ell).coeffs.get(((1, 2),), 0),
            "ZClass": lambda: pair(ZClass(ell, {(12,): c}), (12,)),
        }
        for name, make in makes.items():
            if c.denominator % ell == 0:
                with pytest.raises(ValueError):
                    make()
            else:
                got = make()
                assert type(got) is int and got == c.numerator * pow(c.denominator, -1, ell) % ell, name

    @given(ints, st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_integral_fraction_is_an_int_over_q_and_z(self, n, q):
        c = Fraction(n, q)
        rational = [
            SymFn({(4, 2): c}).coeffs.get(Partition((4, 2)), 0),
            BPoly({((1, 2),): c}).coeffs.get(((1, 2),), 0),
        ]
        for got in rational:
            assert got == c and type(got) is (int if c.denominator == 1 else Fraction)
        if c.denominator == 1:
            got = ChowClass(ProjProduct((3,)), {(1,): c}).coeffs.get((1,), 0)
            assert got == c and type(got) is int
        else:
            with pytest.raises(ValueError, match="is not an integer"):
                ChowClass(ProjProduct((3,)), {(1,): c})

    def test_a_rational_unit_is_refused_on_construction(self):
        # (3/2 + a)**3 on P^3 once floor-divided its binomial coefficients
        # and printed 6 a + 4 a^2 with no a^3
        with pytest.raises(ValueError, match="3/2 is not an integer"):
            ChowClass(ProjProduct((3,)), {(0,): Fraction(3, 2), (1,): 1})

    def test_a_chow_class_scales_by_ints_only(self):
        one = ChowClass.one(ProjProduct((3,)))
        assert one.scale(-2).coeffs == {(0,): -2}
        for a in (Fraction(3, 2), Fraction(4, 2), 1.5, True):
            with pytest.raises(ValueError, match="is not an int"):
                one.scale(a)

    def test_ring_results_normalize_as_constructors_do(self):
        assert SymFn({(2,): 1}, "monomial", 5).scale(Fraction(1, 2)).coeffs == {Partition((2,)): 3}
        assert BPoly.one().scale(Fraction(4, 2)).coeffs == {(): 2}
        assert type(BPoly.one().scale(Fraction(4, 2)).coeffs[()]) is int
        assert BPoly({((1, 1),): Fraction(1, 2)}).reduce_mod(3).coeffs == {((1, 1),): 2}
        with pytest.raises(ValueError):
            BPoly({((1, 1),): Fraction(1, 3)}).reduce_mod(3)
        with pytest.raises(ValueError, match="9 is not an odd prime"):
            BPoly.one().reduce_mod(9)


@st.composite
def zclasses(draw, ell):
    keys = draw(st.lists(even_non_ladic(ell), max_size=4))
    return ZClass(ell, {key: draw(st.integers(0, ell - 1)) for key in keys})


class TestZClassResults:
    @given(st.sampled_from(PRIMES).flatmap(lambda ell: st.tuples(zclasses(ell), zclasses(ell))))
    @settings(max_examples=60, deadline=None)
    def test_result_behaves_like_constructed_one(self, operands):
        # sums and products are built without the constructor's checks; they
        # must compare, hash, print and pickle as the constructor's would
        z1, z2 = operands
        for got in (z1 + z2, z_mul(z1, z2)):
            twin = ZClass(got.prime, dict(got.coeffs))
            assert got == twin and twin == got and repr(got) == repr(twin)
            for obj in (got, twin):
                with pytest.raises(TypeError):
                    hash(obj)
            back = pickle.loads(pickle.dumps(got))
            assert type(back) is ZClass and back == twin and repr(back) == repr(twin)

    def test_ring_operations_skip_the_constructor(self, monkeypatch):
        z1 = ZClass(3, {(4,): 1, (4, 4): 2})
        z2 = ZClass(3, {(4,): 2, (6,): 1})

        def refuse(*args):
            raise AssertionError("ZClass.__new__ called on a ring result")

        monkeypatch.setattr(ZClass, "__new__", refuse)
        assert (z1 + z2).coeffs == {Partition((4, 4)): 2, Partition((6,)): 1}
        assert z_mul(z1, z2).coeffs == {
            Partition((4, 4)): 2, Partition((6, 4)): 1, Partition((4, 4, 4)): 1, Partition((6, 4, 4)): 2,
        }


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymFn({(2, 1): 1, (1, 2): 2}, "monomial", 5),
        lambda: BPoly({((1, 2),): 1, ((2, 1),): 2}, 5),
        lambda: ZClass(3, {(4,): 1, (4, 4): 2}),
        lambda: ChowClass(ProjProduct((1, 2)), {(1, 0): 2, (0, 2): -1, (2, 0): 5}),
    ],
    ids=["SymFn", "BPoly", "ZClass", "ChowClass"],
)
def test_each_constructor_builds_and_normalizes_once(make, monkeypatch):
    calls = []

    def counted(name):
        original = getattr(_sparse, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    for name in ("build", "normalize"):
        monkeypatch.setattr(_sparse, name, counted(name))
    make()
    assert calls == ["build", "normalize"]
