import inspect
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import chow, steenrod
from cobcalc._sparse import clean, layout, pack, unpack
from cobcalc.partitions import Partition, enumerate_partitions
from cobcalc.steenrod import (
    _decode,
    _add_product,
    _monomial_op,
    _orbit_piece,
    _packed_piece,
    power_op,
    power_op_oracle,
    power_op_untwisted,
    stability_bound,
    total_power_on_monomial,
)
from cobcalc.symfun import BPoly, SymFn, symfn_to_bpoly
from cobcalc.valuation import multinomial


SRC = Path(__file__).resolve().parent.parent / "src"


def bmono(*pairs, ell):
    return BPoly({tuple(pairs): 1}, ell)


def as_bmono(lam):
    """The b-monomial of a partition, as (g, exponent) pairs."""
    return tuple(sorted(Counter(lam).items()))


def partition_to_bmono(lam, ell):
    return BPoly({as_bmono(lam): 1}, ell)


class TestTotalPowerOnMonomial:
    def test_single_root(self):
        got = total_power_on_monomial((1,), 3)
        assert got == {(1,): 1, (3,): 1}

    def test_square_mod_3(self):
        got = total_power_on_monomial((2,), 3)
        assert got == {(2,): 1, (4,): 2, (6,): 1}

    def test_constant(self):
        assert total_power_on_monomial((), 3) == {(): 1}

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            total_power_on_monomial((1, -1), 3)

    def test_multiplicative_over_roots(self):
        a = total_power_on_monomial((2, 1), 5)
        left = total_power_on_monomial((2, 0), 5)
        right = total_power_on_monomial((0, 1), 5)
        product = {}
        for ea, ca in left.items():
            for eb, cb in right.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                product[e] = (product.get(e, 0) + ca * cb) % 5
        assert a == {e: c for e, c in product.items() if c}


class TestPowerOpBasics:
    def test_p0_is_identity(self):
        f = bmono((2, 1), ell=3)
        assert power_op(0, f, 3) == f

    def test_negative_index_is_zero(self):
        f = bmono((1, 1), ell=3)
        assert power_op(-2, f, 3).coeffs == {}

    def test_p1_b1_vanishes(self):
        assert power_op(1, bmono((1, 1), ell=3), 3).coeffs == {}

    def test_anchor_p2_b1_mod_3(self):
        got = power_op(2, bmono((1, 1), ell=3), 3)
        assert got.coeffs == {((1, 3),): 2, ((1, 1), (2, 1)): 1}

    def test_unit_has_nonzero_image(self):
        # frozen from the root-expansion oracle: the index-2 image of the
        # unit is the (ell-1)-st power sum of the roots
        got3 = power_op(2, BPoly.one(3), 3)
        assert got3.coeffs == {((1, 2),): 1, ((2, 1),): 1}
        got5 = power_op(2, BPoly.one(5), 5)
        assert got5.coeffs == {
            ((1, 4),): 1,
            ((1, 2), (2, 1)): 1,
            ((2, 2),): 2,
            ((1, 1), (3, 1)): 4,
            ((4, 1),): 1,
        }

    def test_linearity(self):
        f = bmono((1, 2), ell=3) + bmono((2, 1), ell=3).scale(2)
        a = power_op(2, f, 3)
        b = power_op(2, bmono((1, 2), ell=3), 3) + power_op(2, bmono((2, 1), ell=3), 3).scale(2)
        assert a == b


class TestReducedInput:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_reduced_input_and_its_integer_twin_agree(self, ell):
        # the twin's coefficients differ by multiples of ell, and its
        # heaviest term vanishes mod ell; the reduced input is passed
        # through as it is
        coeffs = {((1, 1),): 1, ((1, 1), (2, 1)): ell - 1, ((4, 1),): ell}
        twin = BPoly({m: c + ell for m, c in coeffs.items()})
        reduced = BPoly(coeffs, ell)
        assert twin.reduce_mod(ell) == reduced and reduced.weight < twin.weight
        before = dict(reduced.coeffs)
        for i in (0, 2, 4, 6):
            for op in (power_op, power_op_untwisted):
                assert op(i, reduced, ell) == op(i, twin, ell), (op.__name__, i)
        for i in (0, 2):
            r = stability_bound(twin, i, ell)
            assert power_op_oracle(i, reduced, ell, r) == power_op_oracle(i, twin, ell, r), i
        assert reduced.coeffs == before and reduced.modulus == ell
        assert power_op(0, reduced, ell) is reduced
        # the cap reads the reduced class: a vanishing term past it is no refusal
        heavy = BPoly({**twin.coeffs, ((1, 31),): ell})
        assert heavy.weight == 62 and heavy.reduce_mod(ell) == reduced
        for i in (0, 2, 4):
            for op in (power_op, power_op_untwisted):
                assert op(i, heavy, ell) == op(i, reduced, ell), (op.__name__, i)
        for i in (0, 2):
            r = stability_bound(reduced, i, ell)
            assert power_op_oracle(i, heavy, ell, r) == power_op_oracle(i, reduced, ell, r), i

    def test_class_reduced_mod_another_prime_is_refused(self):
        # 4 mod 5 is not 1 mod 3: the class is refused, not reread
        f = BPoly({((1, 1),): 4}, 5)
        with pytest.raises(ValueError, match="modulus mismatch"):
            f.reduce_mod(3)
        for op in (power_op, power_op_untwisted):
            with pytest.raises(ValueError, match="modulus mismatch"):
                op(2, f, 3)
        with pytest.raises(ValueError, match="modulus mismatch"):
            power_op_oracle(2, f, 3, stability_bound(f, 2, 3))
        assert f.reduce_mod(5) == f


class TestDifferential:
    @pytest.mark.parametrize("ell", [3, 5])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_fast_equals_oracle_generators(self, j, ell):
        f = BPoly.generator(j, ell)
        for i in range(0, 5):
            r = stability_bound(f, i, ell)
            assert power_op(i, f, ell) == power_op_oracle(i, f, ell, r)

    def test_fast_equals_oracle_products(self):
        for mono in [((1, 2),), ((1, 1), (2, 1)), ((3, 1),)]:
            f = BPoly({mono: 1}, 3)
            for i in (2, 3, 4):
                r = stability_bound(f, i, 3)
                assert power_op(i, f, 3) == power_op_oracle(i, f, 3, r)

    def test_fast_equals_oracle_above_the_conversion_cap(self):
        # all pieces of b_14 reach weight 42, past the conversion cap of
        # 40; the index-2 operation needs only those of index <= 2
        f = BPoly.generator(14, 3)
        got = power_op(2, f, 3)
        assert got == power_op_oracle(2, f, 3, stability_bound(f, 2, 3))
        assert len(got.coeffs) == 4 and got.is_homogeneous() and got.weight == 32

    @pytest.mark.parametrize("ell, top", [(3, 8), (5, 6)])
    def test_fast_equals_oracle_on_every_monomial(self, ell, top):
        # every b-monomial of half-weight <= top, the unit included
        calls = 0
        for n in range(top + 1):
            for lam in enumerate_partitions(n):
                f = partition_to_bmono(lam, ell)
                for i in (2, 4, 6):
                    assert power_op(i, f, ell) == power_op_oracle(i, f, ell, stability_bound(f, i, ell)), (lam, i)
                    calls += 1
        assert calls == {3: 201, 5: 90}[ell]

    def test_oracle_p0_round_trips(self):
        f = bmono((2, 2), ell=3)
        r = stability_bound(f, 0, 3)
        assert power_op_oracle(0, f, 3, r) == f

    def test_oracle_rejects_small_r(self):
        f = BPoly.generator(2, 3)
        with pytest.raises(ValueError):
            power_op_oracle(2, f, 3, stability_bound(f, 2, 3) - 1)

    @pytest.mark.parametrize("ell", [3, 5])
    def test_r_stability(self, ell):
        for j in (1, 2):
            f = BPoly.generator(j, ell)
            for i in (2, 4):
                r = stability_bound(f, i, ell)
                assert power_op_oracle(i, f, ell, r) == power_op_oracle(i, f, ell, r + 3)


class TestStructure:
    def test_odd_operations_vanish(self):
        for ell in (3, 5):
            for w in range(0, 13, 2):
                for lam in enumerate_partitions(w // 2):
                    f = partition_to_bmono(lam, ell)
                    for i in (1, 3, 5):
                        assert power_op(i, f, ell).coeffs == {}
                        assert power_op_untwisted(i, f, ell).coeffs == {}

    def test_odd_vanishing_through_oracle(self):
        f = BPoly.generator(1, 3)
        for i in (1, 3):
            assert power_op_oracle(i, f, 3, stability_bound(f, i, 3)).coeffs == {}

    def test_bidegree(self):
        for ell in (3, 5):
            for j in (1, 2, 3):
                f = BPoly.generator(j, ell)
                for i in (2, 4, 6):
                    out = power_op(i, f, ell)
                    if out.coeffs:
                        assert out.is_homogeneous()
                        assert out.weight == f.weight + i * (ell - 1)

    def test_untwisted_instability_bound(self):
        # each root factor absorbs index at most 2, so a weight-2j class
        # supports nothing above index 2j on the classifying-space side
        for ell in (3, 5):
            for j in (1, 2, 3, 4):
                f = BPoly.generator(j, ell)
                for i in range(2 * j + 1, 2 * j + 6):
                    assert power_op_untwisted(i, f, ell).coeffs == {}

    @pytest.mark.parametrize("ell", [3, 5])
    def test_untwisted_top_operation_is_ell_th_power(self, ell):
        # instability: on a class of weight 2w the index-2w operation takes
        # every root to its ell-th power, so it is the ell-th power
        for w in range(1, 5):
            for lam in enumerate_partitions(w):
                f = partition_to_bmono(lam, ell)
                power = BPoly.one(ell)
                for _ in range(ell):
                    power = power * f
                assert power_op_untwisted(2 * w, f, ell) == power

    def test_twisted_action_exceeds_untwisted_bound(self):
        # the rank twist contributes in every even index: the naive bound
        # fails for the twisted action, already on the unit
        got = power_op(4, BPoly.generator(1, 3), 3)
        assert got.coeffs != {}

    def test_untwisted_cartan(self):
        rng = random.Random(23)
        for ell in (3, 5):
            monos = [lam for w in range(0, 9, 2) for lam in enumerate_partitions(w // 2)]
            for _ in range(20):
                f = partition_to_bmono(rng.choice(monos), ell)
                g = partition_to_bmono(rng.choice(monos), ell)
                for i in range(0, 7):
                    lhs = power_op_untwisted(i, f * g, ell)
                    rhs = BPoly.zero(ell)
                    for a in range(0, i + 1):
                        rhs = rhs + power_op_untwisted(a, f, ell) * power_op_untwisted(
                            i - a, g, ell
                        )
                    assert lhs == rhs

    def test_twisted_fails_literal_cartan_on_unit(self):
        # regression guard for the design note: the twisted action is not
        # multiplicative in the Cartan sense, the unit already witnesses it
        one = BPoly.one(3)
        lhs = power_op(2, one * one, 3)
        rhs = BPoly.zero(3)
        for a in (0, 1, 2):
            rhs = rhs + power_op(a, one, 3) * power_op(2 - a, one, 3)
        assert lhs != rhs


def adem_sum(twice, a, b, ell):
    """The right side of the Adem relation for P^a P^b, a < ell*b:
    sum over j of (-1)^(a+j) C((ell-1)(b-j)-1, a-ell*j) P^(a+b-j) P^j,
    where twice(k, j) is P^k P^j of the input."""
    total = BPoly.zero(ell)
    for j in range(a // ell + 1):
        c = (-1) ** (a + j) * comb((ell - 1) * (b - j) - 1, a - ell * j)
        total = total + twice(a + b - j, j).scale(c)
    return total


def composites(action, f, ell):
    """twice(k, j) = P^k P^j f under action, P^k of index 2k, each
    operation computed once."""
    first, second = {}, {}

    def twice(k, j):
        if (k, j) not in second:
            if j not in first:
                first[j] = action(2 * j, f, ell)
            second[k, j] = action(2 * k, first[j], ell)
        return second[k, j]

    return twice


ADEM_INPUTS = [(), ((1, 1),), ((2, 1),), ((3, 1),), ((1, 2),), ((1, 1), (2, 1))]


class TestAdemRelations:
    @pytest.mark.parametrize("action", [power_op, power_op_untwisted])
    def test_adem_range(self, action):
        # both actions are reduced power operations: the twisted one is
        # P(f * e_r) / e_r, so P^a P^b through it is P^a P^b (f * e_r) / e_r
        checked = 0
        for ell in (3, 5):
            for mono in ADEM_INPUTS:
                twice = composites(action, BPoly({mono: 1}, ell), ell)
                for a, b in itertools.product(range(1, 5), range(1, 4)):
                    if a < ell * b:
                        assert twice(a, b) == adem_sum(twice, a, b, ell), (ell, mono, a, b)
                        checked += 1
        assert checked == 132

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([lam for w in range(5) for lam in enumerate_partitions(w)]),
        st.sampled_from([3, 5]),
        st.sampled_from([power_op, power_op_untwisted]),
        st.integers(1, 4),
        st.integers(1, 2),
    )
    def test_adem_on_random_monomials(self, lam, ell, action, a, b):
        if a >= ell * b:
            a = ell * b - 1
        twice = composites(action, partition_to_bmono(lam, ell), ell)
        assert twice(a, b) == adem_sum(twice, a, b, ell)


# P40(b1^30) at prime 3, recorded from the tuple-keyed assembly: 39 terms
# reaching b_40 and exponent 37, where a key of 6-bit fields with a guard
# bit would hold exponents up to 31 only
P40_B1_30_AT_3 = [
    (((1, 30), (2, 1), (38, 1)), 2), (((1, 30), (3, 1), (37, 1)), 1),
    (((1, 30), (4, 1), (36, 1)), 2), (((1, 30), (5, 1), (35, 1)), 1),
    (((1, 30), (6, 1), (34, 1)), 2), (((1, 30), (7, 1), (33, 1)), 1),
    (((1, 30), (8, 1), (32, 1)), 2), (((1, 30), (9, 1), (31, 1)), 1),
    (((1, 30), (10, 1), (30, 1)), 2), (((1, 30), (11, 1), (29, 1)), 1),
    (((1, 30), (12, 1), (28, 1)), 2), (((1, 30), (13, 1), (27, 1)), 1),
    (((1, 30), (14, 1), (26, 1)), 2), (((1, 30), (15, 1), (25, 1)), 1),
    (((1, 30), (16, 1), (24, 1)), 2), (((1, 30), (17, 1), (23, 1)), 1),
    (((1, 30), (18, 1), (22, 1)), 2), (((1, 30), (19, 1), (21, 1)), 1), (((1, 30), (20, 2)), 1),
    (((1, 30), (40, 1)), 2), (((1, 31), (39, 1)), 1), (((1, 36), (2, 1), (32, 1)), 1),
    (((1, 36), (3, 1), (31, 1)), 2), (((1, 36), (4, 1), (30, 1)), 1),
    (((1, 36), (5, 1), (29, 1)), 2), (((1, 36), (6, 1), (28, 1)), 1),
    (((1, 36), (7, 1), (27, 1)), 2), (((1, 36), (8, 1), (26, 1)), 1),
    (((1, 36), (9, 1), (25, 1)), 2), (((1, 36), (10, 1), (24, 1)), 1),
    (((1, 36), (11, 1), (23, 1)), 2), (((1, 36), (12, 1), (22, 1)), 1),
    (((1, 36), (13, 1), (21, 1)), 2), (((1, 36), (14, 1), (20, 1)), 1),
    (((1, 36), (15, 1), (19, 1)), 2), (((1, 36), (16, 1), (18, 1)), 1), (((1, 36), (17, 2)), 1),
    (((1, 36), (34, 1)), 1), (((1, 37), (33, 1)), 2),
]


def thom_pairings(dims, ell, action) -> list[int]:
    """On M, the product of projective spaces of the given dimensions, of
    complex dimension n, with stable normal bundle nu = -T_M: for each
    t >= 1 and each b-monomial f of half-weight n - t(ell - 1), the pairing
    sum over J of coeff_J(action(2t, f, ell)) c_J(nu)[M] mod ell, reading
    b_j as the Chern class c_j = cf_chern(nu, (1,)*j)."""
    M = chow.ProjProduct(dims)
    n, nu = M.total_dimension, -chow.tangent_bundle(M)
    chern = [chow.cf_chern(nu, (1,) * j) for j in range(n + 1)]
    numbers: dict = {}

    def number(J) -> int:
        if J not in numbers:
            c = chow.ChowClass.one(M)
            for j, k in J:
                for _ in range(k):
                    c = c * chern[j]
            numbers[J] = chow.deg(c)
        return numbers[J]

    pairings = []
    for t in range(1, n // (ell - 1) + 1):
        for lam in enumerate_partitions(n - t * (ell - 1)):
            image = action(2 * t, partition_to_bmono(lam, ell), ell)
            pairings.append(sum(c * number(J) for J, c in image.coeffs.items()) % ell)
    return pairings


class TestThomRelations:
    """The Hurewicz image of a closed stably complex manifold M is
    spherical, so every operation of positive index on the Thom class
    pairs to zero with [M]: the operations through the rank twist kill the
    Chern numbers of the stable normal bundle mod ell (Milnor and Stasheff,
    Characteristic Classes, 1974; Stong, Notes on Cobordism Theory, 1968).
    This ties the geometry of `chow` to the action of `steenrod`."""

    SPACES = [tuple(lam) for n in range(1, 7) for lam in enumerate_partitions(n)]

    @pytest.mark.parametrize("ell, relations", [(3, 136), (5, 34)])
    def test_positive_operations_kill_the_chern_numbers(self, ell, relations):
        count = 0
        for dims in self.SPACES:
            pairings = thom_pairings(dims, ell, power_op)
            assert not any(pairings), dims
            count += len(pairings)
        assert count == relations

    @pytest.mark.parametrize(
        "ell, spaces",
        [
            (3, [(3,), (4,), (3, 1), (4, 1), (3, 1, 1), (6,), (4, 1, 1), (3, 3), (3, 1, 1, 1)]),
            (5, [(5,), (6,), (5, 1)]),
        ],
    )
    def test_the_untwisted_action_fails_them(self, ell, spaces):
        # the classifying-space action is not the Thom-spectrum one
        for dims in spaces:
            assert any(thom_pairings(dims, ell, power_op_untwisted)), dims


@st.composite
def packed_keys(draw):
    """(keys, field width, field count): keys of up to 12 fields of 8 to
    10 bits, some fields zero and some full."""
    width = draw(st.integers(8, 10))
    mask = (1 << width) - 1
    count = draw(st.integers(1, 12))
    field = st.one_of(st.just(0), st.just(mask), st.integers(0, mask))
    keys = draw(st.lists(st.lists(field, min_size=count, max_size=count), max_size=20))
    shifts = range(0, width * count, width)
    return [sum(e << s for e, s in zip(exps, shifts)) for exps in keys], width, count


class TestDecode:
    @given(packed_keys())
    @settings(max_examples=300, deadline=None)
    def test_equals_unpack_without_zero_fields(self, drawn):
        keys, width, count = drawn
        unpacked = unpack(dict.fromkeys(keys, 1), range(0, width * count, width), (1 << width) - 1)
        want = [tuple([(g, e) for g, e in enumerate(exps, 1) if e]) for exps in unpacked]
        assert [_decode(key, width) for key in dict.fromkeys(keys)] == want


def clear_assembly_caches():
    for cached in (_monomial_op, _decode):
        cached.cache_clear()


# every b-monomial of weight <= 12, the constant one included
SMALL_BMONOS = [as_bmono(lam) for n in range(7) for lam in enumerate_partitions(n)]


@st.composite
def small_bpolys(draw):
    ell = draw(st.sampled_from([3, 5, 7]))
    terms = draw(st.dictionaries(st.sampled_from(SMALL_BMONOS), st.integers(1, ell - 1), min_size=1, max_size=6))
    return BPoly(terms, ell), ell


class TestMonomialCache:
    def test_one_miss_per_distinct_prefix(self):
        # both actions at one index share every prefix and power; each index
        # cuts its own.  A factor b_j**k is built from b_j**(k-1) down to b_j
        monos = [as_bmono(lam) for lam in enumerate_partitions(8)]
        prefixes = {mono[:k] for mono in monos for k in range(1, len(mono) + 1)}
        powers = {((j, m),) for mono in monos for j, k in mono for m in range(1, k + 1)}
        _monomial_op.cache_clear()
        for i in (2, 4):
            for mono in monos:
                for action in (power_op, power_op_untwisted):
                    action(i, BPoly({mono: 1}, 3), 3)
        assert _monomial_op.cache_info().misses == 2 * len(prefixes | powers) == 86

    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 4), st.sampled_from([3, 5, 7]))
    @settings(max_examples=150, deadline=None)
    def test_power_entry_is_the_repeated_product_of_the_pieces(self, j, k, t, ell):
        # b_j**k as k products of b_j's pieces from the unit, none read from the cache
        width = (j * k + t * (ell - 1)).bit_length() + 1
        pieces = [
            _packed_piece((ell,) * a + (1,) * (j - a), ell, width) if a <= j else {}
            for a in range(t + 1)
        ]
        power = [{0: 1}] + [{} for _ in range(t)]
        for _ in range(k):
            power = _add_product([{} for _ in pieces], power, pieces)
        want = [clean(p, ell) for p in power]
        assert [dict(p) for p in _monomial_op(((j, k),), t, ell, width)] == want

    @given(small_bpolys(), st.sampled_from([2, 4, 6]), st.sampled_from([power_op, power_op_untwisted]))
    @settings(max_examples=80, deadline=None)
    def test_cold_warm_and_termwise_answers_agree(self, drawn, i, action):
        f, ell = drawn
        clear_assembly_caches()
        cold = list(action(i, f, ell).coeffs.items())
        clear_assembly_caches()
        for other in sorted([2, 4, 6], key=lambda j: j == i):  # the caches of other cuts first
            action(other, f, ell)
        assert list(action(i, f, ell).coeffs.items()) == cold
        termwise = Counter()
        for mono, c in f.coeffs.items():
            termwise.update(action(i, BPoly({mono: c}, ell), ell).coeffs)
        assert dict(cold) == {mono: r for mono, c in termwise.items() if (r := c % ell)}

    def test_coefficient_two_gives_twice_the_answer(self):
        # the cached operation is scaled into a copy: asking with 1 again is unchanged
        mono = ((1, 2), (3, 1))
        clear_assembly_caches()
        once = list(power_op(4, BPoly({mono: 1}, 5), 5).coeffs.items())
        twice = list(power_op(4, BPoly({mono: 2}, 5), 5).coeffs.items())
        assert twice == [(key, 2 * c % 5) for key, c in once]
        assert list(power_op(4, BPoly({mono: 1}, 5), 5).coeffs.items()) == once


class TestPackedKeysAtTheWeightCap:
    def test_untwisted_top_operation_of_b1_30(self):
        # instability: P60 of a weight-60 class is its cube; the exponent
        # 90 does not fit a 6-bit field
        f = BPoly({((1, 30),): 1}, 3)
        assert power_op_untwisted(60, f, 3).coeffs == {((1, 90),): 1}

    def test_recorded_p40_of_b1_30(self):
        got = power_op(40, BPoly({((1, 30),): 1}, 3), 3)
        assert sorted(got.coeffs.items()) == P40_B1_30_AT_3


def _in_small_process(*argv):
    """argv in a child Python limited to 512 MB of address space and 10 s,
    so an allocation sized by the index fails the child, not the run."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


class TestLargeIndices:
    def test_untwisted_above_the_weight_is_zero_at_once(self):
        code = (
            "from cobcalc.steenrod import power_op_untwisted\n"
            "from cobcalc.symfun import BPoly\n"
            "for f in (BPoly.one(3), BPoly.generator(1, 3), BPoly({((1, 2), (3, 1)): 1}, 3)):\n"
            "    assert power_op_untwisted(10**12, f, 3).coeffs == {}\n"
        )
        done = _in_small_process("-c", code)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("cls", ["b1", "1"])
    def test_untwisted_cli_above_the_weight_is_empty(self, cls):
        done = _in_small_process(
            "-m", "cobcalc.cli", "steenrod", "--untwisted", "--prime", "3",
            "--op", "P2000000000", "--class", cls,
        )
        assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "[]", "")

    def test_zero_class_stays_zero(self):
        # 3*b1 is zero mod 3: no twist runs, so no conversion cap applies
        zero = BPoly({((1, 1),): 3}, 3)
        for op in (power_op, power_op_untwisted):
            assert op(42, zero, 3).coeffs == {}
        code = (
            "from cobcalc.steenrod import power_op, power_op_untwisted\n"
            "from cobcalc.symfun import BPoly\n"
            "for op in (power_op, power_op_untwisted):\n"
            "    assert op(10**12, BPoly({((1, 1),): 3}, 3), 3).coeffs == {}\n"
        )
        done = _in_small_process("-c", code)
        assert done.returncode == 0, done.stderr

    def test_zero_class_cli(self):
        done = _in_small_process(
            "-m", "cobcalc.cli", "steenrod", "--prime", "3", "--op", "P42", "--class", "3*b1"
        )
        assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "[]", "")


GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens" / "power_ops.json"


def _golden_case(key):
    """'3:P4:b1^2*b2' as (index, b-monomial, prime)."""
    ell, op, mono = key.split(":")
    pairs = []
    for factor in mono.split("*"):
        b, _, k = factor.partition("^")
        pairs.append((int(b[1:]), int(k or 1)))
    return int(op[1:]), tuple(pairs), int(ell)


def apply_graded_piece(p: dict, t: int, ell: int, lay: tuple) -> dict:
    """Index-2t piece of the total operation applied to the packed root
    polynomial p: raise slots by t steps in all, each at most once, a slot
    of exponent a raised k times gaining k*(ell-1) at the factor C(a, k),
    from a table by exponent built by Pascal's rule mod ell.  One pass over
    a term's slots completes, at each slot, the partial raises of the slots
    before it straight into the output, one dict update per root monomial
    of the piece.  The coefficients are left unreduced, some 0 mod ell:
    callers reduce them.  With `divide_and_collect` it is the literal
    route, the reference `TestOrbitRoute` holds `power_op_oracle` to."""
    if t == 0:
        return p
    shifts, mask, _ = lay
    row, raises = [1] + [0] * t, []
    for _ in range(mask // 2 + 1):  # the guard bit of a field stays clear
        raises.append(tuple((k, k * (ell - 1), b) for k, b in enumerate(row) if k and b))
        row = [1] + [(x + y) % ell for x, y in zip(row[1:], row)]
    partial = [tuple(r for r in opts if r[0] < t) for opts in raises]
    middle = range(t - 2, 0, -1)
    out: dict = {}
    get = out.get
    for key, c in p.items():
        levels = [[] for _ in range(t)]  # levels[u]: (key, coefficient) raised u steps
        for s in shifts:
            a = key >> s & mask
            for k, d, b in raises[a]:
                d <<= s
                if k == t:
                    z = key + d
                    out[z] = get(z, 0) + c * b
                    continue
                for x, y in levels[t - k]:
                    z = x + d
                    out[z] = get(z, 0) + y * b
            # the slot's partials, built from the levels before they take it
            opts = partial[a]
            for used in middle:
                if src := levels[used]:
                    for k, d, b in opts:
                        if used + k >= t:
                            break
                        d <<= s
                        levels[used + k] += [(x + d, y * b) for x, y in src]
            for k, d, b in opts:
                levels[k].append((key + (d << s), c * b))
    return out


def divide_and_collect(p: dict, lay: tuple, ell: int | None = None) -> dict:
    """The literal route's last step: divide the packed root polynomial p
    exactly by e_r and collect the quotient into monomial-symmetric
    coordinates (descending tuples of parts).  With ell given, each
    coefficient is reduced mod ell as it is read, and a term that vanishes
    is skipped and not counted, so an unreduced p needs no reduced copy.
    Both checks run on every term that remains.  Division subtracts 1
    from every field, so it needs every field at least 1: with all guard
    bits set, subtracting ones borrows from no guard.  It keeps the number
    of terms and the order of the fields, so only the sorted
    representatives are divided and unpacked: field m minus field m+1 (the
    key shifted down one field) borrows from no guard exactly when the
    exponents never rise.  The orbits of the representatives must account
    for every term, or the quotient is not symmetric."""
    shifts, mask, guard = lay
    w = mask.bit_length()
    ones = guard >> (w - 1)
    quotient, count = {}, 0
    for key, c in p.items():
        if ell is not None and not (c := c % ell):
            continue
        count += 1
        high = key | guard
        if (high - ones) & guard != guard:
            raise ArithmeticError("graded piece not divisible by e_r")
        if (high - (key >> w)) & guard == guard:
            quotient[key - ones] = c
    quotient = unpack(quotient, shifts, mask)
    if sum(multinomial(len(e), list(Counter(e).values())) for e in quotient) != count:
        raise ArithmeticError("root polynomial is not symmetric")
    return {tuple(x for x in e if x): c for e, c in quotient.items()}


class TestPackedOracle:
    def test_recorded_twisted_answers(self):
        # recorded from the tuple-keyed root expansion at its stability bound
        with open(GOLDENS, encoding="utf-8") as fh:
            twisted = json.load(fh)["twisted"]
        assert len(twisted) == 49
        for key, want in twisted.items():
            i, mono, ell = _golden_case(key)
            f = BPoly({mono: 1}, ell)
            got = power_op_oracle(i, f, ell, stability_bound(f, i, ell))
            rows = sorted([[list(map(list, m)), c] for m, c in got.coeffs.items()])
            assert rows == want, key

    def test_divisibility_check(self):
        lay = layout(3, 4)
        with pytest.raises(ArithmeticError, match="not divisible"):
            divide_and_collect(pack({(2, 0, 1): 1}, lay[0]), lay)

    def test_symmetry_check(self):
        lay = layout(2, 3)
        shifts = lay[0]
        with pytest.raises(ArithmeticError, match="not symmetric"):
            divide_and_collect(pack({(3, 2): 1}, shifts), lay)
        # the whole orbit divides to m_(2,1)
        whole = pack({(3, 2): 2, (2, 3): 2}, shifts)
        assert divide_and_collect(whole, lay) == {Partition((2, 1)): 2}

    def test_unreduced_terms_that_vanish_are_skipped(self):
        # mod 5: (3, 2) and (2, 3) leave 2 each, and (0, 4), which e_2
        # does not divide, and (1, 4), outside the orbit, vanish
        lay = layout(2, 4)
        p = pack({(3, 2): 7, (2, 3): 12, (0, 4): 10, (1, 4): 5}, lay[0])
        assert divide_and_collect(p, lay, 5) == {Partition((2, 1)): 2}

    def test_unreduced_nonzero_term_not_divisible(self):
        lay = layout(2, 4)
        p = pack({(3, 2): 7, (2, 3): 12, (0, 4): 11}, lay[0])
        with pytest.raises(ArithmeticError, match="not divisible"):
            divide_and_collect(p, lay, 5)

    def test_unreduced_orbits_count_nonzero_residues(self):
        # (2, 3) vanishes mod 5, so (3, 2) alone is an asymmetric remainder,
        # though the dict holds the whole orbit
        lay = layout(2, 4)
        with pytest.raises(ArithmeticError, match="not symmetric"):
            divide_and_collect(pack({(3, 2): 2, (2, 3): 5}, lay[0]), lay, 5)

    def test_unreduced_graded_piece_divides_as_its_reduction(self):
        # the index-4 piece of (m_(3,1,1,1) + m_(2,2,1,1)) in four roots at
        # l = 3: C(3, k) = 0 mod 3 for k = 1, 2, so the m_(3,1,1,1) part
        # raises two 1s, each of its terms reached three times
        ell, t = 3, 2
        lay = layout(4, 3 + t * (ell - 1))
        roots = {e: 1 for base in ((3, 1, 1, 1), (2, 2, 1, 1)) for e in itertools.permutations(base)}
        piece = apply_graded_piece(pack(roots, lay[0]), t, ell, lay)
        assert any(c % ell == 0 for c in piece.values()) and any(c % ell for c in piece.values())
        assert divide_and_collect(piece, lay, ell) == divide_and_collect(clean(piece, ell), lay)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_field_of_all_ones_round_trips(self, k):
        top = 2**k - 1
        shifts, mask, guard = lay = layout(4, top)
        assert mask == 2 ** (k + 1) - 1 and list(shifts) == [0, k + 1, 2 * k + 2, 3 * k + 3]
        assert guard == sum(2**k << s for s in shifts)
        for e in [(top, 0, top, 1), (0, top, 0, 0), (top,) * 4]:
            assert unpack(pack({e: 1}, shifts), shifts, mask) == {e: 1}
        # both checks hold at the widest field: the quotient of
        # x1**top x2**top x3 x4 and its orbit is m_(top-1, top-1)
        orbit = set(itertools.permutations((top, top, 1, 1)))
        got = divide_and_collect(pack(dict.fromkeys(orbit, 1), shifts), lay)
        assert got == {Partition(tuple(x for x in (top - 1, top - 1) if x)): 1}

    def test_one_sorted_representative_per_orbit(self):
        # a lone representative that is not the sorted one, or two of one
        # orbit, would break the count of the symmetry check
        rng = random.Random(11)
        for _ in range(200):
            r = rng.randint(1, 5)
            e = tuple(rng.randint(1, 7) for _ in range(r))
            lay = layout(r, 7)
            orbit = set(itertools.permutations(e))
            p = pack(dict.fromkeys(orbit, 1), lay[0])
            lam = tuple(x - 1 for x in sorted(e, reverse=True) if x > 1)
            assert divide_and_collect(p, lay) == {Partition(lam): 1}
            if len(orbit) > 1:
                (gone,) = pack({rng.choice(sorted(orbit)): 1}, lay[0])
                del p[gone]
                with pytest.raises(ArithmeticError, match="not symmetric"):
                    divide_and_collect(p, lay)


@st.composite
def root_polynomials(draw):
    """(ell, roots, t, p): p a tuple-keyed polynomial in up to 6 roots,
    exponents up to 6, with index 2t up to 8."""
    ell = draw(st.sampled_from([3, 5, 7]))
    r = draw(st.integers(1, 6))
    t = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 6)] * r)
    return ell, r, t, draw(st.dictionaries(exps, st.integers(-30, 30), max_size=8))


class TestGradedPiece:
    @given(root_polynomials())
    @settings(max_examples=200, deadline=None)
    def test_equals_slot_by_slot_expansion(self, drawn):
        # the index-2t piece of each term is the part of the public literal
        # expansion that raises its degree by t(ell - 1)
        ell, r, t, p = drawn
        shifts, mask, _ = lay = layout(r, 6 + t * (ell - 1))
        got = apply_graded_piece(pack(p, shifts), t, ell, lay)
        want = Counter()
        for exps, c in p.items():
            top = sum(exps) + t * (ell - 1)
            want.update({e: c * y for e, y in total_power_on_monomial(exps, ell).items() if sum(e) == top})
        assert unpack(clean(got, ell), shifts, mask) == clean(want, ell)


@st.composite
def orbit_polynomials(draw):
    """(ell, roots, t, reps): a symmetric polynomial in up to 6 roots,
    exponents up to 6, by its orbit representatives (descending tuples),
    with index 2t up to 8."""
    ell = draw(st.sampled_from([3, 5, 7]))
    r = draw(st.integers(1, 6))
    t = draw(st.integers(0, 4))
    rep = st.lists(st.integers(0, 6), min_size=r, max_size=r).map(lambda e: tuple(sorted(e, reverse=True)))
    return ell, r, t, draw(st.dictionaries(rep, st.integers(-30, 30).filter(bool), max_size=8))


def literal_piece(reps: dict, r: int, t: int, ell: int) -> dict:
    """The literal route on reps: every orbit expanded into root monomials
    times e_r, the graded piece applied term by term, the quotient by e_r
    collected."""
    lay = layout(r, 7 + t * (ell - 1))
    roots = {e: c for rep, c in reps.items() for e in set(itertools.permutations(x + 1 for x in rep))}
    return divide_and_collect(apply_graded_piece(pack(roots, lay[0]), t, ell, lay), lay, ell)


def factorial_dropped(pattern):
    """A copy of `_orbit_raise` with the multiplicity factorial at pattern
    taken out, compiled in the module's namespace."""
    source = inspect.getsource(steenrod._orbit_raise)
    assert source.count(pattern) == 1
    namespace = dict(vars(steenrod))
    exec(source.replace(pattern, "1"), namespace)
    return namespace["_orbit_raise"]


class TestOrbitRoute:
    @given(orbit_polynomials())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_literal_route(self, drawn):
        ell, r, t, reps = drawn
        assert _orbit_piece(reps, t, ell) == literal_piece(reps, r, t, ell)

    @pytest.mark.parametrize(
        "pattern", ["factorial(m)", "factorial(left)", "prod(map(factorial, Counter(mu).values()))"]
    )
    @pytest.mark.parametrize("j, ell", [(0, 3), (2, 3), (2, 5)])
    def test_a_dropped_multiplicity_factorial_fails_the_vandermonde_count(self, monkeypatch, pattern, j, ell):
        f = BPoly.generator(j, ell) if j else BPoly.one(ell)
        r = stability_bound(f, 4, ell)
        assert power_op_oracle(4, f, ell, r) == power_op(4, f, ell)
        monkeypatch.setattr(steenrod, "_orbit_raise", factorial_dropped(pattern))
        with pytest.raises(ArithmeticError, match="Vandermonde"):
            power_op_oracle(4, f, ell, r)

    def test_p6_of_b4_at_5_is_quick(self):
        # the literal expansion wrote 1.1 million root monomials here
        f = BPoly.generator(4, 5)
        power_op_oracle(6, f, 5, stability_bound(f, 6, 5))  # the conversion tables, cold
        started = time.process_time()
        got = power_op_oracle(6, f, 5, stability_bound(f, 6, 5))
        assert time.process_time() - started < 0.05
        assert got == power_op(6, f, 5)


def converted_piece(parts, ell, width):
    """m_parts mod ell through the elementary-basis conversion, packed as
    the fast path packs it, in the conversion's key order."""
    piece = symfn_to_bpoly(SymFn({Partition(parts): 1}, "monomial", ell))
    return [(sum(k << (g - 1) * width for g, k in mono), c) for mono, c in piece.coeffs.items()]


class TestClosedFormPieces:
    # the key order matters: the answer's term order, which the recorded
    # reprs pin, follows the order of the pieces
    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
    def test_twist_pieces_equal_the_conversion(self, ell):
        top = 20 if ell == 3 else 24 // (ell - 1)
        for b in range(top + 1):
            parts = (ell - 1,) * b
            assert list(_packed_piece(parts, ell, 8).items()) == converted_piece(parts, ell, 8), b

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_single_monomial_untwisted_pieces(self, ell):
        # m_(1^j) = b_j, and m_(ell^j) = b_j**ell mod ell (Frobenius)
        for j in range(1, 24 // ell + 1):
            for parts in ((1,) * j, (ell,) * j):
                assert list(_packed_piece(parts, ell, 8).items()) == converted_piece(parts, ell, 8)
