import itertools
import math
import random
import time
from collections import Counter

import pytest

from cobcalc.chow import (
    ChowClass,
    LineTerm,
    ProjProduct,
    VirtualBundle,
    alpha,
    cf_chern,
    deg,
    line_bundle,
    newton_class,
    tangent_bundle,
    trivial_bundle,
)
from cobcalc.partitions import Partition, enumerate_partitions
from cobcalc.valuation import multinomial

P1 = ProjProduct((1,))
P3 = ProjProduct((3,))
P1xP1 = ProjProduct((1, 1))
P1_4 = ProjProduct((1, 1, 1, 1))
P3x2 = ProjProduct((3, 3))


class TestRing:
    def test_alpha_examples(self):
        assert alpha(P1_4).coeffs == {
            (1, 0, 0, 0): 1,
            (0, 1, 0, 0): 1,
            (0, 0, 1, 0): 1,
            (0, 0, 0, 1): 1,
        }
        assert alpha(P3).coeffs == {(1,): 1}
        assert alpha(P3x2).coeffs == {(1, 0): 1, (0, 1): 1}

    def test_truncation_on_p1(self):
        a = alpha(P1)
        assert (a * a).coeffs == {}

    def test_square_on_p1xp1(self):
        a = alpha(P1xP1)
        assert (a * a).coeffs == {(1, 1): 2}

    def test_pow_with_truncation(self):
        assert (alpha(P3x2) ** 6).coeffs == {(3, 3): 20}

    def test_power_stops_once_zero(self):
        # P^1 x P^1 is zero above degree 2, so 10**8 factors must not be
        # multiplied out one by one
        start = time.process_time()
        assert (alpha(P1xP1) ** 10**8).coeffs == {}
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize("c0", [1, 2])
    def test_power_with_constant_term_matches_repeated_products(self, c0):
        # (c0 + alpha)**n by the binomial expansion against n products
        base = ChowClass.one(P1xP1).scale(c0) + alpha(P1xP1)
        want = ChowClass.one(P1xP1)
        for n in range(7):
            assert base**n == want
            want = want * base

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            alpha(P1) * alpha(P3)

    def test_deg_examples(self):
        assert deg(alpha(P1_4) ** 4) == 24
        assert deg(alpha(P3x2)) == 0
        assert deg(alpha(P3x2) ** 6) == 20

    @pytest.mark.parametrize("dims", [p for w in range(2, 11) for p in enumerate_partitions(w)])
    def test_top_degree_matches_multinomial(self, dims):
        space = ProjProduct(tuple(dims))
        n = space.total_dimension
        assert deg(alpha(space) ** n) == multinomial(n, space.dims)

    def test_top_degree_matches_multinomial_larger(self):
        for dims in [(1,) * 12, (3, 3, 3, 3), (5, 5, 1, 1), (7, 3, 1, 1), (1,) * 14]:
            space = ProjProduct(dims)
            n = space.total_dimension
            assert deg(alpha(space) ** n) == multinomial(n, dims)


class TestBundles:
    def test_tangent_p1(self):
        t = tangent_bundle(P1)
        assert sorted((term.sign, term.twist) for term in t.terms) == [
            (-1, (0,)),
            (1, (1,)),
            (1, (1,)),
        ]

    def test_tangent_p1xp1(self):
        t = tangent_bundle(P1xP1)
        assert sorted((term.sign, term.twist) for term in t.terms) == [
            (-1, (0, 0)),
            (-1, (0, 0)),
            (1, (0, 1)),
            (1, (0, 1)),
            (1, (1, 0)),
            (1, (1, 0)),
        ]

    def test_virtual_rank_is_dimension(self):
        for dims in [(1,), (3,), (1, 1), (3, 3), (5, 1, 1, 1)]:
            space = ProjProduct(dims)
            assert tangent_bundle(space).virtual_rank == space.total_dimension

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            LineTerm(2, (1,))


class TestNewton:
    def test_hyperbolic_sum_on_p3(self):
        v = line_bundle(P3, (1,)) + line_bundle(P3, (-1,))
        assert newton_class(v, 2).coeffs == {(2,): 2}

    def test_tangent_p1xp1_vanishes(self):
        assert newton_class(tangent_bundle(P1xP1), 2).coeffs == {}

    def test_trivial_bundle(self):
        v = trivial_bundle(P3) + trivial_bundle(P3)
        for n in range(1, 4):
            assert newton_class(v, n).coeffs == {}

    def test_additive(self):
        rng = random.Random(7)
        space = ProjProduct((2, 3))
        for _ in range(20):
            v = _random_bundle(rng, space)
            w = _random_bundle(rng, space)
            for n in range(1, 5):
                lhs = newton_class(v + w, n)
                assert lhs == newton_class(v, n) + newton_class(w, n)

    def test_decomposable_vanishing(self):
        # >= 2 factors, every factor dimension < n, total dimension n
        for w in range(2, 11):
            for dims in enumerate_partitions(w):
                if len(dims) < 2 or dims[0] >= w:
                    continue
                space = ProjProduct(tuple(dims))
                assert deg(newton_class(tangent_bundle(space), w)) == 0


def _random_bundle(rng, space, max_terms=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        twist = tuple(rng.randint(-2, 2) for _ in space.dims)
        terms.append(LineTerm(rng.choice((1, -1)), twist))
    return VirtualBundle(space, tuple(terms))


class TestConnerFloyd:
    def test_single_part_is_newton(self):
        rng = random.Random(11)
        space = ProjProduct((3, 2))
        for _ in range(10):
            v = _random_bundle(rng, space)
            for n in range(1, 7):
                assert cf_chern(v, (n,)) == newton_class(v, n)

    def test_single_root_two_parts_vanish(self):
        assert cf_chern(line_bundle(P3, (1,)), (1, 1)).coeffs == {}

    def test_inverse_line_bundle_quadratic(self):
        # fixed by the formal inversion oracle: the coefficient of the
        # two-slot variable in the inverse of 1 + a t1 + a^2 t2 + ... is -a^2,
        # consistent with the Newton single-part specialization
        got = cf_chern(line_bundle(P3, (1,), sign=-1), (2,))
        assert got.coeffs == {(2,): -1}
        assert got == newton_class(line_bundle(P3, (1,), sign=-1), 2)

    def test_inverse_line_bundle_closed_form(self):
        # t_J of 1/(1 + a t1 + a^2 t2 + ...) is (-1)^len(J) len(J)!/prod(mult!) a^|J|
        v = line_bundle(P3, (1,), sign=-1)
        assert cf_chern(v, (1, 1)).coeffs == {(2,): 1}
        assert cf_chern(v, (2, 1)).coeffs == {(3,): 2}
        assert cf_chern(v, (1, 1, 1)).coeffs == {(3,): -1}

    def test_positive_bundles_against_assignment_oracle(self):
        rng = random.Random(19)
        for dims in [(3,), (2, 2), (3, 1, 1)]:
            space = ProjProduct(dims)
            for _ in range(6):
                w = _random_positive_bundle(rng, space)
                for t in range(space.total_dimension + 2):
                    for I in enumerate_partitions(t):
                        assert cf_chern(w, I) == _cf_by_assignment(w, I), (dims, w, I)

    def test_signed_bundles_product_rule_against_oracle(self):
        # c(w - u) c(u) = c(w): sum over J + K = I of c_J(w - u) c_K(u)
        rng = random.Random(23)
        for dims in [(3,), (2, 2), (2, 1, 1)]:
            space = ProjProduct(dims)
            for _ in range(6):
                w = _random_positive_bundle(rng, space)
                u = _random_positive_bundle(rng, space)
                for t in range(space.total_dimension + 1):
                    for I in enumerate_partitions(t):
                        acc = ChowClass.zero(space)
                        for J in _sub_multisets(I):
                            K = _subtract_multiset(I, J)
                            acc = acc + cf_chern(w + (-u), J) * cf_chern(u, K)
                        assert acc == _cf_by_assignment(w, I), (dims, w, u, I)

    def test_product_rule(self):
        rng = random.Random(13)
        space = ProjProduct((2, 2))
        for _ in range(8):
            v = _random_bundle(rng, space, 2)
            w = _random_bundle(rng, space, 2)
            both = _cf_series(v + w, 4)
            sv, sw = _cf_series(v, 4), _cf_series(w, 4)
            for I in [p for t in range(5) for p in enumerate_partitions(t)]:
                acc = ChowClass.zero(space)
                for p1, c1 in sv.items():
                    rest = _subtract_multiset(I, p1)
                    if rest is not None and rest in sw:
                        acc = acc + c1 * sw[rest]
                assert both.get(Partition(I), ChowClass.zero(space)) == acc

    def test_group_homomorphism_telescopes(self):
        rng = random.Random(17)
        space = ProjProduct((2, 1))
        for _ in range(10):
            v = _random_bundle(rng, space)
            series = _cf_series(v + (-v), 4)
            assert set(series) == {Partition()}
            assert series[Partition()] == ChowClass.one(space)


def _cf_series(v, cap):
    """Nonzero classes c_I(v) for |I| <= cap, keyed by I."""
    series = {}
    for t in range(cap + 1):
        for I in enumerate_partitions(t):
            c = cf_chern(v, I)
            if c.coeffs:
                series[I] = c
    return series


def _random_positive_bundle(rng, space, max_terms=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        twist = tuple(rng.randint(-2, 2) for _ in space.dims)
        terms.append(LineTerm(1, twist))
    return VirtualBundle(space, tuple(terms))


def _cf_by_assignment(w, I):
    """Oracle for a bundle with positive terms only: m_I of the roots, as
    the sum over injective assignments of the parts of I to the terms of
    the product of root**part, divided by the symmetries of equal parts."""
    roots = [w.first_chern(term) for term in w.terms]
    total = ChowClass.zero(w.space)
    for slots in itertools.permutations(range(len(roots)), len(I)):
        term = ChowClass.one(w.space)
        for slot, part in zip(slots, I):
            term = term * roots[slot] ** part
        total = total + term
    symmetries = math.prod(math.factorial(m) for m in Counter(I).values())
    assert all(c % symmetries == 0 for c in total.coeffs.values())
    return ChowClass(w.space, {e: c // symmetries for e, c in total.coeffs.items()})


def _sub_multisets(whole):
    """Each sub-multiset of the parts of whole once, as a Partition."""
    counts = sorted(Counter(whole).items())
    for picks in itertools.product(*(range(m + 1) for _, m in counts)):
        yield Partition(x for (x, _), k in zip(counts, picks) for _ in range(k))


def _subtract_multiset(whole, part):
    remaining = list(whole)
    for x in part:
        if x in remaining:
            remaining.remove(x)
        else:
            return None
    return Partition(remaining)
