import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import _sparse, chow, stong, symfun
from cobcalc.chow import (
    MAX_WORK,
    ChowClass,
    InvariantSubring,
    LineTerm,
    ProjProduct,
    VirtualBundle,
    alpha,
    cf_chern,
    deg,
    factor_groups,
    invariant_rank,
    line_bundle,
    newton_class,
    tangent_bundle,
    _layout,
)
from cobcalc.partitions import Partition, enumerate_partitions
from cobcalc.valuation import MAX_DIGITS, multinomial

P1 = ProjProduct((1,))
P3 = ProjProduct((3,))
P1xP1 = ProjProduct((1, 1))
P1_4 = ProjProduct((1, 1, 1, 1))
P3x2 = ProjProduct((3, 3))

# the last n with C(n, 2) < 10**MAX_DIGITS, about 1.4 * 10**2150
LAST_C_N_2 = next(n for n in itertools.count(math.isqrt(2 * 10**MAX_DIGITS)) if n * (n + 1) // 2 >= 10**MAX_DIGITS)


class TestRing:
    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError, match="negative power"):
            alpha(P1xP1) ** -1

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

    @pytest.mark.parametrize("c0", [-2, 0, 1, 2])
    def test_power_with_constant_term_matches_repeated_products(self, c0):
        # (c0 + N)**n by the binomial sum against n products: N = alpha on
        # P^1 x P^1; an inhomogeneous N whose square already vanishes; and
        # unequal factors, some of which N does not touch
        X, Y = ProjProduct((1, 3)), ProjProduct((2, 1, 3))
        for nilpotent in [
            alpha(P1xP1),
            ChowClass(X, {(1, 0): 1, (1, 1): 1}),
            ChowClass(Y, {(1, 0, 0): 3, (0, 1, 0): -1, (1, 0, 2): 2}),
            ChowClass(Y, {(0, 0, 1): 1, (0, 0, 2): 5}),
        ]:
            base = ChowClass.one(nilpotent.space).scale(c0) + nilpotent
            want = ChowClass.one(nilpotent.space)
            for n in range(9):
                assert base**n == want, (nilpotent, n)
                want = want * base

    def test_power_steps_bound_the_nonvanishing_powers(self):
        # K = (dimensions of the factors touched) // (least degree of a term)
        X, Y = ProjProduct((1, 3)), ProjProduct((2, 1, 3))
        for cls, K in [
            (alpha(P1xP1), 2),
            (ChowClass(X, {(1, 0): 1, (1, 1): 1}), 4),
            (ChowClass(X, {(0, 0): -3, (1, 1): 1, (0, 2): 1}), 2),
            (ChowClass(Y, {(0, 0, 1): 1, (0, 0, 2): 5}), 3),
            (ChowClass(Y, {(0, 0, 0): 7}), 0),
        ]:
            assert cls.power_steps(10**9) == K and cls.power_steps(1) == min(1, K)
            nilpotent = ChowClass(cls.space, {e: c for e, c in cls.coeffs.items() if any(e)})
            assert (nilpotent ** (K + 1)).coeffs == {}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_power_refuses_exactly_its_unprintable_terms(self, data):
        # (c0 + N)**n, N homogeneous of one degree, against n products: it
        # is refused exactly when c0**n, some C(n, k) c0**(n-k) with N**k
        # nonzero, or some coefficient of a nonzero N**k has over MAX_DIGITS
        # digits; no N**k is formed for the zero answer, c0 = 0 and n past
        # power_steps.  N**k vanishes beyond k = 9, so N's coefficients go
        # up to 9 * 10**4299, whose square passes the limit
        dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        space = ProjProduct(dims)
        degree = data.draw(st.integers(1, space.total_dimension))
        monomials = [e for e in itertools.product(*(range(m + 1) for m in dims)) if sum(e) == degree]
        support = data.draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
        large = st.tuples(st.integers(-9, 9), st.integers(1100, 4299)).map(lambda t: t[0] * 10 ** t[1])
        coeffs = st.one_of(st.integers(-3, 3), st.integers(-(10**100), 10**100), large).filter(bool)
        nilpotent = ChowClass(space, {e: data.draw(coeffs) for e in support})
        c0 = data.draw(st.one_of(st.integers(-3, 3), st.integers(-(10**100), 10**100)))
        n = data.draw(st.integers(0, 60))
        base = ChowClass.one(space).scale(c0) + nilpotent
        formed = c0 != 0 or base.power_steps(n) == n
        unprintable, power = False, ChowClass.one(space)
        for k in range(n + 1):
            if not power.coeffs:
                break
            unprintable |= abs(math.comb(n, k) * c0 ** (n - k)) >= 10**MAX_DIGITS
            unprintable |= formed and max(map(abs, power.coeffs.values())) >= 10**MAX_DIGITS
            power = power * nilpotent
        if unprintable:
            with pytest.raises(ValueError, match=f"a coefficient has over {MAX_DIGITS} digits"):
                base**n
        else:
            want = ChowClass.one(space)
            for _ in range(n):
                want = want * base
            assert base**n == want

    @pytest.mark.parametrize(
        "c0, dims, nilpotent, n, refused",
        [
            (1, (20,), {(1,): 10**400}, 10, False),  # N**10 = 10**4000 a**10 prints
            (1, (20,), {(1,): 10**400}, 11, True),
            (0, (30,), {(1,): 10**400, (2,): 1}, 10, False),  # c0 = 0: no binomial is checked
            (0, (30,), {(1,): 10**400, (2,): 1}, 11, True),
            (0, (2, 2), {(1, 0): 10**2200, (0, 1): 1}, 4, True),  # N**2 has 10**4400 a_1**2
            (0, (2, 2), {(1, 0): 10**2200, (0, 1): 1}, 5, False),  # zero at once: 5 > K = 4
        ],
    )
    def test_power_refuses_an_unprintable_power_of_its_nilpotent_part(self, c0, dims, nilpotent, n, refused):
        X = ProjProduct(dims)
        base = ChowClass(X, {(0,) * len(dims): c0, **nilpotent})
        if refused:
            with pytest.raises(ValueError, match=f"a coefficient has over {MAX_DIGITS} digits"):
                base**n
        else:
            want = ChowClass.one(X)
            for _ in range(n):
                want = want * base
            assert base**n == want

    @pytest.mark.parametrize(
        "c0, m, last",
        [
            (1, 2, LAST_C_N_2),  # C(n, 2) on P^2 is the largest term
            (-1, 2, LAST_C_N_2),
            (2, 0, 14284),  # the constant term alone: 2**14285 has 4301 digits
            (2, 1, 14271),  # 14272 * 2**14271 has 4301 digits, 2**14272 4297
            (10**43, 1, 99),  # 10**4300, the first number of 4301 digits
        ],
    )
    def test_power_at_the_print_limit(self, c0, m, last):
        # (c0 + alpha)**n on P^m (m = 0: c0 alone on P^1) is
        # sum C(n, k) c0**(n-k) alpha**k over k <= m
        X = ProjProduct((max(m, 1),))
        base = ChowClass(X, {(0,): c0, (1,): int(m > 0)})
        start = time.process_time()
        power = base**last
        assert power.coeffs == {(k,): math.comb(last, k) * c0 ** (last - k) for k in range(m + 1)}
        assert all(abs(c) < 10**MAX_DIGITS for c in power.coeffs.values())
        with pytest.raises(ValueError, match=f"a coefficient has over {MAX_DIGITS} digits"):
            base ** (last + 1)
        assert time.process_time() - start < 0.2

    @pytest.mark.parametrize("c0", [0, 1, -1])
    def test_power_of_a_unit_or_zero_plus_a_generator_on_a_line(self, c0):
        # c0 + a on P^1 to n = 10**4000: c0**n and n c0**(n-1) a print
        base = ChowClass(P1, {(0,): c0, (1,): 1})
        n = 10**4000
        assert (base**n).coeffs == {e: c for e, c in {(0,): c0**n, (1,): n * c0 ** (n - 1)}.items() if c}

    def test_power_whose_nilpotent_part_dies_early_answers(self):
        # (1 + a_1 a_2)**(10**6) on P^1 x P^(10**6) is 1 + 10**6 a_1 a_2:
        # (a_1 a_2)**2 = 0, so no C(10**6, k) beyond k = 1 is formed
        X = ProjProduct((1, 10**6))
        start = time.process_time()
        assert (ChowClass(X, {(0, 0): 1, (1, 1): 1}) ** 10**6).coeffs == {(0, 0): 1, (1, 1): 10**6}
        assert time.process_time() - start < 1.0

    def test_power_of_a_unit_plus_a_generator_on_a_large_factor_pair(self):
        # (1 + a_1)**n on P^1 x P^n is 1 + n a_1: K = 1, so no binomial
        # beyond C(n, 1) is formed
        X = ProjProduct((1, 10**9))
        start = time.process_time()
        assert (ChowClass(X, {(0, 0): 1, (1, 0): 1}) ** 10**9).coeffs == {(0, 0): 1, (1, 0): 10**9}
        assert time.process_time() - start < 1.0

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            alpha(P1) * alpha(P3)

    def test_negation_and_subtraction(self):
        space = ProjProduct((1, 2))
        x = alpha(space)
        y = ChowClass(space, {(0, 0): 3, (1, 1): 2, (0, 2): 1})
        zero = ChowClass.zero(space)
        assert x - x == zero and (x - x).coeffs == {}
        assert -x + x == zero
        assert (-x).coeffs == {(1, 0): -1, (0, 1): -1}
        assert (x - y).coeffs == {(1, 0): 1, (0, 1): 1, (0, 0): -3, (1, 1): -2, (0, 2): -1}
        assert (y - x) == -(x - y) and -(-y) == y
        assert x * x - (y - ChowClass.one(space).scale(3)) == zero

    def test_subtraction_across_spaces_is_refused(self):
        x, other = alpha(ProjProduct((1, 2))), alpha(ProjProduct((2, 1)))
        with pytest.raises(ValueError, match="ambient space mismatch"):
            x - other
        with pytest.raises(ValueError, match="ambient space mismatch"):
            -other - x

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


def _naive_mul(dims, a, b):
    """Oracle: the truncated product on exponent tuples, pair by pair."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= n for x, n in zip(e, dims)):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _naive_pow(dims, a, n):
    out = {(0,) * len(dims): 1}
    for _ in range(n):
        out = _naive_mul(dims, out, a)
    return out


# both sides of the changes of field width that fixed-width fields had
# (8, 16, 32, 64 bits, each holding dimensions below half its range), and
# dimensions beyond 64 bits, which shifted fields hold too
BOUNDARY_DIMS = (
    1, 2, 63, 64, 127, 128, 32767, 32768, 2**31 - 1, 2**31 + 1, 2**63 - 1, 2**63, 2**64 + 1, 2**100
)


@st.composite
def sparse_classes(draw):
    """A space with factor dimensions from BOUNDARY_DIMS, two sparse classes
    on it with exponents near 0, n/2 and n (so sums land on both sides of
    the truncation), and the first with a constant term that may be 0."""
    dims = tuple(draw(st.lists(st.sampled_from(BOUNDARY_DIMS), min_size=1, max_size=3)))
    exponent = [st.sampled_from(sorted({0, 1, n // 2, n // 2 + 1, n - 1, n})) for n in dims]
    terms = st.dictionaries(st.tuples(*exponent), st.integers(-9, 9), max_size=5)
    a, b = draw(terms), draw(terms)
    a[(0,) * len(dims)] = draw(st.integers(-3, 3))
    return dims, {e: c for e, c in a.items() if c}, {e: c for e, c in b.items() if c}


@st.composite
def one_term_powers(draw):
    """A one-term class c a^e on up to 4 factors of dimension at most 6,
    half of them the constant class (e = 0), and an exponent n from 0 to 2
    past the largest dimension, so that some powers truncate."""
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    e = (0,) * len(dims) if draw(st.booleans()) else tuple(draw(st.integers(0, n)) for n in dims)
    c = draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))
    return ChowClass(ProjProduct(dims), {e: c}), draw(st.integers(0, max(dims) + 2))


class TestPackedKernel:
    @settings(max_examples=300, deadline=None)
    @given(one_term_powers())
    def test_one_term_power_equals_repeated_products(self, case):
        # a power of one term takes one step, not the binomial loop
        cls, n = case
        want = ChowClass.one(cls.space)
        for _ in range(n):
            want = want * cls
        assert cls**n == want

    @settings(max_examples=300, deadline=None)
    @given(sparse_classes(), st.integers(0, 6))
    def test_products_and_powers_against_tuple_keys(self, case, n):
        dims, a, b = case
        X = ProjProduct(dims)
        A, B = ChowClass(X, a), ChowClass(X, b)
        assert (A * B).coeffs == _naive_mul(dims, a, b)
        assert (B * A).coeffs == _naive_mul(dims, b, a)
        assert (A**n).coeffs == _naive_pow(dims, a, n)
        assert (B**n).coeffs == _naive_pow(dims, b, n)

    @pytest.mark.parametrize(
        "below, above",
        [(63, 64), (127, 128), (32767, 32768), (2**31 - 1, 2**31 + 1), (2**63 - 1, 2**63)],
    )
    def test_each_field_width_boundary(self, below, above):
        # below and above a change of field width, x^h x^(n-h) = x^n
        # survives and x^h x^(n-h+1) truncates, also next to a small factor
        # whose field has a large offset
        for n in (below, above):
            h = n // 2
            for dims in [(n,), (1, n), (n, 3, n)]:
                X = ProjProduct(dims)
                for e in (h, n - h, n - h + 1, n):
                    a = {(0,) * (len(dims) - 1) + (h,): 2, (1,) * len(dims): -1}
                    b = {(0,) * (len(dims) - 1) + (e,): 3, (0,) * len(dims): 1}
                    got = (ChowClass(X, a) * ChowClass(X, b)).coeffs
                    assert got == _naive_mul(dims, a, b), (dims, e)

    def test_field_width_is_one_bit_above_the_largest_dimension(self):
        # P^1 takes 2 bits per field; a dimension of b bits takes b + 1
        for dims, width in [((1,), 2), ((1, 1, 1), 2), ((3, 1), 3), ((1, 2**63), 65), ((2**100,), 102)]:
            shifts, mask, _, guard = _layout(dims)
            assert list(shifts) == [i * width for i in range(len(dims))]
            assert mask == 2**width - 1
            assert guard == sum(2 ** (width - 1) << s for s in shifts)

    def test_factor_dimension_beyond_64_bits_is_accepted(self):
        for n in (2**63, 2**100):
            X = ProjProduct((n, 1))
            assert (alpha(X) ** 2).coeffs == {(2, 0): 1, (1, 1): 2}
            assert (alpha(X) ** 3).coeffs == {(3, 0): 1, (2, 1): 3}
            top = ChowClass(X, {(n - 1, 0): 1}) * ChowClass(X, {(1, 1): 5, (2, 0): 7})
            assert top.coeffs == {(n, 1): 5} and deg(top) == 5

    def test_power_of_a_nilpotent_generator_on_a_large_factor(self):
        # c0 = 0: only the top binomial term is nonzero, so no other
        # C(100000, k) may be computed
        start = time.process_time()
        assert (alpha(ProjProduct((100000,))) ** 100000).coeffs == {(100000,): 1}
        assert time.process_time() - start < 5.0

    def test_power_beyond_the_step_limit_is_refused_at_once(self):
        # a class of two terms on two factors: steps x 2 terms x 2 factors,
        # so 1048576 steps are admitted up front and one more is refused
        X = ProjProduct((10**9, 10**9))
        start = time.process_time()
        with pytest.raises(ValueError, match="2 terms in 1048577 products on 2 factors has predicted work 4194308,"):
            alpha(X) ** (MAX_WORK // 4 + 1)
        # newton and cf take their powers through the same check
        with pytest.raises(ValueError, match="power of 2 terms in 100000000 products"):
            newton_class(line_bundle(X, (1, 1)), 10**8)
        # a class of one term takes one step, priced as one product
        Y = ProjProduct((10**9,))
        assert (alpha(Y) ** (10**6 + 1)).coeffs == {(10**6 + 1,): 1}
        assert newton_class(line_bundle(Y, (1,)), 10**8).coeffs == {(10**8,): 1}
        assert time.process_time() - start < 1.0


def _odd_shapes(max_dim: int) -> list[tuple[int, ...]]:
    """Every tuple of odd factor dimensions of total at most max_dim, in
    decreasing order and, where that differs, reversed."""
    shapes = []
    for w in range(1, max_dim + 1):
        for p in enumerate_partitions(w):
            if all(n % 2 for n in p):
                shapes.append(tuple(p))
                if tuple(p)[::-1] != tuple(p):
                    shapes.append(tuple(p)[::-1])
    return shapes


def _by_orbit(ring: InvariantSubring, coeffs: dict) -> dict:
    """A class of the full ring keyed by orbits, asserting that every
    monomial of an orbit has the same coefficient."""
    out: dict = {}
    for e, c in coeffs.items():
        key = ring.orbit(e)
        assert out.setdefault(key, c) == c, (e, c, out[key])
    return out


@st.composite
def invariant_bundles(draw):
    """A small space with a repeated factor and, on it, a bundle of twists
    constant on each group of equal factors and of single-factor twist
    orbits, with random signs; n <= the total dimension, and a weight per
    group and k <= 3 for a push."""
    counts = draw(
        st.dictionaries(st.integers(1, 3), st.integers(1, 3), min_size=1, max_size=3).filter(
            lambda c: max(c.values()) > 1
        )
    )
    X = ProjProduct(tuple(draw(st.permutations([n for n, a in counts.items() for _ in range(a)]))))
    m, signs, weights = X.factor_count, st.sampled_from((1, -1)), st.integers(-2, 2)
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        twist = dict(zip(counts, draw(st.lists(weights, min_size=len(counts), max_size=len(counts)))))
        terms.append(LineTerm(draw(signs), tuple(twist[n] for n in X.dims)))
    for _ in range(draw(st.integers(0, 3))):
        group, c, count = draw(st.sampled_from(sorted(counts))), draw(weights.filter(bool)), draw(weights)
        for i in (i for i, n in enumerate(X.dims) if n == group):
            twist = (0,) * i + (c,) + (0,) * (m - i - 1)
            terms += [LineTerm(1 if count > 0 else -1, twist)] * abs(count)
    push = {n: draw(weights) for n in counts}
    return VirtualBundle(X, tuple(terms)), draw(st.integers(1, X.total_dimension)), push, draw(st.integers(1, 3))


class TestInvariantSubring:
    def test_newton_class_of_degree_zero_is_refused(self):
        with pytest.raises(ValueError, match="n must be positive"):
            InvariantSubring(P1xP1).newton_class(tangent_bundle(P1xP1), 0)

    @pytest.mark.parametrize("dims", _odd_shapes(10))
    def test_alpha_powers_equal_the_full_ring_term_by_term(self, dims):
        X = ProjProduct(dims)
        ring = InvariantSubring(X)
        ones = dict.fromkeys(dims, 1)
        for k in range(X.total_dimension + 2):
            assert ring.push({ring.unit: 1}, ones, 1, k) == _by_orbit(ring, (alpha(X) ** k).coeffs), k

    def test_orbits_count_the_invariant_rank(self):
        for dims in [(1,), (1, 1), (3, 1, 3), (1, 1, 1, 5, 5), (3, 3, 3), (2, 2, 1, 2)]:
            X = ProjProduct(dims)
            ring = InvariantSubring(X)
            orbits = {ring.orbit(e) for e in itertools.product(*(range(n + 1) for n in dims))}
            assert len(orbits) == invariant_rank(X)

    def test_groups_and_keys(self):
        X = ProjProduct((3, 1, 3, 1, 1))
        assert factor_groups(X) == ((1, 3), (3, 2))
        assert invariant_rank(X) == math.comb(4, 3) * math.comb(5, 2)
        ring = InvariantSubring(X)
        assert ring.orbit((0,) * 5) == ring.unit
        assert ring.orbit(X.dims) == ring.top
        # the orbit of a monomial does not see the order of equal factors
        assert ring.orbit((2, 1, 0, 0, 1)) == ring.orbit((0, 0, 2, 1, 1)) != ring.orbit((1, 0, 2, 1, 0))

    def test_push_step_multiplies_by_the_new_count(self):
        # on (P^2)^3: alpha times the orbit sum of a1 a2 (counts 1, 2, 0)
        # is 3 a1 a2 a3 (counts 0, 3, 0) plus the orbit sum of a1^2 a2
        # (counts 1, 1, 1), whose monomials each arise once
        X = ProjProduct((2, 2, 2))
        ring = InvariantSubring(X)
        pushed = ring.push({ring.orbit((1, 1, 0)): 5}, {2: 1})
        assert pushed == {ring.orbit((1, 1, 1)): 15, ring.orbit((2, 1, 0)): 5}

    def test_push_by_a_higher_power_sum_resorts_the_fields(self):
        # on (P^3)^3: p_2 times the orbit sum of a2 a3^2 (exponents 0, 1, 2).
        # 0 -> 2 passes the exponent 1 and gives the orbit of (1, 2, 2),
        # whose monomials each arise from both copies at 2; 1 -> 3 passes 2
        # and gives the orbit of (0, 2, 3), each monomial once; 2 -> 4 is
        # truncated
        X = ProjProduct((3, 3, 3))
        ring = InvariantSubring(X)
        pushed = ring.push({ring.orbit((0, 1, 2)): 5}, {3: 1}, 2)
        assert pushed == {ring.orbit((1, 2, 2)): 10, ring.orbit((0, 2, 3)): 5}
        p2 = ChowClass(X, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        orbit = ChowClass(X, {e: 5 for e in itertools.permutations((0, 1, 2))})
        assert pushed == _by_orbit(ring, (orbit * p2).coeffs)

    def test_push_by_a_higher_power_sum_stops_below_a_larger_exponent(self):
        # on (P^5)^3: p_2 times the orbit sum of a2 a3^4 (exponents 0, 1, 4).
        # 0 -> 2 passes the 1 and stops below the 4, giving the orbit of
        # (1, 2, 4); 1 -> 3 gives the orbit of (0, 3, 4); 4 -> 6 is truncated
        X = ProjProduct((5, 5, 5))
        ring = InvariantSubring(X)
        pushed = ring.push({ring.orbit((0, 1, 4)): 7}, {5: 1}, 2)
        assert pushed == {ring.orbit((1, 2, 4)): 7, ring.orbit((0, 3, 4)): 7}
        p2 = ChowClass(X, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        orbit = ChowClass(X, {e: 7 for e in itertools.permutations((0, 1, 4))})
        assert pushed == _by_orbit(ring, (orbit * p2).coeffs)

    @settings(max_examples=150, deadline=None)
    @given(invariant_bundles())
    def test_newton_classes_and_pushes_equal_the_full_ring(self, case):
        v, n, weights, k = case
        X, m = v.space, v.space.factor_count
        ring = InvariantSubring(X)
        full = newton_class(v, n)
        newton = ring.newton_class(v, n)
        assert newton == _by_orbit(ring, full.coeffs)
        # times sum c_g p_k(g), the power sums of the groups' hyperplane classes
        power_sums = ChowClass(X, {(0,) * i + (k,) + (0,) * (m - i - 1): weights[d] for i, d in enumerate(X.dims)})
        assert ring.push(newton, weights, k) == _by_orbit(ring, (full * power_sums).coeffs)
        # one copy of a repeated factor with one more twist than the others
        group = next(d for d in X.dims if X.dims.count(d) > 1)
        i = X.dims.index(group)
        with pytest.raises(ValueError, match="differ in signed count"):
            ring.newton_class(v + line_bundle(X, (0,) * i + (k,) + (0,) * (m - i - 1)), n)

    def test_degree_is_the_top_orbit(self):
        X = ProjProduct((1, 1, 3))
        ring = InvariantSubring(X)
        ones = {1: 1, 3: 1}
        assert ring.deg(ring.push({ring.unit: 1}, ones, 1, 5)) == deg(alpha(X) ** 5) == multinomial(5, (1, 1, 3))
        assert ring.deg(ring.push({ring.unit: 1}, ones, 1, 4)) == 0
        assert ring.push({ring.unit: 1}, ones, 1, 6) == {}

    def test_cancelled_terms_are_dropped(self):
        # (a1 - a2)(a1 + a2) on P^1 x P^3 is -a2^2: the a1 a2 terms cancel
        X = ProjProduct((1, 3))
        ring = InvariantSubring(X)
        pushed = ring.push({ring.orbit((1, 0)): 1, ring.orbit((0, 1)): -1}, {1: 1, 3: 1})
        assert pushed == {ring.orbit((0, 2)): -1}


class TestProductLimit:
    def test_product_above_the_limit_is_refused_before_any_pair(self):
        class NoPairs(dict):
            def items(self):
                raise AssertionError("term pairs formed before the work check")

        X = ProjProduct((1,) * 200)
        message = (
            f"product of 200 x 200 terms on 200 factors has predicted work 8000000, "
            f"above the limit {MAX_WORK}"
        )
        with pytest.raises(ValueError) as exc:
            alpha(X) * alpha(X)
        assert str(exc.value) == message
        shifts = chow._layout(X.dims)[0]
        packed = _sparse.pack(alpha(X).coeffs, shifts)
        with pytest.raises(ValueError) as exc:
            chow._mul(NoPairs(packed), packed, chow._layout(X.dims))
        assert str(exc.value) == message

    def test_power_steps_are_priced_as_products(self):
        # pow multiplies through the same kernel: alpha ** 2 on 200 copies
        # of P^1 is the product refused above, and alpha ** 3 on 100 copies
        # is refused at its last step, alpha ** 2 times alpha, priced with
        # the 10**4 + 10**6 of the steps before it
        X = ProjProduct((1,) * 200)
        with pytest.raises(ValueError, match="200 x 200 terms on 200 factors"):
            alpha(X) ** 2
        Y = ProjProduct((1,) * 100)
        assert len((alpha(Y) ** 2).coeffs) == 4950
        with pytest.raises(
            ValueError,
            match="4950 x 100 terms on 100 factors, with the work before it, has predicted work 50510000",
        ):
            alpha(Y) ** 3

    def test_work_counts_term_pairs_times_factor_count(self):
        # 200 x 104 terms on 200 factors: 4160000, the most below the limit
        # 2**22 = 4194304 that a class times alpha takes there
        X = ProjProduct((1,) * 200)
        assert MAX_WORK == 2**22
        first = ChowClass(X, {tuple(int(j == i) for j in range(200)): 1 for i in range(104)})
        assert len((alpha(X) * first).coeffs) == 104 * 103 // 2 + 104 * 96
        with pytest.raises(ValueError, match="predicted work 4200000"):
            alpha(X) * (first + ChowClass.one(X))
        # an empty factor costs nothing
        assert (alpha(X) * ChowClass.zero(X)).coeffs == {}


class TestBundles:
    def test_bundles_on_different_spaces_do_not_add(self):
        with pytest.raises(ValueError, match="ambient space mismatch"):
            tangent_bundle(P1xP1) + tangent_bundle(P3)

    def test_first_chern_of_a_twist_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="twist vector length mismatch"):
            tangent_bundle(P1xP1).first_chern(LineTerm(1, (1,)))

    def test_bool_sign_is_refused(self):
        with pytest.raises(ValueError, match="sign must be"):
            LineTerm(True, (1,))

    def test_tangent_p1(self):
        t = tangent_bundle(P1)
        assert sorted((term.sign, term.twist) for term in t.terms) == [
            (-1, (0,)),
            (1, (1,)),
            (1, (1,)),
        ]

    def test_tangent_bundle_beyond_the_step_limit_is_refused_before_building(self, monkeypatch):
        start = time.process_time()
        with pytest.raises(ValueError, match="10000000 dimensions has predicted work 10000000, above the limit"):
            tangent_bundle(ProjProduct((10**7,)))
        assert time.process_time() - start < 0.1
        # total dimension up to the limit
        monkeypatch.setattr(chow, "MAX_WORK", 10)
        assert len(tangent_bundle(ProjProduct((9, 1))).terms) == 14
        with pytest.raises(ValueError, match="11 dimensions has predicted work 11, above the limit 10"):
            tangent_bundle(ProjProduct((10, 1)))

    def test_tangent_bundle_at_the_step_limit(self):
        # P^999999 x P^1, which stong's expansions admit: total dimension 10**6
        v = tangent_bundle(ProjProduct((999999, 1)))
        assert v.signed_twists() == {(1, 0): 10**6, (0, 1): 2, (0, 0): -2}

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

    @pytest.mark.parametrize("dims", [(1, 1), (3, 1, 1, 1), (5, 4, 1)])
    def test_tangent_is_the_euler_presentation_in_order(self, dims):
        m = len(dims)
        want = []
        for i, n in enumerate(dims):
            want += [LineTerm(1, tuple(int(j == i) for j in range(m))) for _ in range(n + 1)]
            want.append(LineTerm(-1, (0,) * m))
        space = ProjProduct(dims)
        v = tangent_bundle(space)
        assert v == VirtualBundle(space, tuple(want))
        assert -v == VirtualBundle(space, tuple(LineTerm(-t.sign, t.twist) for t in want))
        assert -(-v) == v

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
        v = line_bundle(P3, (0,)) + line_bundle(P3, (0,))
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_grouped_by_twist_equals_per_term_sum(self, seed, n):
        # repeated twists, some of whose signs cancel
        rng = random.Random(seed)
        space = ProjProduct(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
        twists = [tuple(rng.randint(-2, 2) for _ in space.dims) for _ in range(3)]
        terms = tuple(
            LineTerm(rng.choice((1, -1)), rng.choice(twists)) for _ in range(rng.randint(1, 8))
        )
        v = VirtualBundle(space, terms)
        want = ChowClass.zero(space)
        for term in v.terms:
            want = want + (v.first_chern(term) ** n).scale(term.sign)
        assert newton_class(v, n) == want

    def test_collected_sum_equals_per_term_sum(self):
        # every bundle holds an opposite pair of one twist, whose signs cancel
        rng = random.Random(41)
        for _ in range(150):
            space = ProjProduct(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            twists = [tuple(rng.randint(-2, 2) for _ in space.dims) for _ in range(3)]
            terms = [LineTerm(rng.choice((1, -1)), rng.choice(twists)) for _ in range(5)]
            cancelled = rng.choice(twists)
            terms += [LineTerm(1, cancelled), LineTerm(-1, cancelled)]
            rng.shuffle(terms)
            v = VirtualBundle(space, tuple(terms))
            for n in range(1, 5):
                want = ChowClass.zero(space)
                for term in v.terms:
                    want = want + (v.first_chern(term) ** n).scale(term.sign)
                got = newton_class(v, n)
                assert got == want
                assert 0 not in got.coeffs.values()

    def test_cancellation_across_twists_leaves_no_terms(self):
        # c1 of O(1,1) is a1 + a2, cancelled by those of O(1,0) and O(0,1)
        v = (
            line_bundle(P1xP1, (1, 1))
            + line_bundle(P1xP1, (1, 0), sign=-1)
            + line_bundle(P1xP1, (0, 1), sign=-1)
        )
        assert newton_class(v, 1).coeffs == {}
        assert newton_class(v, 2).coeffs == {(1, 1): 2}

    def test_one_power_per_distinct_twist(self, monkeypatch):
        # xi + xi - T_X on (1^14): the all-ones twist and 14 unit twists,
        # where the per-term sum took 44 powers; the trivial twist, whose
        # powers vanish, and a pair of opposite terms of another twist take none
        powers = []
        pow_ = ChowClass.__pow__

        def counted(self, n):
            powers.append(n)
            return pow_(self, n)

        monkeypatch.setattr(ChowClass, "__pow__", counted)
        X = stong.build_X(6, 13)
        assert X.dims == (1,) * 14
        ones = (1,) * 14
        v = VirtualBundle(X, (LineTerm(1, ones), LineTerm(1, ones))) + (-tangent_bundle(X))
        twos = (2,) * 14
        newton_class(v + line_bundle(X, twos) + line_bundle(X, twos, sign=-1), 12)
        assert len(powers) == 15

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

    def test_work_is_summed_over_the_twists(self, monkeypatch):
        # each twist alone takes 120 units: its b-truncation, powers and
        # series; the four together 498, refused once the sum passes 200
        space, I = ProjProduct((3, 3)), (1,) * 6
        twists = [(1, 1), (1, 2), (2, 1), (1, -1)]
        monkeypatch.setattr(chow, "MAX_WORK", 200)
        for t in twists:
            cf_chern(line_bundle(space, t), I)
        with pytest.raises(ValueError, match="with the work before it, has predicted work .*, above the limit 200$"):
            cf_chern(VirtualBundle(space, tuple(LineTerm(1, t) for t in twists)), I)

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

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_power_sum_route(self, data):
        dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), "dims"))
        twists = st.tuples(*[st.integers(-2, 2)] * len(dims))
        terms = data.draw(st.lists(st.builds(LineTerm, st.sampled_from((1, -1)), twists), max_size=4), "terms")
        v = VirtualBundle(ProjProduct(dims), tuple(terms))
        for t in range(v.space.total_dimension + 1):
            for I in enumerate_partitions(t):
                assert cf_chern(v, I) == _cf_by_power_sums(v, I), I

    def test_group_homomorphism_telescopes(self):
        rng = random.Random(17)
        space = ProjProduct((2, 1))
        for _ in range(10):
            v = _random_bundle(rng, space)
            series = _cf_series(v + (-v), 4)
            assert set(series) == {Partition()}
            assert series[Partition()] == ChowClass.one(space)


def _cf_by_power_sums(v, I):
    """Oracle for any signed bundle: m_I expanded in the power sums over Q
    by `symfun.convert`, p_k evaluated at the Newton class of v, which is
    additive, and the sum over a common denominator divided out exactly."""
    in_p = symfun.convert(symfun.SymFn.basis_element(Partition(I)), "power-sum").coeffs
    denominator = math.lcm(*(q.denominator for q in in_p.values()))
    total = ChowClass.zero(v.space)
    for lam, q in in_p.items():
        term = ChowClass.one(v.space)
        for k in lam:
            term = term * newton_class(v, k)
        total = total + term.scale(int(q * denominator))
    assert all(c % denominator == 0 for c in total.coeffs.values())
    return ChowClass(v.space, {e: c // denominator for e, c in total.coeffs.items()})


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
