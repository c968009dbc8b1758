import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.valuation import (
    MAX_DIGITS,
    PRIME_TEST_LIMIT,
    LadicDigits,
    _miller_rabin,
    is_odd_prime,
    ladic_digits,
    multinomial,
    nu,
    nu_factorial,
    nu_multinomial,
    printable,
)


def factor_valuation(n: int, ell: int) -> int:
    """Oracle: full trial-division factorization, then read off the exponent."""
    n = abs(n)
    factors = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors.get(ell, 0)


def binomial_chain_multinomial(n: int, parts) -> int:
    """Oracle: product of binomials of partial sums."""
    total, result = 0, 1
    for p in parts:
        total += p
        result *= math.comb(total, p)
    assert total == n
    return result


class TestNu:
    def test_examples(self):
        assert nu(48, 3) == 1 == factor_valuation(48, 3)
        assert nu(1, 5) == 0
        assert nu(33600, 3) == 1 == factor_valuation(33600, 3)

    def test_zero_is_an_error(self):
        with pytest.raises(ValueError):
            nu(0, 3)

    @pytest.mark.parametrize("bad", [2, 4, 9, 1, -3, 15])
    def test_bad_primes(self, bad):
        with pytest.raises(ValueError):
            nu(12, bad)

    @given(
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
        st.sampled_from([3, 5, 7, 11]),
    )
    def test_matches_factorization(self, n, ell):
        assert nu(n, ell) == factor_valuation(n, ell)

    @given(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
        st.sampled_from([3, 5, 7]),
    )
    def test_additive_on_products(self, a, b, ell):
        assert nu(a * b, ell) == nu(a, ell) + nu(b, ell)


class TestNuFactorial:
    def test_examples(self):
        assert nu_factorial(10, 3) == 4
        assert nu_factorial(0, 3) == 0
        assert nu_factorial(2, 3) == 0

    @pytest.mark.parametrize("n", range(1, 120))
    def test_equals_valuation_of_factorial(self, n):
        assert nu_factorial(n, 3) == nu(math.factorial(n), 3)
        assert nu_factorial(n, 7) == nu(math.factorial(n), 7)

    def test_negative_is_refused(self):
        with pytest.raises(ValueError, match="factorial of a negative integer"):
            nu_factorial(-1, 3)


@st.composite
def composition(draw, max_total=200, max_parts=6):
    n = draw(st.integers(min_value=0, max_value=max_total))
    k = draw(st.integers(min_value=1, max_value=max_parts))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
    bounds = [0] + cuts + [n]
    return n, [bounds[i + 1] - bounds[i] for i in range(k)]


class TestMultinomial:
    def test_examples(self):
        assert multinomial(4, [1, 1, 1, 1]) == 24
        assert multinomial(6, [3, 3]) == 20
        assert multinomial(10, [1, 3, 3, 3]) == 16800

    def test_against_binomial_chain(self):
        for n, parts in [(6, (3, 3)), (10, (1, 3, 3, 3)), (12, (5, 4, 2, 1)), (7, (7,))]:
            assert multinomial(n, parts) == binomial_chain_multinomial(n, parts)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            multinomial(5, [3, 3])

    def test_negative_part_is_refused(self):
        with pytest.raises(ValueError, match="multinomial parts must be nonnegative"):
            multinomial(3, (-1, 4))

    @given(composition(max_total=2500, max_parts=12))
    @settings(max_examples=300)
    def test_against_factorial_quotient(self, comp):
        n, parts = comp
        quotient = math.factorial(n)
        for p in parts:
            quotient //= math.factorial(p)
        assert multinomial(n, parts) == quotient


class TestNuMultinomial:
    def test_examples(self):
        assert nu_multinomial(10, [1, 3, 3, 3], 3) == 1
        assert nu_multinomial(17, [17], 5) == 0
        assert nu_multinomial(6, [3, 3], 3) == 0

    @given(composition(), st.sampled_from([3, 5, 7]))
    @settings(max_examples=300)
    def test_legendre_path_equals_factorization_path(self, comp, ell):
        n, parts = comp
        assert nu_multinomial(n, parts, ell) == factor_valuation(multinomial(n, parts), ell)

    def test_two_part_splits_exhaustively(self):
        for n in range(0, 201, 7):
            for a in range(0, n + 1, 13):
                parts = [a, n - a]
                value = multinomial(n, parts)
                if value != 0:
                    assert nu_multinomial(n, parts, 3) == factor_valuation(value, 3)

    def test_mismatch(self):
        with pytest.raises(ValueError, match="parts sum to 3, expected 4"):
            nu_multinomial(4, (1, 2), 3)


class TestLadicDigits:
    def test_examples(self):
        assert ladic_digits(6, 3).digits == (0, 2)
        assert ladic_digits(8, 3).digits == (2, 2)
        assert ladic_digits(0, 5).digits == ()

    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from([3, 5, 7]))
    def test_reconstruction(self, n, ell):
        assert ladic_digits(n, ell).value() == n

    @given(st.integers(min_value=0, max_value=5000), st.sampled_from([3, 5, 7]))
    def test_digit_sum_parity_for_even_inputs(self, n, ell):
        # powers of an odd prime are odd, so the digit sum has the parity of n
        assert sum(ladic_digits(2 * n, ell).digits) % 2 == 0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LadicDigits(3, (3, 1))
        with pytest.raises(ValueError):
            LadicDigits(3, (1, 0))

    def test_negative_is_refused(self):
        with pytest.raises(ValueError, match="expansion of a negative integer"):
            ladic_digits(-1, 3)


def lucas_multinomial_mod(n: int, parts, ell: int) -> int:
    """Oracle: digit-wise product of small multinomials; a factor with
    mismatched digit sum contributes zero."""
    n_digits = list(ladic_digits(n, ell).digits)
    part_digits = [list(ladic_digits(p, ell).digits) for p in parts]
    width = max([len(n_digits)] + [len(d) for d in part_digits] + [1])
    result = 1
    for i in range(width):
        nd = n_digits[i] if i < len(n_digits) else 0
        pds = [d[i] if i < len(d) else 0 for d in part_digits]
        if sum(pds) != nd:
            return 0
        result = result * multinomial(nd, pds) % ell
    return result


class TestLucas:
    @given(composition(max_total=100, max_parts=4), st.sampled_from([3, 5, 7]))
    @settings(max_examples=300)
    def test_lucas_congruence(self, comp, ell):
        n, parts = comp
        assert multinomial(n, parts) % ell == lucas_multinomial_mod(n, parts, ell)


class TestIsOddPrime:
    def test_miller_rabin_agrees_with_trial_division(self):
        # below psi_2 is_odd_prime is Miller-Rabin to the bases 2 and 3; it
        # is checked against a sieve, and so is the test to all 13 bases on
        # every odd n above the largest
        sieve = bytearray([0, 0]) + bytearray([1]) * 199998
        for f in range(2, 448):
            if sieve[f]:
                sieve[f * f :: f] = bytes(len(range(f * f, 200000, f)))
        for n in range(200000):
            assert is_odd_prime(n) == (sieve[n] == 1 and n != 2), n
            if n > 41 and n % 2:
                assert _miller_rabin(n) == is_odd_prime(n), n

    def test_bases_2_and_3_below_psi_2(self):
        # the strong pseudoprimes to base 2 below psi_2 = 1373653 (OEIS
        # A001262); base 3 rejects each, and psi_2, the least strong
        # pseudoprime to both bases, is left to all 13
        pseudoprimes = (
            2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
            74665, 80581, 85489, 88357, 90751, 104653, 130561, 196093, 220729, 233017,
            252601, 253241, 256999, 271951, 280601, 314821, 357761, 390937, 458989,
            476971, 486737, 489997, 514447, 580337, 635401, 647089, 741751, 800605,
            818201, 838861, 873181, 877099, 916327, 976873, 983401, 1004653, 1016801,
            1023121, 1082401, 1145257, 1194649, 1207361, 1251949, 1252697, 1302451,
            1325843, 1357441,
        )
        for n in pseudoprimes:
            assert _miller_rabin(n, (2,)) and not _miller_rabin(n, (3,)), n
            assert any(n % f == 0 for f in range(3, math.isqrt(n) + 1, 2)), n
            assert not is_odd_prime(n), n
        assert 1373653 == 829 * 1657 and _miller_rabin(1373653, (2, 3))
        assert not is_odd_prime(1373653)
        assert is_odd_prime(1373639) and is_odd_prime(1373677)

    @pytest.mark.parametrize(
        "n, factors",
        [
            (3215031751, (151, 751, 28351)),
            (3825123056546413051, (149491, 747451, 34233211)),
            # psi_12: the least strong pseudoprime to the first 12 prime bases
            (318665857834031151167461, (399165290221, 798330580441)),
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n, factors):
        assert math.prod(factors) == n
        assert not is_odd_prime(n)

    def test_large_primes(self):
        for n in (1000003, 1000000000039, 1000000000000000003, 2**61 - 1, 2**31 - 1):
            assert is_odd_prime(n), n
        assert not is_odd_prime(2**61 + 1) and not is_odd_prime((2**31 - 1) * 1000000000039)

    def test_limit_is_refused(self):
        assert PRIME_TEST_LIMIT == 3317044064679887385961981
        for n in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 1, 10**400):
            with pytest.raises(ValueError, match="too large"):
                is_odd_prime(n)
        assert not is_odd_prime(PRIME_TEST_LIMIT - 1)


class TestPrintable:
    @pytest.mark.parametrize(
        "c, n, fits",
        [
            pytest.param(10**MAX_DIGITS - 1, 1, True, id="10**4300-1"),
            pytest.param(10**MAX_DIGITS, 1, False, id="10**4300"),
            pytest.param(-(10**MAX_DIGITS - 1), 1, True, id="-(10**4300-1)"),
            pytest.param(-(10**MAX_DIGITS), 1, False, id="-10**4300"),
            (10, MAX_DIGITS - 1, True), (10, MAX_DIGITS, False), (-10, MAX_DIGITS, False),
            (2, 14284, True), (2, 14285, False), (10**43, 99, True), (10**43, 100, False),
            (0, 10**4000, True), (1, 10**4000, True), (-1, 10**4000 + 1, True), (2, 10**4000, False),
            pytest.param(10**5000, 0, True, id="10**5000-0"),
            pytest.param(10**5000, 1, False, id="10**5000-1"),
        ],
    )
    def test_at_the_limit(self, c, n, fits):
        # at most MAX_DIGITS digits, sign aside: below 10**MAX_DIGITS
        assert printable(c, n) is fits

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(10**60), 10**60), st.integers(0, 6000))
    def test_matches_the_exact_power(self, c, n):
        assert printable(c, n) == (abs(c) ** n < 10**MAX_DIGITS)

    def test_a_huge_power_is_not_formed(self):
        start = time.process_time()
        assert not printable(3, 10**4000) and not printable(10**4299, 2)
        assert time.process_time() - start < 0.1
