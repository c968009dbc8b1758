"""Construction of the ambient products of odd projective spaces, the
characteristic numbers of the codimension-2 zero loci inside them, and the
l-adic valuation table those numbers produce.

The ambient space for a given degree d and odd prime ell is built from the
base-ell digits of 2d+2, except when 2d+1 is a power of ell, where a single
alternative product of equal factors is used instead.  The characteristic
number of the zero locus is -2 times the top self-intersection degree of
the (1,...,1) twist, available both as a multinomial closed form and as a
brute-force expansion in the truncated ring.

The valuation table walks the base-ell digits of 2d+2 once for all its
rows: each generic row's multinomial follows from the previous row's by one
small multiplication and, where a digit carries, one exact division, and
its valuation and factors come from the digit counts.  `s_number` and
`build_X` stay the row-by-row route the tests check the table against.
"""

from __future__ import annotations

from math import prod

from . import chow
from ._record import Record
from .chow import LineTerm, ProjProduct, VirtualBundle
from .valuation import ladic_digits, multinomial, nu_factorial, _require_odd_prime

# Expansions refuse, before any ring arithmetic, a space whose predicted work
# (ring rank prod(n_i + 1) x factor count, about 0.5 s per million) exceeds
# this.  It admits every space of total dimension <= 16, and build_X(d, l)
# for d <= 30 at l = 3 and 5 and for d <= 20 at l = 7 except d = 19.
MAX_EXPANSION_WORK = 2**22


def _check_expansion_work(X: ProjProduct) -> None:
    rank = prod(n + 1 for n in X.dims)
    work = rank * X.factor_count
    if work > MAX_EXPANSION_WORK:
        raise ValueError(
            f"expansion in {X} has predicted work {work} (rank {rank} x "
            f"{X.factor_count} factors), above the limit {MAX_EXPANSION_WORK}"
        )


class StongDatum(Record):
    """One row of the valuation table; expected is 1 when 2d+1 is a power
    of the prime, else 0."""

    __slots__ = ("prime", "d", "factors", "s_number", "valuation", "n_y", "expected")

    def __init__(
        self,
        prime: int,
        d: int,
        factors: ProjProduct,
        s_number: int,
        valuation: int,
        n_y: int,
        expected: int,
    ) -> None:
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "s_number", s_number)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "n_y", n_y)
        object.__setattr__(self, "expected", expected)

    @property
    def matches(self) -> bool:
        return self.valuation == self.expected


def exceptional_exponent(d: int, ell: int) -> int | None:
    """r >= 1 with 2d = ell**r - 1, or None."""
    _require_odd_prime(ell)
    target = 2 * d + 1
    power, r = ell, 1
    while power <= target:
        if power == target:
            return r
        power *= ell
        r += 1
    return None


def build_X(d: int, ell: int) -> ProjProduct:
    """Ambient product of total dimension 2d+2.

    Generic case: a_i copies of P^(ell^i) for each base-ell digit a_i of
    2d+2 (digit groups with a_i = 0 are simply omitted).  When 2d+1 is a
    power ell**r, the ambient is P^1 x (P^(ell^(r-1)))^ell instead.
    """
    if d < 1:
        raise ValueError("d must be positive")
    _require_odd_prime(ell)
    r = exceptional_exponent(d, ell)
    if r is not None:
        return ProjProduct((1,) + (ell ** (r - 1),) * ell)
    dims: list[int] = []
    for i, a in enumerate(ladic_digits(2 * d + 2, ell).digits):
        dims.extend([ell**i] * a)
    return ProjProduct(tuple(dims))


def _check_construction(X: ProjProduct) -> int:
    """Validate odd factor dimensions in even number; return 2d."""
    if any(n % 2 == 0 for n in X.dims):
        raise ValueError(f"factor dimensions must all be odd: {X.dims}")
    if X.factor_count % 2:
        raise ValueError(f"need an even number of factors: {X.dims}")
    return X.total_dimension - 2


def s_number(X: ProjProduct) -> int:
    """Closed form -2 * multinomial(total, dims) for the characteristic
    number of the zero locus of two (1,...,1) twists inside X."""
    _check_construction(X)
    return -2 * multinomial(X.total_dimension, X.dims)


def s_number_bruteforce(X: ProjProduct) -> int:
    """Same number by full expansion in the truncated ring."""
    _check_construction(X)
    _check_expansion_work(X)
    a = chow.alpha(X)
    return -2 * chow.deg(a ** X.total_dimension)


def congruence_check(d: int, ell: int) -> tuple[int, int, bool]:
    """Digit-factorial congruence for generic d: the degree of twice the
    top power of the hyperplane sum against 2 * a_0! * a_1! * ... mod ell.

    Only defined away from the exceptional degrees 2d = ell**r - 1.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if exceptional_exponent(d, ell) is not None:
        raise ValueError(f"2d = {2 * d} is {ell}**r - 1; congruence is generic-only")
    X = build_X(d, ell)
    lhs = (2 * multinomial(X.total_dimension, X.dims)) % ell
    rhs = 2
    for a in ladic_digits(2 * d + 2, ell).digits:
        for k in range(2, a + 1):
            rhs *= k
    rhs %= ell
    return lhs, rhs, lhs == rhs


def sign_exponent(X: ProjProduct) -> int:
    """Twist-factor count 1 + sum over factors P^(2n_i+1) of (n_i + 1)."""
    _check_construction(X)
    return 1 + sum((n + 1) // 2 for n in X.dims)


def signed_char_number(X: ProjProduct) -> int:
    """Characteristic number of the associated symplectic class, with its
    sign: (-1)**n_Y times the degree of a^2 * c_(2d)(xi + xi - T_X),
    evaluated directly in the truncated ring.  By the comparison of the two
    computations this equals (-1)**(n_Y + 1) times s_number(X); only the
    valuation is consumed downstream.
    """
    two_d = _check_construction(X)
    _check_expansion_work(X)
    # -T_Y restricted from X: the normal bundle xi + xi minus the tangent bundle
    ones = (1,) * X.factor_count
    v = VirtualBundle(X, (LineTerm(1, ones), LineTerm(1, ones))) + (-chow.tangent_bundle(X))
    if two_d == 0:
        # degenerate d = 0: the Newton class of degree 0 is not defined
        raise ValueError("signed characteristic number needs d >= 1")
    cls = chow.newton_class(v, two_d)
    pushed = chow.alpha(X) ** 2 * cls
    return (-1) ** sign_exponent(X) * chow.deg(pushed)


def _walk(ell: int, d_max: int):
    """For d = 1..d_max, yield (d, counts, carries, r).  counts gives the
    factors of build_X(d, ell) as (dimension, count) pairs in increasing
    dimension; carries lists the digits i of n = 2d + 2 in base ell that
    carried into digit i + 1 on the step from n - 2; r is the exponent with
    2d + 1 = ell**r, or None.  One pass over the digits serves every row:
    adding 2 to n touches digit 0 and, rarely, a chain of carries."""
    if d_max < 1:
        raise ValueError("d_max must be positive")
    _require_odd_prime(ell)
    digits, powers = [2], [1]  # n = 2, d = 0
    exceptional, r = ell + 1, 1  # the next n = ell**r + 1
    for d in range(1, d_max + 1):
        carries, i, carry = [], 0, 2
        while carry:
            if i == len(digits):
                digits.append(0)
                powers.append(powers[-1] * ell)
            # a digit below ell plus 2 carries at most 1, ell being odd
            carry, digits[i] = divmod(digits[i] + carry, ell)
            if carry:
                carries.append(i)
            i += 1
        if 2 * d + 2 == exceptional:
            counts = ((1, 1), (powers[r - 1], ell)) if r > 1 else ((1, ell + 1),)
            yield d, counts, carries, r
            exceptional, r = (exceptional - 1) * ell + 1, r + 1
        else:
            yield d, tuple((p, a) for p, a in zip(powers, digits) if a), carries, None


def factor_counts(ell: int, d_max: int):
    """Yield (d, counts) for d = 1..d_max, counts the factors of
    build_X(d, ell) as (dimension, count) pairs in increasing dimension;
    no space is built."""
    for d, counts, _, _ in _walk(ell, d_max):
        yield d, counts


def valuation_table(ell: int, d_max: int) -> list[StongDatum]:
    """Rows d = 1..d_max with the closed-form number, its valuation by the
    Legendre path, and the expected dichotomy flag.

    The generic number is -2 M(n), n = 2d + 2 with base-ell digits a_i and
    M(n) = n! / prod((ell**i)!)**a_i, so it follows from the row before:
    M(n + 2) = M(n) (n + 1)(n + 2), divided exactly, for each carry out of
    digit i, by G_i = (ell**(i+1))! / ((ell**i)!)**ell, the multinomial of
    the ell factors P^(ell**i) that the carry merges into one of the next
    digit.  The exceptional rows, 2d + 1 = ell**r, use s_number directly.
    Valuations and sign exponents come from the factor counts."""
    merge: dict[int, int] = {}  # i -> G_i
    generic = 2  # M(2) = 2! / (1!)**2
    rows = []
    for d, counts, carries, r in _walk(ell, d_max):
        n = 2 * d + 2
        generic *= (n - 1) * n
        for i in carries:
            if i not in merge:
                merge[i] = multinomial(ell ** (i + 1), (ell**i,) * ell)
            generic //= merge[i]
        dims: tuple[int, ...] = ()
        for p, a in counts:
            dims += (p,) * a
        X = ProjProduct(dims)
        rows.append(
            StongDatum(
                prime=ell,
                d=d,
                factors=X,
                s_number=-2 * generic if r is None else s_number(X),
                # nu(|s|) = nu(multinomial): the factor 2 is prime to ell
                valuation=nu_factorial(n, ell) - sum(a * nu_factorial(p, ell) for p, a in counts),
                n_y=1 + sum(a * ((p + 1) // 2) for p, a in counts),
                expected=0 if r is None else 1,
            )
        )
    return rows
