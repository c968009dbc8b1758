"""Exact l-adic valuations and multinomial arithmetic.

All quantities are computed with arbitrary-precision integers.  Valuations
of factorial-sized numbers additionally have a Legendre-formula path
(`nu_factorial`, `nu_multinomial`) that never builds the big integer, so
valuations stay cheap even where the factorials would not.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import Record


# Miller-Rabin with these bases is exact below PRIME_TEST_LIMIT (Sorenson
# and Webster, Math. Comp. 2017); numbers from there on are refused.  Below
# psi_2 = 1373653 the bases 2 and 3 alone are exact (Pomerance, Selfridge
# and Wagstaff, Math. Comp. 1980).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_2 = 1373653
PRIME_TEST_LIMIT = 3317044064679887385961981

# Python's default limit on the digits of an int converted to a string (from
# Python 3.10.7 on): the most digits a printed number may have, checked on
# each number where it is formed (`printable`)
MAX_DIGITS = 4300
_PRINT_BOUND = 10**MAX_DIGITS


def printable(c: int, n: int = 1) -> bool:
    """Whether c**n has at most MAX_DIGITS digits, formed only when it is
    below the bound squared: |c| >= 2**(b - 1), b its bit length, so a
    power with (b - 1) n bits or more has too many."""
    c = abs(c)
    return c < 2 or (c.bit_length() - 1) * n < _PRINT_BOUND.bit_length() and c**n < _PRINT_BOUND


# One query checks the same prime many times over (build_X alone checks
# it four times), so the answers are cached.
@lru_cache(maxsize=256)
def is_odd_prime(ell: int) -> bool:
    if ell >= PRIME_TEST_LIMIT:
        raise ValueError(
            f"{ell} is too large: the primality test is exact only below {PRIME_TEST_LIMIT}"
        )
    if ell < 3 or ell % 2 == 0:
        return False
    if ell % 3 == 0:
        return ell == 3  # 3 is a base below
    return _miller_rabin(ell, _WITNESSES[:2] if ell < _PSI_2 else _WITNESSES)


def _miller_rabin(n: int, bases: tuple[int, ...] = _WITNESSES) -> bool:
    """Whether the odd n, greater than every base, is a strong probable
    prime to every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_odd_prime(ell: int) -> None:
    if not is_odd_prime(ell):
        raise ValueError(f"{ell} is not an odd prime")


def ell_powers(ell: int, bound: int) -> list[int]:
    """ell**r for r >= 1 up to bound, increasing, after checking that ell
    is an odd prime."""
    _require_odd_prime(ell)
    powers, p = [], ell
    while p <= bound:
        powers.append(p)
        p *= ell
    return powers


def nu(n: int, ell: int) -> int:
    """Largest e such that ell**e divides n.

    Raises ValueError for n == 0: a vanishing quantity has no valuation,
    and callers must treat it as an immediate rejection rather than as
    "infinite valuation".
    """
    _require_odd_prime(ell)
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    return _nu(n, ell)


def _nu(n: int, ell: int) -> int:
    """nu(n, ell) for a nonzero n and an ell known to be an odd prime."""
    n = abs(n)
    e = 0
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def nu_factorial(n: int, ell: int) -> int:
    """nu(n!) by Legendre's formula, sum of floor(n / ell**i)."""
    _require_odd_prime(ell)
    if n < 0:
        raise ValueError("factorial of a negative integer")
    total = 0
    q = n // ell
    while q:
        total += q
        q //= ell
    return total


def multinomial(n: int, parts: list[int] | tuple[int, ...]) -> int:
    """n! / prod(parts_i!), exactly.  Requires sum(parts) == n."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts sum to {sum(parts)}, expected {n}")
    # a chain of binomials of the partial sums: no factorial of n is built.
    # Largest part first, the first binomial is 1 and the later ones small.
    result, total = 1, 0
    for p in sorted(parts, reverse=True):
        total += p
        result *= math.comb(total, p)
    return result


def nu_multinomial(n: int, parts: list[int] | tuple[int, ...], ell: int) -> int:
    """Valuation of multinomial(n, parts) without constructing it."""
    if sum(parts) != n:
        raise ValueError(f"parts sum to {sum(parts)}, expected {n}")
    return nu_factorial(n, ell) - sum(nu_factorial(p, ell) for p in parts)


class LadicDigits(Record):
    """Base-ell expansion, least significant digit first, no trailing zeros."""

    _fields = ("prime", "digits")
    __slots__ = ()

    def __new__(cls, prime: int, digits: tuple[int, ...]) -> LadicDigits:
        _require_odd_prime(prime)
        if any(type(d) is not int or not 0 <= d < prime for d in digits):
            raise ValueError(f"digits must be ints in [0, {prime}): {digits}")
        if digits and digits[-1] == 0:
            raise ValueError("trailing zero digit")
        return cls._trusted(prime, digits)

    def value(self) -> int:
        return sum(d * self.prime**i for i, d in enumerate(self.digits))


def ladic_digits(n: int, ell: int) -> LadicDigits:
    _require_odd_prime(ell)
    if n < 0:
        raise ValueError("expansion of a negative integer")
    digits = []
    while n:
        n, d = divmod(n, ell)
        digits.append(d)
    return LadicDigits(ell, tuple(digits))
