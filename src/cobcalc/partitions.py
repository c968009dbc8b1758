"""Integer partitions: predicates, concatenation, bounded enumeration,
their count by Euler's recurrence, and the parser of the command line's
comma-separated parts.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is valid with weight 0.  Partitions are immutable values (a tuple
subclass), so they work directly as dict keys throughout the package.
"""

from __future__ import annotations

from collections.abc import Iterable

from .valuation import _require_odd_prime, ell_powers

PREDICATES = ("all", "even", "even-non-ladic")


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(sorted(parts, reverse=True))
        if any(type(p) is not int or p <= 0 for p in parts):  # not isinstance: a bool is refused
            raise ValueError(f"parts must be positive integers: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def is_even(self) -> bool:
        """True when every part is even; vacuously true for ()."""
        return all(p % 2 == 0 for p in self)

    def is_ladic(self, ell: int) -> bool:
        """True when some part equals ell**m - 1 for some m >= 1."""
        return any(p - 1 in self for p in ell_powers(ell, self[0] + 1 if self else 0))

    def concat(self, other: Iterable[int]) -> "Partition":
        """Multiset union of parts, reordered to be weakly decreasing."""
        return Partition(tuple(self) + tuple(other))

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}"


def concat(a: Iterable[int], b: Iterable[int]) -> Partition:
    return Partition(a).concat(b)


def _descending_partitions(n: int) -> list[tuple[int, ...]]:
    """The partitions of n in lexicographic-descending order, as plain
    tuples, by Knuth's Algorithm P (TAOCP 4A, 7.2.1.4): a[1..m] is the
    current partition and q the index of its last part above 1.  Each step
    lowers a[q] by one and refills the tail with copies of the new a[q]
    and a remainder, without recursion."""
    if n == 0:
        return [()]
    out = []
    a = [0] * (n + 1)
    a[1] = n
    m, q = 1, 1 - (n == 1)
    while True:
        out.append(tuple(a[1 : m + 1]))
        if a[q] == 2:  # change the 2 into 1 + 1
            a[q] = 1
            q -= 1
            m += 1
            a[m] = 1
            continue
        if q == 0:
            return out
        x = a[q] - 1
        a[q] = x
        rest, m = m - q + 1, q + 1
        while rest > x:
            a[m] = x
            m += 1
            rest -= x
        a[m] = rest
        q = m - (rest == 1)


def _partition_numbers(top: int) -> list[int]:
    """p(0..top) by Euler's pentagonal-number recurrence: p(n) is the sum
    over k >= 1 of (-1)**(k - 1) (p(n - k(3k - 1)/2) + p(n - k(3k + 1)/2))."""
    p = [1] + [0] * top
    for n in range(1, top + 1):
        k, pentagonal = 1, 1
        while pentagonal <= n:
            term = p[n - pentagonal] + (p[n - pentagonal - k] if pentagonal + k <= n else 0)
            p[n] += term if k % 2 else -term
            k += 1
            pentagonal += 3 * k - 2
    return p


_new = tuple.__new__


def enumerate_partitions(w: int, predicate: str = "all", ell: int | None = None) -> list[Partition]:
    """All partitions of weight w satisfying the predicate, each once,
    in lexicographic-descending order on part lists.

    predicate: "all", "even", or "even-non-ladic" (needs ell).
    """
    if w < 0:
        raise ValueError("weight must be nonnegative")
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}, expected one of {PREDICATES}")
    if predicate == "even-non-ladic":
        # checked for every weight, the odd ones too, which list nothing
        if ell is None:
            raise ValueError("even-non-ladic predicate needs a prime")
        _require_odd_prime(ell)
    # the tuples are already weakly decreasing, so Partition's sort is skipped
    if predicate == "all":
        return [_new(Partition, p) for p in _descending_partitions(w)]
    if w % 2 == 1:
        return []
    # even partitions of w are doubled partitions of w/2; doubling preserves order
    evens = [_new(Partition, [2 * x for x in p]) for p in _descending_partitions(w // 2)]
    if predicate == "even":
        return evens
    return [p for p in evens if not p.is_ladic(ell)]


def _parse_parts(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII digits, blanks allowed around each part; empty
    text is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    parts = [x.strip() for x in text.split(",")]
    for x in parts:
        if not (x.isascii() and x.isdigit()):
            raise ValueError(f"cannot parse part {x!r}, expected a nonnegative integer")
    return tuple(int(x) for x in parts)
