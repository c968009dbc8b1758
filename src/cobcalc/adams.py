"""Graded-dimension bookkeeping for the filtered pages attached to the
polynomial ring of weight-2i generators.  Only dimensions are modeled,
never the modules themselves: the partition-indexed module decomposition
checked as a counting identity, and the per-degree ranks of the diagonal
counted two ways, by partitions of d and by monomials of weight 2d in the
presentation's generator degrees.

Every multiset count is one call of `_counts`; the partition route reads
Euler's recurrence instead.  The decomposition identity checks that
`Partition.is_ladic`'s even degrees and the degrees ell**r - 1 tile the
even degrees, and the generator route counts monomials in that tiling.
"""

from __future__ import annotations

from ._record import Record
from .partitions import Partition, _partition_numbers
from .valuation import _require_odd_prime, ell_powers


def _non_ladic_even_degrees(ell: int, bound: int) -> list[int]:
    """The even degrees 2 <= g <= bound that are not l-adic as one-part
    partitions, increasing."""
    return [g for g in range(2, bound + 1, 2) if not Partition((g,)).is_ladic(ell)]


def _counts(degrees: list[int], top: int) -> list[int]:
    """Entry n (0 <= n <= top): the number of multisets of degrees summing
    to n, i.e. the coefficients of prod 1/(1 - x**g) over g in degrees."""
    counts = [1] + [0] * top
    for g in degrees:
        for n in range(g, top + 1):
            counts[n] += counts[n - g]
    return counts


class DecompositionRow(Record):
    _fields = ("weight", "even_partition_count", "module_count")
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.even_partition_count == self.module_count


class DecompositionReport(Record):
    _fields = ("rows",)
    __slots__ = ()

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows)


# the row convolution is quadratic in the weight: 4000 takes about a second
MAX_DECOMPOSITION_WEIGHT = 4000
# both rank routes are quadratic in d_max: 5000 takes about three seconds
MAX_RANK_D = 5000


def decomposition_check(max_weight: int, ell: int) -> DecompositionReport:
    """Per even weight w <= max_weight, compare the number of partitions of
    w into even parts against the number of (even non-l-adic partition,
    exponent sequence) pairs of total weight w.  Equality in every weight
    is the graded-dimension form of the module decomposition."""
    _require_odd_prime(ell)
    if not 0 <= max_weight <= MAX_DECOMPOSITION_WEIGHT:
        raise ValueError(f"max_weight must be in 0..{MAX_DECOMPOSITION_WEIGHT}, got {max_weight}")
    even = _counts(list(range(2, max_weight + 1, 2)), max_weight)
    non_ladic = _counts(_non_ladic_even_degrees(ell, max_weight), max_weight)
    milnor = _counts([p - 1 for p in ell_powers(ell, max_weight + 1)], max_weight)
    make_row = DecompositionRow._trusted
    rows = [
        make_row(w, even[w], sum(non_ladic[v] * milnor[w - v] for v in range(0, w + 1, 2)))
        for w in range(0, max_weight + 1, 2)
    ]
    return DecompositionReport(tuple(rows))


def e2_ranks(d_max: int) -> list[int]:
    """Free ranks of the degree -2d diagonals, d = 1..d_max: the number of
    partitions of 2d into even parts, which is the number of partitions of
    d."""
    if not 1 <= d_max <= MAX_RANK_D:
        raise ValueError(f"d_max must be positive and at most {MAX_RANK_D}, got {d_max}")
    return _partition_numbers(d_max)[1:]


def e2_rank(d: int) -> int:
    """Entry d of `e2_ranks`."""
    return e2_ranks(d)[-1]


def _generator_degrees(ell: int, max_degree: int) -> list[int]:
    """Positive even generator degrees up to max_degree: 2k for every
    non-l-adic 2k, and ell**r - 1 for r >= 1.  Jointly these tile the
    even degrees exactly once."""
    exceptional = [p - 1 for p in ell_powers(ell, max_degree + 1)]
    return sorted(_non_ladic_even_degrees(ell, max_degree) + exceptional)


def e2_ranks_from_generators(d_max: int, ell: int) -> list[int]:
    """Same ranks by counting monomials in the presentation's generator
    degrees; independent of the partition route and of ell."""
    if not 1 <= d_max <= MAX_RANK_D:
        raise ValueError(f"d_max must be positive and at most {MAX_RANK_D}, got {d_max}")
    _require_odd_prime(ell)
    return _counts(_generator_degrees(ell, 2 * d_max), 2 * d_max)[2::2]


def e2_rank_from_generators(d: int, ell: int) -> int:
    """Entry d of `e2_ranks_from_generators`."""
    return e2_ranks_from_generators(d, ell)[-1]
