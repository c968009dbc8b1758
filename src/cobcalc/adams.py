"""Rank and graded-dimension bookkeeping for the filtered pages attached
to the polynomial ring of weight-2i generators: the partition-indexed
module decomposition checked as a counting identity, the diagonal algebra
of the associated trigraded presentation, and the per-degree ranks that
pin down the image of the comparison map.

Only dimensions are modeled, never the modules themselves; the tracked
diagonal consists of the spots (s, t, u) with t = 2u, where the algebra is
polynomial on one generator in each even negative degree.

Every singly graded multiset count is one call of `_counts`.  The
decomposition identity checks that `Partition.is_ladic`'s even degrees and
the degrees ell**r - 1 tile the even degrees.
"""

from __future__ import annotations

from ._record import Record
from .partitions import Partition, _partition_numbers
from .valuation import _require_odd_prime, ell_powers


class TriDegree(Record):
    """Filtration s, cohomological degree t, weight u; the spot holds the
    bidegree-(t - s, u) component of the filtration-s layer."""

    __slots__ = ("s", "t", "u")

    @property
    def internal(self) -> tuple[int, int]:
        return (self.t - self.s, self.u)


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


def milnor_count(q: int, ell: int) -> int:
    """Number of exponent sequences of weight q: multisets of the slot
    weights ell**i - 1."""
    _require_odd_prime(ell)
    if q < 0:
        raise ValueError("weight must be nonnegative")
    return _counts([p - 1 for p in ell_powers(ell, q + 1)], q)[q]


class DecompositionRow(Record):
    __slots__ = ("weight", "even_partition_count", "module_count")

    @property
    def equal(self) -> bool:
        return self.even_partition_count == self.module_count


class DecompositionReport(Record):
    __slots__ = ("prime", "rows")

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
    return DecompositionReport(ell, tuple(rows))


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


def ext_generators(ell: int, u_min: int) -> list[tuple[str, TriDegree]]:
    """Generators of the diagonal algebra with weight component >= u_min:
    the unit, the partition duals z_(2k) at (0, -4k, -2k) for 2k not of the
    form ell**i - 1, and the tower classes h'_r at (1, 2(1 - ell**r),
    1 - ell**r) for r >= 0.  Every generator sits on the t = 2u diagonal.
    """
    _require_odd_prime(ell)
    if u_min > 0:
        raise ValueError("u_min must be <= 0")
    gens = [("1", TriDegree(0, 0, 0))]
    for g in _non_ladic_even_degrees(ell, -u_min):
        gens.append((f"z_({g})", TriDegree(0, -2 * g, -g)))
    for r, p in enumerate([1] + ell_powers(ell, 1 - u_min)):
        gens.append((f"h'_{r}", TriDegree(1, 2 * (1 - p), 1 - p)))
    gens.sort(key=lambda g: (-g[1].u, g[1].s, g[0]))
    return gens


def _diagonal_dimension(s: int, u: int, ell: int) -> int:
    """Number of generator monomials at filtration s and weight u on the
    t = 2u diagonal.  Powers of the degree-0 tower class absorb any excess
    filtration, so a monomial in the other generators with filtration
    s' <= s and weight u counts once."""
    if u > 0 or s < 0:
        return 0
    target = -u
    # dp[s'][w] = monomial count in the z's (s-degree 0) and h'_{r>=1}
    # (s-degree 1): the z-part is one row, each h'_r raises s' by one
    dp = [_counts(_non_ladic_even_degrees(ell, target), target)]
    dp += [[0] * (target + 1) for _ in range(s)]
    for g in [p - 1 for p in ell_powers(ell, target + 1)]:
        for s_ in range(1, s + 1):
            for w in range(g, target + 1):
                dp[s_][w] += dp[s_ - 1][w - g]
    return sum(dp[s_][target] for s_ in range(s + 1))


def vanishing_check(s: int, t: int, u: int, ell: int) -> bool:
    """True when the dimension model assigns 0 at (s, t, u): everything
    off the diagonal (t != 2u) vanishes, and on the diagonal the monomial
    count decides.  Below the diagonal the weight-(u=1) line can be nonzero
    and is field-dependent; it is outside this model, so it is refused."""
    _require_odd_prime(ell)
    if t < 2 * u and u == 1:
        raise ValueError("the u = 1 line below the diagonal is outside the model")
    if t != 2 * u:
        return True
    return _diagonal_dimension(s, u, ell) == 0
