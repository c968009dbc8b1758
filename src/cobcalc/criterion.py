"""Generator-detection verdicts from l-adic valuations of characteristic
numbers: the local criteria in the two gradings and the aggregated check
over a finite range of odd primes.

A candidate family assigns one integer characteristic number to each
degree index 1..d_max.  A zero entry is a hard per-degree failure (no
valuation exists), never an exception, so batch tables cannot abort.
The verdict rows are the package's own values, so they are built by
`DegreeVerdict`'s positional builder, without its constructor.
"""

from __future__ import annotations

import math
from itertools import compress

from . import stong
from ._record import Record
from .valuation import _nu, ell_powers


class CandidateFamily(Record):
    """kind "msp": entry d is the characteristic number in degree -2d.
    kind "mgl": entry d is the characteristic number in degree -d."""

    __slots__ = ("kind", "entries")

    def __init__(self, kind: str, entries: dict | None = None) -> None:
        if kind not in ("msp", "mgl"):
            raise ValueError(f"unknown family kind {kind!r}")
        clean = {}
        for d, value in (entries or {}).items():
            d = int(d)
            if d < 1:
                raise ValueError("degree indices start at 1")
            clean[d] = int(value)
        self._set(kind, clean)

    def require_range(self, d_max: int) -> None:
        """Refuse a family without an entry for each of 1..d_max, naming
        the missing degrees as runs, so the message stays short."""
        missing = [d for d in range(1, d_max + 1) if d not in self.entries]
        if not missing:
            return
        runs: list = []  # [first, last] of each run of missing degrees
        for d in missing:
            if runs and runs[-1][1] == d - 1:
                runs[-1][1] = d
            else:
                runs.append([d, d])
        named = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)
        raise ValueError(f"family is missing degrees {named}")

    def with_entry(self, d: int, value: int) -> "CandidateFamily":
        entries = dict(self.entries)
        entries[d] = value
        return CandidateFamily(self.kind, entries)


class DegreeVerdict(Record):
    """observed is None when the entry is zero."""

    __slots__ = ("d", "required", "observed", "passed", "reason")

    def __init__(
        self, d: int, required: int, observed: int | None, passed: bool, reason: str = ""
    ) -> None:
        self._set(d, required, observed, passed, reason)


class GeneratorVerdict(Record):
    __slots__ = ("kind", "primes", "rows")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list[DegreeVerdict]:
        return [r for r in self.rows if not r.passed]


def required_valuation_mgl(d: int, ell: int) -> int:
    """1 when d + 1 is a positive power of ell, else 0."""
    return int(d + 1 in ell_powers(ell, d + 1))


def required_valuation_msp(d: int, ell: int) -> int:
    """1 when 2d + 1 is a positive power of ell, else 0."""
    return required_valuation_mgl(2 * d, ell)


def _check_family(fam: CandidateFamily, ell: int, d_max: int, exceptional: set) -> GeneratorVerdict:
    """Verdicts for d = 1..d_max at the odd prime ell, already checked, with
    valuation 1 required exactly at the degrees in exceptional.  The rows
    are built by DegreeVerdict's positional builder: their fields are the
    package's own."""
    fam.require_range(d_max)
    make_row, entries = DegreeVerdict._trusted, fam.entries
    rows = []
    for d in range(1, d_max + 1):
        value = entries[d]
        need = 1 if d in exceptional else 0
        if value == 0:
            rows.append(make_row(d, need, None, False, "zero characteristic number"))
            continue
        seen = _nu(value, ell)
        reason = "" if seen == need else f"valuation {seen}, required {need}"
        rows.append(make_row(d, need, seen, seen == need, reason))
    return GeneratorVerdict(fam.kind, (ell,), tuple(rows))


def mgl_criterion(fam: CandidateFamily, ell: int, d_max: int) -> GeneratorVerdict:
    """Per degree d: the entry must have valuation 1 exactly when d is one
    less than a power of ell, and valuation 0 otherwise."""
    if fam.kind != "mgl":
        raise ValueError("expected an mgl family")
    return _check_family(fam, ell, d_max, {p - 1 for p in ell_powers(ell, d_max + 1)})


def msp_criterion(fam: CandidateFamily, ell: int, d_max: int) -> GeneratorVerdict:
    """Per degree index d (degree -2d): valuation 1 exactly when 2d is one
    less than a power of ell, and valuation 0 otherwise."""
    if fam.kind != "msp":
        raise ValueError("expected an msp family")
    return _check_family(fam, ell, d_max, {(p - 1) // 2 for p in ell_powers(ell, 2 * d_max + 1)})


# A check is refused, before any prime is sought, when its predicted work
# exceeds this: the primes swept (for a global check estimated as
# bound / ln(bound)) times the cost of one prime, 20 units plus d + 12 for
# each row d <= d_max.  That is the cost at a prime above 2d + 2, where the
# row's multinomial has 2d + 2 factors; smaller primes cost less.  Since the
# valuation table builds each row from the one before, the family keeps no
# row, and each row, its space and its verdict go through their classes'
# positional builders, a row unit is about 0.018 us on a 2-core x86 host, so
# one prime at d = 1250 takes about 14 ms in-process and 0.10 s as a
# command; a prime's fixed part is about 11 us.  The largest sweep admitted,
# all primes up to 306232 at d = 1, takes about 0.6 s as a command: 6 ms to
# sieve the primes, about 0.3 s for the verdicts and about 0.25 s to build
# and render the report.
MAX_SWEEP_WORK = 800_000


def check_sweep_work(prime_bound: int, d_max: int, primes: int | None = None) -> None:
    """Refuse a sweep of primes up to prime_bound over the rows 1..d_max
    whose predicted work exceeds MAX_SWEEP_WORK.  primes counts the primes
    swept; by default they are all the odd primes up to prime_bound.  A
    sweep over no row is refused here, before its primes are sought."""
    if d_max < 1:
        raise ValueError("d_max must be positive")
    if prime_bound < 3:
        return  # no prime: refused where the sweep is built
    # the work grows with both, and either one capped at the limit already
    # predicts more than the limit, so the float arithmetic cannot overflow
    bound, rows = min(prime_bound, MAX_SWEEP_WORK), min(d_max, MAX_SWEEP_WORK)
    count = bound / math.log(bound) if primes is None else primes
    if count * (20 + rows * (rows + 25) / 2) > MAX_SWEEP_WORK:
        which = "the primes" if primes is None else f"{primes} prime(s)"
        raise ValueError(
            f"a sweep of {which} up to {prime_bound} over d <= {d_max} has "
            f"predicted work above the limit {MAX_SWEEP_WORK}"
        )


def odd_primes_up_to(bound: int, excluded=()) -> list[int]:
    """The sweep of a global check: odd primes up to bound, not excluded,
    by a sieve of Eratosthenes on one byte per number, so bound is priced
    by check_sweep_work first.  An empty sweep would pass vacuously, so it
    is refused."""
    skip = set(excluded)
    sieve = bytearray([1]) * (max(bound, 2) + 1)
    for p in range(3, math.isqrt(max(bound, 0)) + 1, 2):
        if sieve[p]:
            # odd multiples from p*p on: the smaller ones have a smaller factor
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, bound + 1, 2 * p)))
    primes = [p for p in compress(range(3, bound + 1, 2), sieve[3::2]) if p not in skip]
    if not primes:
        raise ValueError(f"no odd prime up to {bound} is left to check after excluding {sorted(skip)}")
    return primes


def global_criterion(
    fam: CandidateFamily | None, prime_bound: int, d_max: int, excluded=(2,)
) -> dict[int, GeneratorVerdict]:
    """Run the local criterion for every odd prime up to prime_bound not in
    excluded, on the same family, or with fam None on each prime's own
    construction, `stong_family(ell, d_max)`, where a bound of 2 d_max + 2
    decides every odd prime: above it each build_X(d, ell) is (P^1)**(2d + 2),
    of valuation 0, as the unit condition away from 2d + 1 = ell**r asks."""
    check_sweep_work(prime_bound, d_max)
    primes = odd_primes_up_to(prime_bound, excluded)
    return {ell: msp_criterion(fam or stong_family(ell, d_max), ell, d_max) for ell in primes}


def aggregate_passed(verdicts: dict[int, GeneratorVerdict]) -> bool:
    return all(v.passed for v in verdicts.values())


def stong_family(ell: int, d_max: int) -> CandidateFamily:
    """Default candidate family: absolute characteristic numbers of the
    construction for the given prime, read off the rows as they are made."""
    entries = {row.d: abs(row.s_number) for row in stong.valuation_rows(ell, d_max)}
    return CandidateFamily._trusted(kind="msp", entries=entries)
