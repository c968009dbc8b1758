"""Construction of the ambient products of odd projective spaces, the
characteristic numbers of the codimension-2 zero loci inside them, and the
l-adic valuation table those numbers produce.

The ambient space for a given degree d and odd prime ell is built from the
base-ell digits of 2d+2, except when 2d+1 is a power of ell, where a single
alternative product of equal factors is used instead.  The characteristic
number of the zero locus is -2 times the top self-intersection degree of
the (1,...,1) twist, available both as a multinomial closed form and as a
brute-force expansion.  The expansions (`s_number_bruteforce`,
`signed_char_number`) run in the subring of the truncated ring that
permuting equal factors fixes (`chow.InvariantSubring`): alpha, the
tangent bundle and their Newton classes all lie there, and build_X repeats
its factors, so the orbits of monomials are far fewer than the monomials.
They push alpha step by step and read the top orbit; no multinomial or
other closed form enters.  Each is priced first by its invariant rank
times the factor count.

The valuation table walks the base-ell digits of 2d+2 once for all its
rows, by runs: between two carries out of digit 0 only digit 0 moves.  The
carries, the higher digits' factors and the valuation are dealt with once
per run, and each row of a run costs one small multiplication of the
running multinomial, its factor tuple and the row.  `s_number` and
`build_X` stay the row-by-row route the tests check the table against.
"""

from __future__ import annotations

from math import perm

from . import _sparse, chow
from ._record import Record
from .chow import LineTerm, ProjProduct, VirtualBundle
from .valuation import ell_powers, ladic_digits, multinomial, nu_factorial, _require_odd_prime

# Expansions refuse, before any ring arithmetic, a space whose predicted work
# (invariant rank x factor count, see _check_expansion_work) exceeds this.
# One route costs 0.35-0.5 us per unit on build_X's spaces on a 2-core x86
# host, so about 2 s at the limit, and more on one large factor beside a
# P^1, whose steps hold two orbits each: 1.2 us (2.6 us with the tangent
# bundle of N lines), and 4 s for P^999999 x P^1.  The invariant rank is at
# most the ring rank prod(n_i + 1), so this admits every space the full-ring
# rule (ring rank x factor count <= 2**22) did, and build_X(d, l) for every
# d <= 38 at l = 3, d <= 44 at l = 5 and d <= 46 at l = 7.
MAX_EXPANSION_WORK = 2**22


def _check_expansion_work(X: ProjProduct) -> None:
    """Refuse an expansion in the subring of X invariant under permuting
    equal factors whose work is above MAX_EXPANSION_WORK.  alpha**N visits
    every orbit once; from each one a push step reads the key's factor_count
    fields at most and makes at most one move per field."""
    rank = chow.invariant_rank(X)
    work = rank * X.factor_count
    if work > MAX_EXPANSION_WORK:
        raise ValueError(
            f"expansion in {X} has predicted work {work} (invariant rank "
            f"{rank} x {X.factor_count} factors), above the limit {MAX_EXPANSION_WORK}"
        )


class StongDatum(Record):
    """One row of the valuation table; expected is 1 when 2d+1 is a power
    of the prime, else 0."""

    __slots__ = ("prime", "d", "factors", "s_number", "valuation", "n_y", "expected")

    @property
    def matches(self) -> bool:
        return self.valuation == self.expected


def exceptional_exponent(d: int, ell: int) -> int | None:
    """r >= 1 with 2d = ell**r - 1, or None."""
    powers = ell_powers(ell, 2 * d + 1)
    return len(powers) if powers and powers[-1] == 2 * d + 1 else None


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
    """Same number by expansion of alpha**N in the subring of the truncated
    ring invariant under permuting equal factors."""
    _check_construction(X)
    _check_expansion_work(X)
    ring = chow.InvariantSubring(X)
    return -2 * ring.deg(ring.alpha_power(X.total_dimension))


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
    evaluated directly in the subring of the truncated ring invariant under
    permuting equal factors.  By the comparison of the two computations
    this equals (-1)**(n_Y + 1) times s_number(X); only the valuation is
    consumed downstream.
    """
    two_d = _check_construction(X)
    _check_expansion_work(X)
    # -T_Y restricted from X: the normal bundle xi + xi minus the tangent bundle
    ones = (1,) * X.factor_count
    v = VirtualBundle(X, (LineTerm(1, ones), LineTerm(1, ones))) + (-chow.tangent_bundle(X))
    if two_d == 0:
        # degenerate d = 0: the Newton class of degree 0 is not defined
        raise ValueError("signed characteristic number needs d >= 1")
    ring = chow.InvariantSubring(X)
    pushed = ring.times_alpha(ring.times_alpha(_invariant_newton_class(ring, v, two_d)))
    return (-1) ** sign_exponent(X) * ring.deg(pushed)


def _invariant_newton_class(ring: chow.InvariantSubring, v: VirtualBundle, n: int) -> dict:
    """The Newton class of v in ring, twist by twist: the all-ones twist
    gives alpha**n and the trivial twist 0; the unit twists on one group
    of equal factors give that group's power sum x**n, a single orbit, and
    must carry equal signs, or the class would not be invariant."""
    dims = v.space.dims
    units = [0] * len(dims)  # the sign of the unit twist on each factor
    terms = []
    for twist, sign in v.signed_twists().items():
        if not sign or not any(twist):
            continue  # the trivial twist's first Chern class is 0, and n >= 1
        if set(twist) == {1}:
            terms.extend((k, sign * c) for k, c in ring.alpha_power(n).items())
        elif sum(twist) == 1 and set(twist) == {0, 1}:
            units[twist.index(1)] = sign
        else:
            raise ValueError(f"twist {twist} is neither all ones nor a unit")
    for dim in set(dims):
        group = {sign for sign, n_i in zip(units, dims) if n_i == dim}
        if len(group) > 1:
            raise ValueError(f"unit twists on the copies of P^{dim} differ in sign")
        sign = group.pop()
        if sign and n <= dim:
            exps = [0] * len(dims)
            exps[dims.index(dim)] = n
            terms.append((ring.orbit(exps), sign))
    return _sparse.collect(terms)


def _walk(ell: int, d_max: int):
    """Walk n = 2d + 2, d = 1..d_max, by runs: between two carries out of
    digit 0 only digit 0 moves, by 2 a row.  Yield (d, digits, powers,
    carries, r, run) at each run's head d, the rows d + k, k < run, with
    digit 0 at digits[0] + 2k: digits are the base-ell digits of n, least
    significant first, and powers the matching ell**i, both the walker's
    own lists, which the next head changes; carries counts the digits 0,
    1, ... that carried into the next one on the step from n - 2; r is the
    exponent with 2d + 1 = ell**r, a row that carries and so a head, or
    None.  The prime is checked here, once for all the rows.  A digit below
    ell plus a carry of at most 2 carries at most 1, ell being odd."""
    if d_max < 1:
        raise ValueError("d_max must be positive")
    _require_odd_prime(ell)
    digits, powers = [2], [1]  # n = 2, d = 0
    exceptional, r = ell + 1, 1  # the next n = ell**r + 1
    d, run = 0, 1
    while d + run <= d_max:
        d += run
        digits[0] += 2 * run
        i = 0
        while digits[i] >= ell:
            digits[i] -= ell
            i += 1
            if i == len(digits):
                digits.append(0)
                powers.append(powers[-1] * ell)
            digits[i] += 1
        run = min((ell - 1 - digits[0]) // 2 + 1, d_max - d + 1)
        if 2 * d + 2 == exceptional:
            yield d, digits, powers, i, r, run
            exceptional, r = (exceptional - 1) * ell + 1, r + 1
        else:
            yield d, digits, powers, i, None, run


def _exceptional_counts(r: int, ell: int) -> list[int]:
    """Factor counts by digit position of P^1 x (P^(ell**(r-1)))**ell, the
    ambient space where 2d + 1 = ell**r."""
    counts = [1] + [0] * (r - 1)
    counts[r - 1] += ell
    return counts


def factor_counts(ell: int, d_max: int):
    """Yield (d, counts) for d = 1..d_max, counts the factors of
    build_X(d, ell) as (dimension, count) pairs in increasing dimension,
    row by row from the runs of the walk; no space is built."""
    for head, digits, powers, _, r, run in _walk(ell, d_max):
        for k in range(run):
            counts = [digits[0] + 2 * k, *digits[1:]] if k or r is None else _exceptional_counts(r, ell)
            yield head + k, tuple([(p, a) for p, a in zip(powers, counts) if a])


def valuation_table(ell: int, d_max: int) -> list[StongDatum]:
    """Rows d = 1..d_max with the closed-form number, its valuation by the
    Legendre path, and the expected dichotomy flag.

    The generic number is -2 M(n), n = 2d + 2 with base-ell digits a_i and
    M(n) = n! / prod((ell**i)!)**a_i, so it is a running value:
    M(n + 2) = M(n) (n + 1)(n + 2), divided exactly, for each carry out of
    digit i, by G_i = (ell**(i+1))! / ((ell**i)!)**ell, the multinomial of
    the ell factors P^(ell**i) that the carry merges into one of the next
    digit.  The exceptional rows, 2d + 1 = ell**r, take the multinomial of
    their own factors.  Every factor is a P^(ell**i), so a row's valuation
    is nu(n!) less nu((ell**i)!) per factor, and its sign exponent is
    1 + (n + factor count) / 2.  All run along: a step adds to nu(n!) the
    number of digits it carries (Legendre), a carry out of digit i adds
    nu((ell**(i+1))!) - ell nu((ell**i)!) to the factors' part, and the
    factor count, n's digit sum, gains 2 a step and loses ell - 1 a carry.

    The walk hands over the rows a run at a time.  The carries, the factor
    dimensions of the digits from 1 up (kept per digit, so a head rebuilds
    those it changed only) and the exceptional row are dealt with at the
    head, whose number is the last head's times n! / m! / prod(G_i), m the
    last head's n: an integer when only digit 0 carried into both heads,
    so one big-integer product, no division.  Along a run the valuation
    stays and the sign exponent gains 2 a row; a run row costs one
    big-integer product, its factor tuple and its space and row, made by
    their classes' positional builders, without the checks."""
    make_space, make_row = ProjProduct._trusted, StongDatum._trusted
    carry = [(1, 0)]  # by carries c: prod(G_i) and the change of the factors' nu, over i < c
    tails: list[tuple[int, ...]] = [(), ()]  # factor dimensions of the digits i and up
    generic, last = -4, 2  # -2 M(n) at the last head, n = 2: M(2) = 2! / (1!)**2
    nu_n, nu_sum, n_y = 0, 0, 3  # nu(n!), the factors' nu((ell**i)!), n_Y at n = 2: two P^1
    rows = []
    for head, digits, powers, carries, r, run in _walk(ell, d_max):
        n = 2 * head + 2
        if carries == len(carry):  # a new top digit: the first carry out of the one below
            top, below = powers[carries], powers[carries - 1]
            merged, nu_merged = carry[-1]
            nu_merged += nu_factorial(top, ell) - ell * nu_factorial(below, ell)
            carry.append((merged * multinomial(top, (below,) * ell), nu_merged))
            tails.append(())
        divisor, nu_step = carry[carries]
        rise, last = perm(n, n - last), n  # n! / m!, m the last head's n
        step, rest = divmod(rise, divisor)
        generic = generic * step if not rest else generic * rise // divisor
        for i in range(carries, 0, -1):
            tails[i] = (powers[i],) * digits[i] + tails[i + 1]
        # nu(|number|) = nu(multinomial): the factor 2 is prime to ell
        nu_n, nu_sum = nu_n + carries, nu_sum + nu_step
        valuation, n_y = nu_n - nu_sum, n_y + 2 - carries * (ell - 1) // 2
        dims = (1,) * digits[0] + tails[1]
        if r is None:
            rows.append(make_row(ell, head, make_space(dims), generic, valuation, n_y, 0))
        else:  # P^1 x (P^(ell**(r-1)))**ell: ell + 1 factors, against n's digit sum 2
            own = (1,) + (powers[r - 1],) * ell
            nu_own, n_y_own = nu_n - ell * nu_factorial(powers[r - 1], ell), n_y + (ell - 1) // 2
            s_own = -2 * multinomial(n, own)
            rows.append(make_row(ell, head, make_space(own), s_own, nu_own, n_y_own, 1))
        number = generic
        for d in range(head + 1, head + run):
            number *= (2 * d + 1) * (2 * d + 2)
            dims = (1, 1) + dims
            n_y += 2
            rows.append(make_row(ell, d, make_space(dims), number, valuation, n_y, 0))
    return rows
