"""Construction of the ambient products of odd projective spaces, the
characteristic numbers of the codimension-2 zero loci inside them, and the
l-adic valuation table those numbers produce.

The ambient space for a given degree d and odd prime ell is built from the
base-ell digits of 2d+2, except when 2d+1 is a power of ell, where a single
alternative product of equal factors is used instead.  The s-number is -2
times the top self-intersection degree of the (1,...,1) twist, available
both as a multinomial closed form and as a brute-force expansion; up to
sign it is the zero locus's characteristic number except on P^(2d+1) x
P^1, where the tangent bundle's term cancels it.  The expansions
(`s_number_bruteforce`, `signed_char_number`) run in the subring of the
truncated ring that permuting equal factors fixes (`chow.InvariantSubring`):
alpha, the tangent bundle and their Newton classes all lie there, and
build_X repeats its factors, so the orbits of monomials are far fewer than
the monomials.  They are the subring's push steps and Newton class, read
at the top orbit; no multinomial or other closed form enters.  Each is
priced first by its invariant rank times the factor count.

The valuation table is one generator, `valuation_rows`, that walks the
base-ell digits of 2d+2 one row at a time, each row made from the one
before, and reads the exceptional row off the carry into a new top digit.
It yields each row as it is made, so a caller can check each number as it
is formed and stop at the first it refuses, and keep no row it has read.
`s_number` and `build_X` stay the route, one multinomial per row, that the
tests check the table against.

The table's dichotomy is a theorem: nu_ell(s_number(build_X(d, ell))) is 1
when 2d+1 is a power of ell, else 0.  With n = 2d+2 and ell odd, it is nu
of n! / prod(n_i!) over the factor dimensions n_i, and by Legendre
nu(m!) = (m - s(m)) / (ell - 1), s(m) the base-ell digit sum of m, so
nu((ell**i)!) = (ell**i - 1) / (ell - 1).  Generically a_i factors are
P^(ell**i), a_i the digits of n, taking sum a_i (ell**i - 1) / (ell - 1)
= (n - s(n)) / (ell - 1) = nu(n!).  When 2d+1 = ell**r, s(n) = 2, so
nu(n!) = (ell**r - 1) / (ell - 1), and P^1 x (P^(ell**(r-1)))**ell takes
(ell**r - ell) / (ell - 1) of it, leaving 1.

The rows hold `space.ProjProduct`s.  Only the expansions import `chow`,
and with it `_sparse`, where they run, so the table, and the `snumbers`
and `verify-generators` commands built on it, compile neither.
"""

from __future__ import annotations

from ._record import Record
from .space import ProjProduct
from .valuation import ell_powers, ladic_digits, multinomial, nu_factorial, _require_odd_prime

def _check_expansion_work(X: ProjProduct) -> None:
    """Refuse an expansion in the subring of X invariant under permuting
    equal factors whose work, invariant rank x factor count, is above
    `chow.MAX_WORK`.  alpha**N visits every orbit once; from each one a push
    step reads the key's factor_count fields at most and makes at most one
    move per field."""
    from . import chow

    rank, m = chow.invariant_rank(X), X.factor_count
    chow.check_work(rank * m, "expansion in {} (invariant rank {} x {} factors)", X, rank, m)


class StongDatum(Record):
    """One row of the valuation table; expected is 1 when 2d+1 is a power
    of the prime, else 0."""

    _fields = ("d", "factors", "s_number", "valuation", "expected")
    __slots__ = ()

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
    """Same number by expansion of alpha**N, N push steps, in the subring of
    the truncated ring invariant under permuting equal factors."""
    from . import chow

    _check_construction(X)
    _check_expansion_work(X)
    ring = chow.InvariantSubring(X)
    return -2 * ring.deg(ring.push({ring.unit: 1}, dict.fromkeys(X.dims, 1), 1, X.total_dimension))


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
    """n_Y, the twist-factor count 1 + sum over factors P^(2n_i+1) of (n_i + 1)."""
    _check_construction(X)
    return 1 + sum((n + 1) // 2 for n in X.dims)


def signed_char_number(X: ProjProduct) -> int:
    """Characteristic number of the associated symplectic class, with its
    sign: (-1)**n_Y times the degree of a^2 * c_(2d)(xi + xi - T_X), in the
    subring of the truncated ring invariant under permuting equal factors.
    Newton classes add, so this is (-1)**(n_Y + 1) (s_number(X) + t), t the
    sum of (n_i + 1) deg(a_i**(2d) a^2).  Odd factor dimensions in even
    number make t nonzero only on P^(2d+1) x P^1, where t = -s_number(X)
    and the number is 0.  Only the valuation is consumed downstream."""
    from . import chow

    two_d = _check_construction(X)
    if two_d == 0:
        # degenerate d = 0: the Newton class of degree 0 is not defined
        raise ValueError("signed characteristic number needs d >= 1")
    _check_expansion_work(X)
    ring = chow.InvariantSubring(X)
    # -T_Y restricted from X: the normal bundle xi + xi minus the tangent bundle
    normal = chow.VirtualBundle(X, (chow.LineTerm(1, (1,) * X.factor_count),) * 2)
    newton = ring.newton_class(normal + (-chow.tangent_bundle(X)), two_d)
    return (-1) ** sign_exponent(X) * ring.deg(ring.push(newton, dict.fromkeys(X.dims, 1), 1, 2))


def valuation_table(ell: int, d_max: int) -> list[StongDatum]:
    """The rows of valuation_rows(ell, d_max), as a list."""
    return list(valuation_rows(ell, d_max))


def valuation_rows(ell: int, d_max: int):
    """Yield rows d = 1..d_max, each made when it is asked for, with the
    closed-form number, its valuation by the Legendre path, and the
    expected dichotomy flag; the arguments are checked at the first row.

    The generic number is -2 M(n), n = 2d + 2 with base-ell digits a_i and
    M(n) = n! / prod((ell**i)!)**a_i, so each row is made from the one
    before: M(n) = M(n - 2) (n - 1) n, divided exactly, for each carry out
    of digit i, by G_i = (ell**(i+1))! / ((ell**i)!)**ell, the multinomial
    of the ell factors P^(ell**i) that the carry merges into one of the
    next digit.  Every factor is a P^(ell**i), so a row's valuation is
    nu(n!) less nu((ell**i)!) per factor.  Both are running sums: a step
    adds to nu(n!) the number of digits it carries (Legendre), and a carry
    out of digit i adds nu((ell**(i+1))!) - ell nu((ell**i)!) to the
    factors' part.

    A step that does not carry out of digit 0 prepends two P^1 to the last
    row's factors and keeps its valuation: one big-integer product, the
    factor tuple and the row's space and record, each made by one call of
    its class's `_trusted`, without the checks.  A step that carries divides
    by the carried G_i, a new top digit bringing its G_i and nu change, and
    rebuilds the factor dimensions of the digits it changed from 1 up (kept
    per digit).  It makes a new top digit r exactly when n - 2 = ell**r - 1:
    that row is the exceptional one, 2d + 1 = ell**r, whose number is
    -2 n G_(r-1): the multinomial n! / (1! ((ell**(r-1))!)**ell) of its
    own factors is n times the G_(r-1) of the new digit."""
    if d_max < 1:
        raise ValueError("d_max must be positive")
    _require_odd_prime(ell)
    make_space, make_row = ProjProduct._trusted, StongDatum._trusted
    digits, powers = [2], [1]  # n = 2 in base ell, least significant first, and the ell**i
    carry = [(1, 0)]  # by carries c: prod(G_i) and the change of the factors' nu, over i < c
    tails: list[tuple[int, ...]] = [(), ()]  # factor dimensions of the digits i and up
    dims, generic = (1, 1), -4  # at n = 2: two P^1, -2 M(2) = -2 * 2! / (1!)**2
    nu_n, nu_sum, valuation = 0, 0, 0  # nu(n!), the factors' nu((ell**i)!)
    for d in range(1, d_max + 1):
        n = 2 * d + 2
        rise = (n - 1) * n
        digits[0] += 2
        if digits[0] < ell:
            generic *= rise
            dims = (1, 1) + dims
            yield make_row(d, make_space(dims), generic, valuation, 0)
            continue
        carries, below = 0, 0
        while digits[carries] >= ell:  # a digit below ell plus at most 2 carries at most 1
            digits[carries] -= ell
            carries += 1
            if carries == len(digits):  # a new top digit r: n - 2 = ell**r - 1
                below = powers[-1]  # ell**(r-1)
                merged, nu_merged = carry[-1]
                nu_merged += nu_factorial(below * ell, ell) - ell * nu_factorial(below, ell)
                merge = multinomial(below * ell, (below,) * ell)  # G_(r-1)
                carry.append((merged * merge, nu_merged))
                digits.append(0)
                powers.append(below * ell)
                tails.append(())
            digits[carries] += 1
        divisor, nu_step = carry[carries]
        # at ell = 3 a carry out of digit 0 alone divides (n - 1) n by 3! exactly
        step, rest = divmod(rise, divisor)
        generic = generic * step if not rest else generic * rise // divisor
        for i in range(carries, 0, -1):
            tails[i] = (powers[i],) * digits[i] + tails[i + 1]
        # nu(|number|) = nu(multinomial): the factor 2 is prime to ell
        nu_n, nu_sum = nu_n + carries, nu_sum + nu_step
        valuation = nu_n - nu_sum
        dims = (1,) * digits[0] + tails[1]
        if below:  # the exceptional row's own factors, P^1 x (P^(ell**(r-1)))**ell
            own = (1,) + (below,) * ell
            nu_own = nu_n - ell * nu_factorial(below, ell)
            yield make_row(d, make_space(own), -2 * n * merge, nu_own, 1)
        else:
            yield make_row(d, make_space(dims), generic, valuation, 0)
