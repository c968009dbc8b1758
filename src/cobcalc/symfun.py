"""Symmetric functions in the monomial, elementary, and power-sum bases,
the dictionary between even partitions and polynomials in the generators
b1, b2, ..., the diagonal splitting of an even partition, and the dual
algebra of classes indexed by even non-l-adic partitions.

Representations are sparse dicts keyed by Partition (BPoly: by generator
monomial), with their sums, scalings and products computed in `_sparse`.
Coefficients are exact.

`expand_in_vars` computes on the packed exponent keys of `_sparse`, so
multiplying two terms is one integer addition, and unpacks only its
answer.  It shares no code with the conversions it checks.

Basis conversions work on positions in each weight's lex-descending list
of partitions.  A row of a transition table (e_lam or p_lam in the m
basis) is the row of lam without one part r, pushed through the steps
m_mu * e_r or m_mu * p_r, so rows share their prefixes.  An e-row drops
lam's smallest part, as e_r steps grow with r; a p-row drops its largest,
as a p_r step has one term per distinct part of mu, and one more,
whatever r is, so the shortest prefix row does the pushing.  The steps of
each basis, weight and r are one table by position, each step added when
first read as one tuple of (position, coefficient) pairs.  A p_r step
splices v + r into mu for each distinct part v of mu and for v = 0; an
e_r step raises j of mu's largest parts and takes the rest from the
e_(r-j) step of mu without them, so e-steps share their tails through
the tables; e_1 steps are p_1 steps.  A conversion expands its input in
the m basis as one integer list per weight, then eliminates in one pass
over the positions: lex-largest first towards e, as e_lam' is m_lam plus
lex-smaller terms, and lex-smallest first towards p, as p_lam is a
multiple of m_lam plus lex-larger terms.  Over Z everything stays on
integers: Fractions appear only in a final power-sum answer (an integer
over z_lam) or from the input.  With a modulus set, coefficients live in
[0, ell), the elimination reduces each one when it reads it, and divisions
use modular inverses.  Every target, m too, emits only nonzero
coefficients; `_reduce` (run by constructors, ring operations and
conversions) makes a Fraction pass only when one is present.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product

from . import _sparse
from ._record import Record
from .partitions import Partition, enumerate_partitions
from .valuation import _require_odd_prime

BASES = ("monomial", "elementary", "power-sum")

# conversions beyond this weight are rejected; partition counts make the
# transition computations grow quickly
DEFAULT_WEIGHT_CAP = 40


def _reduce(coeffs: dict, modulus: int | None) -> dict:
    """Drop zero coefficients.  With a modulus, reduce into [0, modulus),
    a Fraction through the inverse of its denominator; without one, turn
    integral Fractions into ints.  That pass runs only when a Fraction is
    present, found by exact type, much cheaper than isinstance against
    Fraction's abstract base class."""
    if Fraction in map(type, coeffs.values()):
        if modulus is None:
            coeffs = {k: c.numerator if c.denominator == 1 else c for k, c in coeffs.items()}
        else:
            coeffs = {k: c.numerator * pow(c.denominator, -1, modulus) for k, c in coeffs.items()}
    return _sparse.clean(coeffs, modulus)


class SymFn(Record):
    """Symmetric function with finite support in a named basis."""

    __slots__ = ("coeffs", "basis", "modulus")

    def __init__(self, coeffs: dict, basis: str = "monomial", modulus: int | None = None) -> None:
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if modulus is not None:
            _require_odd_prime(modulus)
        clean = _reduce({Partition(k): c for k, c in coeffs.items()}, modulus)
        self._set(clean, basis, modulus)

    @property
    def weight(self) -> int:
        """Largest weight in the support (0 for the zero function)."""
        return max((p.weight for p in self.coeffs), default=0)

    def __add__(self, other: "SymFn") -> "SymFn":
        if self.basis != other.basis or self.modulus != other.modulus:
            raise ValueError("basis/modulus mismatch")
        return _symfn(_sparse.add(self.coeffs, other.coeffs), self.basis, self.modulus)

    def scale(self, a) -> "SymFn":
        return _symfn(_sparse.scale(self.coeffs, a), self.basis, self.modulus)

    @staticmethod
    def basis_element(parts, basis: str = "monomial", modulus: int | None = None) -> "SymFn":
        return SymFn({Partition(parts): 1}, basis, modulus)


def _symfn(coeffs: dict, basis: str, modulus: int | None) -> SymFn:
    """SymFn around Partition keys that a ring operation or a conversion
    built, skipping the public constructor's checks."""
    return SymFn._trusted(coeffs=_reduce(coeffs, modulus), basis=basis, modulus=modulus)


# ---------------------------------------------------------------------------
# expansion oracle: evaluate basis elements on concrete variables t1..tk
# ---------------------------------------------------------------------------


def _mono_in_vars(parts: tuple[int, ...], shifts: range) -> dict:
    """m_parts in the variables t1..tk, k = len(shifts), on packed keys:
    each distinct part v, of multiplicity n, goes to n of the fields that
    the earlier parts left free, so every exponent vector arises once."""
    placed = [(0, shifts)]  # (packed key, shifts of the free fields)
    for v, n in Counter(parts).items():
        placed = [
            (key + sum([v << s for s in chosen]), [s for s in free if s not in chosen])
            for key, free in placed
            for chosen in combinations(free, n)
        ]
    return dict.fromkeys([key for key, _ in placed], 1)


def _vars_mul_into(out: dict, a: dict, b: dict) -> None:
    """Add a * b to out."""
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            out[key] = get(key, 0) + ca * cb


def _expand_packed(f: SymFn, shifts: range) -> dict:
    """f in the variables t1..tk, k = len(shifts), on packed keys whose
    fields must hold every exponent (at most f.weight).  A basis element
    is a product of monomial symmetric functions: m_lam itself, e_lam of
    the m_(1^s), p_lam of the m_(s).  The terms are grouped by their last
    factor, and the sum of each group's heads, expanded the same way, is
    multiplied by that factor once; each distinct factor is expanded once.
    The sums run on integers, f's coefficients times their common
    denominator, which is divided out at the end."""
    denominator = math.lcm(*(c.denominator for c in f.coeffs.values()))
    terms: dict = {}
    for lam, c in f.coeffs.items():
        if f.basis == "monomial":
            factors = (tuple(lam),)
        elif f.basis == "elementary":
            factors = tuple((1,) * s for s in lam)
        else:  # power-sum
            factors = tuple((s,) for s in lam)
        terms[factors] = int(c * denominator)
    expanded: dict = {}

    def expand(terms: dict) -> dict:
        out: dict = {}
        groups: dict = {}
        for factors, c in terms.items():
            if factors:
                groups.setdefault(factors[-1], {})[factors[:-1]] = c
            else:
                out[0] = c
        for parts, heads in groups.items():
            if parts not in expanded:
                expanded[parts] = _mono_in_vars(parts, shifts)
            _vars_mul_into(out, expand(heads), expanded[parts])
        return out

    out = expand(terms)
    if denominator > 1:
        out = {key: Fraction(v, denominator) for key, v in out.items()}
    return _sparse.clean(out, f.modulus)


def expand_in_vars(f: SymFn, k: int) -> dict:
    """Expand f as a concrete polynomial in variables t1..tk.

    Returns a sparse dict, exponent vector -> coefficient.  Partitions with
    more parts than k contribute zero.  This is the definitional oracle the
    basis conversions are tested against; it does not share code with them.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    shifts, mask, _ = _sparse.layout(k, f.weight)
    return _sparse.unpack(_expand_packed(f, shifts), shifts, mask)


# ---------------------------------------------------------------------------
# basis conversions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _index(w: int) -> tuple:
    """The partitions of w in lex-descending order, the map from each to
    its position there, and a list of the positions of their conjugates,
    which `_m_to_e` fills as it pivots.  Tables work on positions."""
    parts = enumerate_partitions(w)
    return parts, {lam: i for i, lam in enumerate(parts)}, [None] * len(parts)


def _conjugate(lam: tuple) -> tuple:
    """Entry j: the number of parts of lam larger than j."""
    out: list = []
    for k in range(len(lam), 0, -1):
        # parts 1..k of lam are at least lam[k - 1]
        out.extend([k] * (lam[k - 1] - len(out)))
    return tuple(out)


def _top(w: int, b: int) -> tuple:
    """The lex-largest partition of w with parts at most b >= 1."""
    return (b,) * (w // b) + ((w % b,) if w % b else ())


def _mul_e_m(s: int, mu: tuple, w: int) -> list:
    """m_mu * e_s in the m basis, s >= 1, mu of weight w, as (position at
    weight w + s, coefficient) pairs: add 1 to s distinct slots of mu
    padded with zeros.  Say mu has n parts equal to its largest, v, and the
    rest below.  A term raises j <= n of the v's and s - j slots of the
    rest, a term of m_rest * e_(s-j) read from its step table; its
    coefficient is that term's times C(n - j + c, c), as the c parts of
    that term equal to v (raised from v - 1) join the n - j v's left.

    The term is the block of v + 1's and v's followed by the rest's term,
    whose parts are at most the block's last, b.  In the lex-descending
    list the partitions that start with the block form one run, ordered by
    their tails, and the partitions of the tails' weight with parts at most
    b form the run that ends their list; so each term's position is its
    tail's plus one offset per j, and no term is built as a tuple."""
    if not mu:
        return [(len(_index(s)[0]) - 1, 1)]  # m_(1^s), the lex-smallest
    v = mu[0]
    n = mu.count(v)
    rest = mu[n:]
    rest_w = w - n * v
    i = _index(rest_w)[1][rest]
    position = _index(w + s)[1]
    adjacent = (rest[0] if rest else 0) == v - 1
    out: list = []
    for j in range(min(n, s) + 1):
        block = (v + 1,) * j + (v,) * (n - j)
        t = rest_w + s - j  # the weight of the tails
        top = _top(t, block[-1])
        offset = position[block + top] - _index(t)[1][top]
        tails = _step("elementary", rest_w, i, s - j) if j < s else ((i, 1),)
        if adjacent:
            parts = _index(t)[0]
            for k, c in tails:
                joined = parts[k].count(v)
                out.append((k + offset, c * math.comb(n - j + joined, joined) if joined else c))
        else:
            out += [(k + offset, c) for k, c in tails]
    return out


def _mul_p_m(r: int, mu: tuple, w: int) -> list:
    """m_mu * p_r in the m basis, mu of weight w, as (position at weight
    w + r, coefficient) pairs: add r to one slot, a part v of mu or a new
    one (v = 0).  The new part v + r is spliced into the descending tuple
    after its equals, and its multiplicity there, that in mu plus one, is
    the coefficient."""
    position = _index(w + r)[1]
    out = []
    n = len(mu)
    above = 0  # the parts of mu larger than v + r
    i = 0  # the first part equal to v
    while True:
        v = mu[i] if i < n else 0
        end = i  # one past the parts equal to v
        while end < n and mu[end] == v:
            end += 1
        new = v + r
        while above < n and mu[above] > new:
            above += 1
        at = above
        while at < n and mu[at] == new:
            at += 1
        if v:
            out.append((position[mu[:at] + (new,) + mu[at : end - 1] + mu[end:]], at - above + 1))
        else:
            out.append((position[mu[:at] + (new,) + mu[at:]], at - above + 1))
            return out
        i = end


# one object per distinct (position, coefficient) pair of the step tables
_intern = {}.setdefault


@lru_cache(maxsize=None)
def _steps(basis: str, w: int, r: int) -> dict:
    """Steps m_mu * e_r ("elementary") or m_mu * p_r ("power-sum") by the
    position of mu in weight w, each added when first read; e_1 = p_1."""
    if basis == "elementary" and r == 1:
        return _steps("power-sum", w, 1)
    return {}


def _step(basis: str, w: int, i: int, r: int) -> tuple:
    """Entry i of a step table, filled when first read: m_mu * e_r or
    m_mu * p_r, mu at position i of weight w, as one tuple of (position at
    weight w + r, coefficient) pairs (`_mul_e_m`, `_mul_p_m`).  Equal
    pairs are shared, which keeps the tables as small as two parallel
    tuples of positions and coefficients would be."""
    table = _steps(basis, w, r)
    if i not in table:
        mul = _mul_e_m if basis == "elementary" and r > 1 else _mul_p_m
        table[i] = tuple([_intern(kv, kv) for kv in mul(r, _index(w)[0][i], w)])
    return table[i]


@lru_cache(maxsize=None)
def _row(basis: str, w: int, i: int) -> tuple:
    """The basis element e_lam or p_lam, lam at position i of weight w, in
    the m basis, kept as its nonzero positions, ascending, and their
    coefficients.  It is the row of lam without one part r, pushed through
    the step table of r (fetched once) into a list over weight w's
    positions.  An e-row drops lam's smallest part, as e_r steps grow with
    r; a p-row drops its largest, as a p_r step has one term per distinct
    part of mu and one more whatever r is, and the row it pushes is then
    the shortest."""
    parts = _index(w)[0]
    lam = parts[i]
    if not lam:
        return array("I", (0,)), (1,)
    if basis == "elementary":
        r, rest = lam[-1], lam[:-1]
    else:
        r, rest = lam[0], lam[1:]
    table = _steps(basis, w - r, r)
    row = [0] * len(parts)
    for j, c in zip(*_row(basis, w - r, _index(w - r)[1][rest])):
        for k, v in table.get(j) or _step(basis, w - r, j, r):
            row[k] += c * v
    return array("I", compress(range(len(row)), row)), tuple(compress(row, row))


def _dense_m(coeffs: dict, basis: str, denominator: int) -> dict:
    """denominator * coeffs in the m basis, one list of integer
    coefficients over the positions of each weight."""
    dense: dict = {}
    for lam, c in coeffs.items():
        w = lam.weight
        parts, position, _ = _index(w)
        acc = dense.setdefault(w, [0] * len(parts))
        c = int(c * denominator)
        if basis == "monomial":
            acc[position[lam]] += c
            continue
        for j, v in zip(*_row(basis, w, position[lam])):
            acc[j] += c * v
    return dense


def _m_to_e(dense: list, w: int, modulus: int | None) -> dict:
    """Subtract leading terms: e_{lam'} has lex-leading monomial m_lam with
    coefficient 1, and every other term lex-smaller, so one pass over the
    positions in order meets each pivot after every term it receives.
    With a modulus, a coefficient is reduced when it is read, so a pivot
    that cancels mod the modulus never needs its table."""
    parts, position, conjugate = _index(w)
    out: dict = {}
    for i in range(len(dense)):
        c = dense[i] if modulus is None else dense[i] % modulus
        if not c:
            continue
        pivot = conjugate[i]
        if pivot is None:
            pivot = conjugate[i] = position[_conjugate(parts[i])]
        out[parts[pivot]] = c
        # this also clears position i, which the pass has already read
        for j, v in zip(*_row("elementary", w, pivot)):
            dense[j] -= c * v
    return out


def _m_to_p(dense: list, w: int, modulus: int | None) -> dict:
    """Subtract leading terms from below: p_lam expands as
    (prod of multiplicity factorials) * m_lam plus lex-larger terms only,
    so one pass over the positions in reverse order finds the pivots.

    Over Z, an integral input's coefficient of p_lam is an integer over
    z_lam, the norm of p_lam in the Hall inner product (Macdonald I §4),
    and z_lam divides w!.  So the input is scaled by w!, every division by
    a lead factorial is exact integer division, and Fractions appear only
    in the answer.  With a modulus, the divisions are modular inverses, a
    coefficient is reduced when it is read, and a factorial divisible by
    the modulus l is an error only under a nonzero coefficient.  At weight
    >= l the p_lam are not a basis mod l (p_2^3 = p_6 mod 3), so the answer
    is one representative, not always the reduction of the integral one:
    m_(2,2,1,1) mod 3 gives 2 p_6, the integral answer reduced 2 p_(2,2,2)
    and no p_6, and both convert back to m_(2,2,1,1)."""
    parts = _index(w)[0]
    if modulus is None:
        dense = [c * math.factorial(w) for c in dense]
    out: dict = {}
    for i in range(len(dense) - 1, -1, -1):
        c = dense[i] if modulus is None else dense[i] % modulus
        if not c:
            continue
        lam = parts[i]
        positions, coeffs = _row("power-sum", w, i)
        # p_lam's own term, the last of its row, as the others are lex-larger
        lead = coeffs[-1]
        if modulus is None:
            coeff, remainder = divmod(c, lead)
            if remainder:
                raise ArithmeticError(f"m_{tuple(lam)} is not {lead} times an integer")
        elif lead % modulus:
            coeff = c * pow(lead, -1, modulus) % modulus
        else:
            raise ValueError(
                f"power-sum conversion of m_{tuple(lam)} needs division by {lead}, "
                f"not invertible mod {modulus}"
            )
        out[lam] = coeff
        for j, v in zip(positions, coeffs):
            dense[j] -= coeff * v
    if modulus is None:
        return {lam: Fraction(c, math.factorial(w)) for lam, c in out.items()}
    return out


def convert(f: SymFn, target: str) -> SymFn:
    """Re-express f in the target basis.  Round trips are exact.  Mod l, a
    power-sum answer at weight >= l is one representative of f, not always
    the reduction of the integral answer (see _m_to_p)."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == f.basis:
        return f
    if f.weight > DEFAULT_WEIGHT_CAP:
        raise ValueError(f"weight {f.weight} exceeds cap {DEFAULT_WEIGHT_CAP}")
    # the m-basis sums run over Z on f's coefficients times their common
    # denominator, so Fractions appear only in the answer
    denominator = math.lcm(*(c.denominator for c in f.coeffs.values()))
    out: dict = {}
    for w, dense in sorted(_dense_m(f.coeffs, f.basis, denominator).items()):
        if target == "monomial":
            dense = dense[::-1]
            out.update(zip(compress(reversed(_index(w)[0]), dense), filter(None, dense)))
        elif target == "elementary":
            out.update(_m_to_e(dense, w, f.modulus))
        else:
            out.update(_m_to_p(dense, w, f.modulus))
    if denominator > 1:
        out = {lam: Fraction(c, denominator) for lam, c in out.items()}
    return _symfn(out, target, f.modulus)


# ---------------------------------------------------------------------------
# polynomials in the generators b1, b2, ...
# ---------------------------------------------------------------------------

# a monomial is a sorted tuple of (generator index, exponent) pairs
BMono = tuple


def bmono_weight(mono: BMono) -> int:
    return sum(2 * i * k for i, k in mono)


def _bmono(mono) -> BMono:
    """Canonical form of a monomial: sorted, without zero exponents."""
    mono = tuple(sorted((i, k) for i, k in mono if k))
    if any(i < 1 or k < 0 for i, k in mono):
        raise ValueError(f"bad monomial {mono}")
    return mono


def _bmono_mul(ma: BMono, mb: BMono) -> BMono:
    exps = dict(ma)
    for i, k in mb:
        exps[i] = exps.get(i, 0) + k
    return tuple(sorted(exps.items()))


class BPoly(Record):
    """Sparse polynomial in generators b1, b2, ... with b_i of weight 2i.

    coeffs maps a monomial ((i1, k1), (i2, k2), ...) with i1 < i2 < ... to a
    nonzero coefficient.  modulus None means exact integers.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: dict | None = None, modulus: int | None = None) -> None:
        if modulus is not None:
            _require_odd_prime(modulus)
        terms = ((_bmono(mono), c) for mono, c in _reduce(coeffs or {}, modulus).items())
        self._set(_reduce(_sparse.collect(terms), modulus), modulus)

    @staticmethod
    def zero(modulus: int | None = None) -> "BPoly":
        return BPoly({}, modulus)

    @staticmethod
    def one(modulus: int | None = None) -> "BPoly":
        return BPoly({(): 1}, modulus)

    @staticmethod
    def generator(i: int, modulus: int | None = None) -> "BPoly":
        return BPoly({((i, 1),): 1}, modulus)

    @property
    def weight(self) -> int:
        return max((bmono_weight(m) for m in self.coeffs), default=0)

    def is_homogeneous(self) -> bool:
        weights = {bmono_weight(m) for m in self.coeffs}
        return len(weights) <= 1

    def __add__(self, other: "BPoly") -> "BPoly":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return self._result(_sparse.add(self.coeffs, other.coeffs))

    def __mul__(self, other: "BPoly") -> "BPoly":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return self._result(_sparse.mul(self.coeffs, other.coeffs, _bmono_mul))

    def scale(self, a) -> "BPoly":
        return self._result(_sparse.scale(self.coeffs, a))

    def _result(self, coeffs: dict) -> "BPoly":
        return BPoly._trusted(coeffs=_reduce(coeffs, self.modulus), modulus=self.modulus)

    def reduce_mod(self, ell: int) -> "BPoly":
        if self.modulus not in (None, ell):
            raise ValueError("modulus mismatch")
        return BPoly(dict(self.coeffs), ell)


def _epartition_to_bmono(ep: Partition) -> BMono:
    """Each distinct part of ep with the length of its run, ascending."""
    mono, end = [], len(ep)
    while end:
        start = ep.index(ep[end - 1])
        mono.append((ep[end - 1], end - start))
        end = start
    return tuple(mono)


def symfn_to_bpoly(f: SymFn) -> BPoly:
    """Express f in the elementary basis and rename e_i -> b_i.  Distinct
    partitions rename to distinct canonical monomials, and the conversion
    has already reduced the coefficients, so BPoly's checks are skipped."""
    ef = convert(f, "elementary")
    coeffs = {_epartition_to_bmono(p): c for p, c in ef.coeffs.items()}
    return BPoly._trusted(coeffs=coeffs, modulus=f.modulus)


def bpoly_to_symfn(b: BPoly) -> SymFn:
    """Inverse renaming: b_i -> e_i, giving an elementary-basis function."""
    coeffs = {}
    for mono, c in b.coeffs.items():
        parts = [i for i, k in mono for _ in range(k)]
        coeffs[Partition(parts)] = c
    return SymFn(coeffs, "elementary", b.modulus)


def u_to_b(omega, modulus: int | None = None) -> BPoly:
    """The b-polynomial attached to an even partition: the monomial
    symmetric function of the halved partition, written in the elementary
    basis, with e_s renamed b_s.

    Under b_s -> e_s(t1**2, ..., tk**2) this recovers the monomial
    symmetric function of the halved partition in the squared variables.
    """
    omega = Partition(omega)
    if not omega.is_even():
        raise ValueError(f"{tuple(omega)} is not an even partition")
    if modulus is not None:
        _require_odd_prime(modulus)
    half = tuple.__new__(Partition, [p // 2 for p in omega])  # still descending
    return symfn_to_bpoly(SymFn._trusted({half: 1}, "monomial", modulus))


# ---------------------------------------------------------------------------
# diagonal and the dual algebra
# ---------------------------------------------------------------------------


def diagonal(omega) -> list[tuple[Partition, Partition]]:
    """All ordered pairs (w1, w2) of partitions with concatenation omega,
    each distinct ordered pair exactly once.  Pairs with w1 = w2 appear
    once; unordered splits with w1 != w2 contribute both orders."""
    omega = Partition(omega)
    if not omega.is_even():
        raise ValueError(f"{tuple(omega)} is not an even partition")
    counts = sorted(Counter(omega).items())
    pairs = []
    # take[j] of the parts equal to counts[j][0] go left, the rest right
    for take in product(*(range(n + 1) for _, n in counts)):
        left = Partition([v for (v, _), t in zip(counts, take) for _ in range(t)])
        right = Partition([v for (v, n), t in zip(counts, take) for _ in range(n - t)])
        pairs.append((left, right))
    pairs.sort()
    return pairs


class ZClass(Record):
    """Formal mod-ell sum of even non-l-adic partitions.

    Multiplication concatenates indexing partitions; the pairing against an
    even partition is the Kronecker pairing on the basis.
    """

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime: int, coeffs: dict | None = None) -> None:
        _require_odd_prime(prime)
        coeffs = {Partition(p): c for p, c in (coeffs or {}).items()}
        for p in coeffs:
            if not p.is_even():
                raise ValueError(f"{tuple(p)} is not even")
            if p.is_ladic(prime):
                raise ValueError(f"{tuple(p)} is {prime}-adic")
        self._set(prime, _sparse.clean(coeffs, prime))

    @staticmethod
    def basis_element(omega, ell: int) -> "ZClass":
        return ZClass(ell, {Partition(omega): 1})

    def __add__(self, other: "ZClass") -> "ZClass":
        if self.prime != other.prime:
            raise ValueError("prime mismatch")
        return ZClass(self.prime, _sparse.add(self.coeffs, other.coeffs))


def z_mul(z1: ZClass, z2: ZClass) -> ZClass:
    """Bilinear extension of concatenation on basis elements."""
    if z1.prime != z2.prime:
        raise ValueError("prime mismatch")
    return ZClass(z1.prime, _sparse.mul(z1.coeffs, z2.coeffs, Partition.concat, z1.prime))


def pair(z: ZClass, omega) -> int:
    """Kronecker pairing of z against the basis class of omega, mod ell."""
    return z.coeffs.get(Partition(omega), 0)


def pair_through_diagonal(z1: ZClass, z2: ZClass, omega) -> int:
    """Pairing of z1*z2 against omega evaluated via the diagonal: apply
    z1 (x) z2 to every ordered splitting of omega and sum.  Used as the
    independent route for the duality checks."""
    if z1.prime != z2.prime:
        raise ValueError("prime mismatch")
    total = 0
    for left, right in diagonal(omega):
        total += z1.coeffs.get(left, 0) * z2.coeffs.get(right, 0)
    return total % z1.prime
