"""Complex-side (MGL) mod-ell reduced power operations on Z/ell[b1,b2,...].

A class in weight 2j is the j-th elementary symmetric polynomial in roots
of weight 2.  On a root x the total operation is x + x**ell: only the
identity component and the index-2 component act, every higher component
vanishes, and negative-index operations are zero.  Everything else follows
by multiplicativity of the total operation.

Two actions are exposed:

* `power_op_untwisted` acts on the polynomial ring itself (the classifying
  space side).  It satisfies the Cartan product formula and the bound that
  a class of weight 2j supports no operation of index above 2j, since each
  root factor absorbs index at most 2.

* `power_op` acts on the ring viewed through the rank twist (the Thom
  spectrum side): multiply by the top elementary polynomial e_r of r >> 0
  roots, act, divide by e_r, re-express.  The twist contributes the factor
  prod(1 + x**(ell-1)) over the roots, so the twisted action of index 2t
  on f is sum over a+b=t of (untwisted index 2a on f) * e_b(roots**(ell-1)).
  The twisted action does not satisfy the literal Cartan formula (already
  the unit has nonzero image), and supports operations of every even index.

The fast path behind both assembles the answer from closed forms by
multiplicativity, on packed keys.  The index-2a piece of the total
operation on b_j is m_(ell^a 1^(j-a)), and the index-2b piece of the twist
is m_((ell-1)^b).  The twist pieces come from the product of E(cu)E(-cu)
over c, E(u) = sum b_k u**k; m_(1^j) is b_j and m_(ell^j) is b_j**ell mod
ell; only the mixed pieces, 0 < a < j, are converted to the generators.
Each piece is built once and held as a dict, packed key -> coefficient,
with the exponent of b_g in field g - 1.  The fields are sized from the
answer: its terms have half-weight at most top = weight(f)/2 + t(ell-1),
so fields a bit wider than top (and at least 8 bits, so that most calls
share one format) hold every exponent, and multiplying two b-monomials is
one integer addition.  One cache holds the total operation on each
b-monomial, cut at index 2t, by (monomial, t, ell) and the field width,
built by three rules: on b_j it is b_j's pieces; on b_j**k, that on
b_j**(k-1) times those pieces; on several factors, that on the prefix, the
monomial less its last factor, times that on the last factor, so monomials
that share a prefix share its product.  A single monomial is read from the
cache, its coefficient scaled into a copy.  The monomials of a sum are
grouped by their last factor, so the operation on the sum of each group's
heads meets that factor once (a group of one head reads the cache), and
the graded products of all monomials are summed by index before the twist,
which multiplies once per index, not once per monomial; the last product
forms only index 2t.  The sums are reduced mod ell as they are assembled,
and the answer is decoded in one pass, each key field by field into the
(g, e) pairs of its nonzero fields, as its coefficient is reduced; the
decoded keys are cached, as the answers of different operations share
their monomials.  A zero input, and an untwisted index above weight(f),
return zero before anything is sized or priced, so the work never grows
with such an index.

`power_op_oracle` recomputes the twisted action for differential testing
in an explicit number r of roots, sharing none of the fast path.  A
symmetric root polynomial is fixed by its coefficients on the monomial
orbit sums (Macdonald I §2), so it is held as a dict keyed by one sorted
representative per orbit, a descending r-tuple, and no orbit is formed:
its cost is the number of partitions, not of root monomials.  One routine,
`_orbit_raise`, spreads raises over a representative's groups of equal
slots and counts the arrangements of each split.  It writes f in these
coordinates, each factor b_j = e_j raising j slots once, multiplies by e_r
(1 added to every slot), takes the index-2t piece over Z (slots raised by
steps of ell - 1 at binomial factors), divides by e_r, and converts back
through `symfn_to_bpoly`.  Each raise is checked at x = (1, ..., 1): a
term of degree d gives C(r, j) in all under e_j, and C(d, t) under the
piece (Vandermonde); a failure raises ArithmeticError.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

from ._sparse import clean
from .symfun import DEFAULT_WEIGHT_CAP, BPoly, SymFn, symfn_to_bpoly
from .valuation import _require_odd_prime, multinomial

WEIGHT_CAP = 60


# ---------------------------------------------------------------------------
# fast path: closed forms for the graded pieces, assembled on packed keys
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _packed_piece(parts: tuple[int, ...], ell: int, width: int) -> dict:
    """The monomial symmetric function m_parts in the generators mod ell,
    on packed keys: the exponent of b_g in the field at bit (g - 1) * width.
    The index-2a piece of the total untwisted operation on b_j is
    m_(ell^a 1^(j-a)), zero for a > j; the index-2b piece of the twist,
    e_b of the (ell-1)-st powers of the roots, is m_((ell-1)^b).  Only the
    pieces with 0 < a < j are converted to the elementary basis: m_(1^j)
    is b_j, m_(ell^j) = e_j(roots**ell) is b_j**ell mod ell (Frobenius),
    and the twist pieces have a closed form."""
    j = len(parts)
    if parts == (ell - 1,) * j:
        return _twist_piece(j, ell, width)
    if parts in ((1,) * j, (ell,) * j):
        return {parts[0] << (j - 1) * width: 1}
    piece = symfn_to_bpoly(SymFn({parts: 1}, "monomial", ell))
    return {sum([k << (g - 1) * width for g, k in mono]): c for mono, c in piece.coeffs.items()}


def _twist_piece(b: int, ell: int, width: int) -> dict:
    """m_((ell-1)^b) mod ell on packed keys: with E(u) = sum_k b_k u**k,
    the product of E(cu) over c = 1 .. ell-1 is that of 1 - (xu)**(ell-1)
    over the roots x, mod ell, so (-1)**b m_((ell-1)^b) is its coefficient
    of u**(b(ell-1)) (Macdonald I §2).  E(cu)E(-cu) = F(c**2 u**2), F_n =
    sum over i + i' = 2n of (-1)**i b_i b_i', so c runs to (ell-1)/2, and
    the product only to the degree read.  The keys are sorted as the
    conversion gives them, which the answer's order follows: conjugate
    e-partitions lex-descending, more factors first, then fewer b_1, ..."""
    top = b * (ell - 1) // 2
    gen = [0] + [1 << g * width for g in range(2 * top)]
    F = [
        {gen[i] + gen[2 * n - i]: (1 if i == n else 2) * (-1) ** i % ell for i in range(n + 1)}
        for n in range(top + 1)
    ]
    series = F
    for c in range(2, (ell + 1) // 2):
        scaled = [{k: v * pow(c, 2 * n, ell) for k, v in Fn.items()} for n, Fn in enumerate(F)]
        lo = top if 2 * c + 1 == ell else 0  # the last factor forms only the degree read
        series = [clean(p, ell) for p in _add_product([{} for _ in F], series, scaled, lo)]
    piece = {k: r for k, v in series[top].items() if (r := (-1) ** b * v % ell)}
    exps = {k: [k >> s & (1 << width) - 1 for s in range(0, 2 * top * width, width)] for k in piece}
    return {k: piece[k] for k in sorted(piece, key=lambda k: (-sum(exps[k]), exps[k]))}


def _add_product(out: list, A: tuple, B: tuple, lo: int = 0) -> list:
    """Add A * B to out, graded polynomials held as sequences by index 2a,
    and return out.  Only the indices lo .. len(out) - 1 of the product
    are formed.  On packed keys the product of two b-monomials is the sum
    of their keys."""
    t = len(out) - 1
    for a, pa in enumerate(A):
        if pa:
            for b in range(max(lo - a, 0), t + 1 - a):
                if pb := B[b]:
                    into = out[a + b]
                    get = into.get
                    for ka, ca in pa.items():
                        for kb, cb in pb.items():
                            key = ka + kb
                            into[key] = get(key, 0) + ca * cb
    return out


@lru_cache(maxsize=4096)
def _monomial_op(mono: tuple, t: int, ell: int, width: int) -> tuple:
    """The total untwisted operation on the b-monomial mono cut at index
    2t, as t + 1 packed polynomials reduced mod ell, entry a the index-2a
    piece: on b_j the pieces m_(ell^a 1^(j-a)), on b_j**k that on
    b_j**(k-1) times them, on several factors that on mono[:-1] times that
    on the last factor.  The key format is part of the cache key: fields of
    the given width hold every exponent.  The entries are read-only."""
    (j, k), head = mono[-1], mono[:-1]
    if head:
        left, right = _monomial_op(head, t, ell, width), _monomial_op(mono[-1:], t, ell, width)
    else:
        right = tuple(
            _packed_piece((ell,) * a + (1,) * (j - a), ell, width) if a <= j else {}
            for a in range(t + 1)
        )
        if k == 1:
            return right
        left = _monomial_op(((j, k - 1),), t, ell, width)
    return tuple(clean(p, ell) for p in _add_product([{} for _ in right], left, right))


def _assemble(terms: dict, t: int, ell: int, width: int, lo: int) -> tuple:
    """The total untwisted operation on sum(c * mono) over terms, cut at
    index 2t, as packed polynomials by index; only indices lo .. t of a
    sum are formed.  A single monomial is read from `_monomial_op`, its
    coefficient scaled into fresh dicts.  Multiplicativity: the monomials
    of a sum are grouped by their last factor b_j**k, and the operation on
    the sum of each group's heads, recursively assembled, is multiplied by
    the operation on b_j**k once per group."""
    if len(terms) == 1:
        ((mono, c),) = terms.items()
        if mono:
            op = _monomial_op(mono, t, ell, width)
            return op if c == 1 else tuple({key: c * v % ell for key, v in p.items()} for p in op)
    out = [{} for _ in range(t + 1)]
    groups: dict = {}
    for mono, c in terms.items():
        if mono:
            groups.setdefault(mono[-1], {})[mono[:-1]] = c
        elif lo == 0:
            out[0][0] = c
    for last, heads in groups.items():
        graded = _assemble(heads, t, ell, width, 0)
        _add_product(out, graded, _monomial_op((last,), t, ell, width), lo)
    return tuple(clean(p, ell) if p else p for p in out)


@lru_cache(maxsize=1 << 14)
def _decode(key: int, width: int) -> tuple:
    """The b-monomial of a packed key: its nonzero fields, from the low
    end, as (g, e) pairs.  Answers of different operations share their
    monomials, so the decoded keys are cached."""
    mask, mono, g = (1 << width) - 1, [], 1
    while key:
        if key & mask:
            mono.append((g, key & mask))
        key, g = key >> width, g + 1
    return tuple(mono)


def _prepare(f: BPoly, ell: int) -> tuple[BPoly, int]:
    """f reduced mod ell, and its weight; refused when the reduced f weighs
    more than WEIGHT_CAP, as reduction may drop the heaviest terms.  An f
    already reduced mod ell is returned as it is."""
    _require_odd_prime(ell)
    if f.modulus != ell:
        f = f.reduce_mod(ell)
    weight = f.weight
    if weight > WEIGHT_CAP:
        raise ValueError(f"weight {weight} exceeds cap {WEIGHT_CAP}")
    return f, weight


def _power_op(i: int, f: BPoly, ell: int, twisted: bool) -> BPoly:
    f, weight = _prepare(f, ell)
    if not f.coeffs or i == 0:
        return f
    # untwisted above the weight, instability: each root factor absorbs index at most 2
    if i < 0 or i % 2 == 1 or not twisted and i > weight:
        return BPoly.zero(ell)
    # the heaviest piece below, converted or closed-form: b_j's pieces weigh
    # j + a(ell - 1), a <= min(j, t), the a = j one being b_j**ell; the
    # twist's t(ell - 1) stays, as its closed form grows with ell (P2 on 1
    # at ell = 41 weighs 40 and takes seconds)
    t = i // 2
    needed = [j + min(j, t) * (ell - 1) for mono in f.coeffs for j, _ in mono]
    if twisted:
        needed.append(t * (ell - 1))
    heaviest = max(needed, default=0)
    if heaviest > DEFAULT_WEIGHT_CAP:
        raise ValueError(
            f"P{i} at prime {ell} needs a conversion of weight {heaviest}, "
            f"above the cap {DEFAULT_WEIGHT_CAP}"
        )
    # fields of at least 8 bits give most calls one key format (module docstring)
    width = max(weight // 2 + t * (ell - 1), 127).bit_length() + 1
    by = _assemble(f.coeffs, t, ell, width, 0 if twisted else t)
    if twisted:
        twist = [_packed_piece((ell - 1,) * b, ell, width) for b in range(t + 1)]
        by = _add_product([{} for _ in by], by, twist, t)
    coeffs = {_decode(key, width): r for key, c in by[t].items() if (r := c % ell)}
    return BPoly._trusted(coeffs=coeffs, modulus=ell)


def power_op(i: int, f: BPoly, ell: int) -> BPoly:
    """Index-i operation on f through the rank twist.  Zero for i < 0 and
    for odd i; the identity for i = 0."""
    return _power_op(i, f, ell, twisted=True)


def power_op_untwisted(i: int, f: BPoly, ell: int) -> BPoly:
    """Index-i operation on the polynomial ring itself (no rank twist).
    Satisfies the Cartan formula and vanishes above index weight(f)."""
    return _power_op(i, f, ell, twisted=False)


# ---------------------------------------------------------------------------
# oracle path: root polynomials in an explicit number of roots, by orbit
# ---------------------------------------------------------------------------


def stability_bound(f: BPoly, i: int, ell: int) -> int:
    """Roots needed so the expansion represents the result faithfully and
    the division by e_r is exact: the root degree of f plus the root-degree
    raise of the index-i operation."""
    return max(1, f.weight // 2 + (max(i, 0) * (ell - 1) + 1) // 2)


def total_power_on_monomial(mono: tuple[int, ...], ell: int) -> dict:
    """Total operation on a root monomial: prod_m (x_m + x_m**ell)**a_m,
    expanded mod ell as a dict exponent vector -> coefficient, each slot
    by the binomial theorem, (x + x**ell)**a = sum_k C(a, k)
    x**(a + k(ell-1)), its terms with C(a, k) = 0 mod ell dropped.  The
    terms that raise the weight by 2t(ell-1) form the index-2t operation;
    no odd-index piece occurs."""
    _require_odd_prime(ell)
    mono = tuple(mono)
    if any(a < 0 for a in mono):
        raise ValueError("exponents must be nonnegative")
    out = {(): 1}
    for a in mono:
        row = [(a + k * (ell - 1), b) for k in range(a + 1) if (b := comb(a, k) % ell)]
        out = {e + (x,): c * b % ell for e, c in out.items() for x, b in row}
    return out


def _orbit_raise(reps: dict, total: int, step: int, weight, kmax: int) -> dict:
    """Raise the slots of a symmetric root polynomial, held by its orbit
    representatives (descending exponent tuples -> coefficient): `total`
    raises spread over a monomial's slots, a slot of exponent v raised
    k <= kmax times gaining k*step at the factor weight(v, k), weight(v, 0)
    being 1.  A representative's n slots of value v split into m_(v,k)
    slots raised k times; each split gives the representative of its
    output orbit the product of its factors times prod_u mult(u)! / prod
    m_(v,k)!, one output monomial's share of the split's arrangements."""
    out: dict = {}
    for rep, c in reps.items():
        splits = [(0, (), c, 1)]  # (raises, raised slots, coefficient, prod m!)
        for v, n in Counter(rep).items():
            states = [(*split, n) for split in splits]
            for k in range(1, kmax + 1):
                if w := weight(v, k):
                    states = [
                        (used + k * m, vals + (v + k * step,) * m, y * w**m, den * factorial(m), left - m)
                        for used, vals, y, den, left in states
                        for m in range(min(left, (total - used) // k) + 1)
                    ]
            splits = [(used, vals + (v,) * left, y, den * factorial(left)) for used, vals, y, den, left in states]
        for used, vals, y, den in splits:
            if used == total:
                mu = tuple(sorted(vals, reverse=True))
                out[mu] = out.get(mu, 0) + y * prod(map(factorial, Counter(mu).values())) // den
    return out


def _checked_raise(reps: dict, total: int, step: int, weight, kmax: int, count) -> dict:
    """`_orbit_raise`, checked at x = (1, ..., 1), where a polynomial is the
    sum of c |orbit| over its representatives: each monomial of degree d
    gives count(d) in all, C(r, j) for e_j and C(d, t) for the binomial
    factors of the index-2t piece (Vandermonde), or ArithmeticError."""

    def at_one(p: dict, shift: int = 0, scale=lambda d: 1) -> dict:
        by = Counter()
        for e, c in p.items():
            by[sum(e) + shift] += c * scale(sum(e)) * multinomial(len(e), list(Counter(e).values()))
        return {d: n for d, n in by.items() if n}

    out = _orbit_raise(reps, total, step, weight, kmax)
    if at_one(out) != at_one(reps, total * step, count):
        raise ArithmeticError("orbit raise fails the Vandermonde count")
    return out


def _orbit_piece(reps: dict, t: int, ell: int) -> dict:
    """The index-2t piece of the total operation on the symmetric root
    polynomial with orbit representatives reps, formed over Z on reps times
    e_r, then divided by e_r, as monomial-symmetric coordinates mod ell."""
    shifted = {tuple(x + 1 for x in rep): c for rep, c in reps.items()}
    raised = _checked_raise(shifted, t, ell - 1, comb, t, lambda d: comb(d, t))
    return {tuple(x - 1 for x in e if x > 1): r for e, c in raised.items() if (r := c % ell)}


def power_op_oracle(i: int, f: BPoly, ell: int, r: int) -> BPoly:
    """Twisted action by brute force in r roots, on orbit representatives:
    write f in m-coordinates, each factor b_j = e_j raising exactly j
    slots once, take the index-i piece of f * e_r, divide by e_r, and
    re-express in the generators."""
    f, _ = _prepare(f, ell)
    bound = stability_bound(f, i, ell)
    if r < bound:
        raise ValueError(f"need at least {bound} roots, got {r}")
    if i < 0 or i % 2 == 1:
        # an odd index would need a weight raise no term can realize
        return BPoly.zero(ell)
    reps: dict = {}
    for mono, c in f.coeffs.items():
        term = {(0,) * r: c}
        for j, k in mono:
            for _ in range(k):
                term = clean(_checked_raise(term, j, 1, lambda v, k: 1, 1, lambda d: comb(r, j)), ell)
        for e, c in term.items():
            reps[e] = reps.get(e, 0) + c
    return symfn_to_bpoly(SymFn(_orbit_piece(reps, i // 2, ell), "monomial", ell))
