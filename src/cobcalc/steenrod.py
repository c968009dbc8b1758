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

`power_op_oracle` recomputes the twisted action for differential testing:
it expands f in an explicit number r of roots with the engine of
`expand_in_vars`, the definitional oracle of the basis conversions, and
applies the total operation term by term to root polynomials held as
dicts, packed key -> coefficient.  A key is an exponent vector packed by
`_sparse`, root m in field m, whose top bit is a guard that stays clear;
the expansion arrives packed.  Multiplying by e_r adds 1 to every field,
and raising root m by k steps of ell - 1 is one integer addition.  A
term's raises are read from a table by exponent, and each completes the
partial raises of the roots before it, so each root monomial of the
graded piece costs one dict update.  The piece is left unreduced, and
the division pass reduces each coefficient mod ell as it reads it,
skipping the terms that vanish, so a call holds one dict of the piece,
not a raw and a reduced copy.  Two
checks guard the result, each one word-parallel subtraction per nonzero
term with all guard bits set first, and a failed one raises
ArithmeticError: the division by e_r needs every field at least 1, and the
quotient must be symmetric, its sorted representatives (fields that never
rise) having orbits that account for every nonzero term.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from ._sparse import clean, layout, pack, unpack
from .symfun import DEFAULT_WEIGHT_CAP, BPoly, SymFn, _expand_packed, bpoly_to_symfn, symfn_to_bpoly
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
# oracle path: literal root expansion with explicit root count
# ---------------------------------------------------------------------------


def stability_bound(f: BPoly, i: int, ell: int) -> int:
    """Roots needed so the expansion represents the result faithfully and
    the division by e_r is exact: the root degree of f plus the root-degree
    raise of the index-i operation."""
    return max(1, f.weight // 2 + (max(i, 0) * (ell - 1) + 1) // 2)


def _apply_graded_piece(p: dict, t: int, ell: int, lay: tuple) -> dict:
    """Index-2t piece of the total operation applied to the packed root
    polynomial p: raise slots by t steps in all, each at most once, a slot
    of exponent a raised k times gaining k*(ell-1) at the factor C(a, k),
    from a table by exponent built by Pascal's rule mod ell.  One pass over
    a term's slots completes, at each slot, the partial raises of the slots
    before it straight into the output, one dict update per root monomial
    of the piece.  The coefficients are left unreduced, some 0 mod ell:
    callers reduce them."""
    if t == 0:
        return p
    shifts, mask, _ = lay
    row, raises = [1] + [0] * t, []
    for _ in range(mask // 2 + 1):  # the guard bit of a field stays clear
        raises.append(tuple((k, k * (ell - 1), b) for k, b in enumerate(row) if k and b))
        row = [1] + [(x + y) % ell for x, y in zip(row[1:], row)]
    partial = [tuple(r for r in opts if r[0] < t) for opts in raises]
    middle = range(t - 2, 0, -1)
    out: dict = {}
    get = out.get
    for key, c in p.items():
        levels = [[] for _ in range(t)]  # levels[u]: (key, coefficient) raised u steps
        for s in shifts:
            a = key >> s & mask
            for k, d, b in raises[a]:
                d <<= s
                if k == t:
                    z = key + d
                    out[z] = get(z, 0) + c * b
                    continue
                for x, y in levels[t - k]:
                    z = x + d
                    out[z] = get(z, 0) + y * b
            # the slot's partials, built from the levels before they take it
            opts = partial[a]
            for used in middle:
                if src := levels[used]:
                    for k, d, b in opts:
                        if used + k >= t:
                            break
                        d <<= s
                        levels[used + k] += [(x + d, y * b) for x, y in src]
            for k, d, b in opts:
                levels[k].append((key + (d << s), c * b))
    return out


def total_power_on_monomial(mono: tuple[int, ...], ell: int) -> dict:
    """Total operation on a root monomial: prod_m (x_m + x_m**ell)**a_m,
    expanded mod ell as a dict exponent vector -> coefficient: the sum of
    its graded pieces.  The piece raising the weight by 2t(ell-1) is the
    index-2t operation; no odd-index piece occurs."""
    _require_odd_prime(ell)
    mono = tuple(mono)
    if any(a < 0 for a in mono):
        raise ValueError("exponents must be nonnegative")
    lay = layout(len(mono), max(mono, default=0) * ell)
    packed = pack({mono: 1}, lay[0])
    out: dict = {}
    for t in range(sum(mono) + 1):
        out.update(_apply_graded_piece(packed, t, ell, lay))
    return unpack(clean(out, ell), lay[0], lay[1])


def _divide_and_collect(p: dict, lay: tuple, ell: int | None = None) -> dict:
    """Divide the packed root polynomial p exactly by e_r and collect the
    quotient into monomial-symmetric coordinates (descending tuples of
    parts).  With ell given, each coefficient is reduced mod ell as it is
    read, and a term that vanishes is skipped and not counted, so an
    unreduced p needs no reduced copy.
    Both checks run on every term that remains.  Division subtracts 1
    from every field, so it needs every field at least 1: with all guard
    bits set, subtracting ones borrows from no guard.  It keeps the number
    of terms and the order of the fields, so only the sorted
    representatives are divided and unpacked: field m minus field m+1 (the
    key shifted down one field) borrows from no guard exactly when the
    exponents never rise.  The orbits of the representatives must account
    for every term, or the quotient is not symmetric."""
    shifts, mask, guard = lay
    w = mask.bit_length()
    ones = guard >> (w - 1)
    quotient, count = {}, 0
    for key, c in p.items():
        if ell is not None and not (c := c % ell):
            continue
        count += 1
        high = key | guard
        if (high - ones) & guard != guard:
            raise ArithmeticError("graded piece not divisible by e_r")
        if (high - (key >> w)) & guard == guard:
            quotient[key - ones] = c
    quotient = unpack(quotient, shifts, mask)
    if sum(multinomial(len(e), list(Counter(e).values())) for e in quotient) != count:
        raise ArithmeticError("root polynomial is not symmetric")
    return {tuple(x for x in e if x): c for e, c in quotient.items()}


def power_op_oracle(i: int, f: BPoly, ell: int, r: int) -> BPoly:
    """Twisted action by brute force: expand f * e_r into root monomials,
    apply the total operation termwise keeping the index-i graded piece,
    divide exactly by e_r, and re-express symmetrically."""
    f, _ = _prepare(f, ell)
    bound = stability_bound(f, i, ell)
    if r < bound:
        raise ValueError(f"need at least {bound} roots, got {r}")
    if i < 0 or i % 2 == 1:
        # an odd index would need a weight raise no term can realize
        return BPoly.zero(ell)
    t = i // 2
    # f's degree in the b's bounds its root exponents; the fields hold the
    # exponents of f * e_r after the raise
    degree = max((sum(k for _, k in mono) for mono in f.coeffs), default=0)
    shifts, mask, guard = lay = layout(r, degree + 1 + t * (ell - 1))
    # multiply by e_r: add 1 to every field
    ones = guard >> (mask.bit_length() - 1)
    shifted = {key + ones: c for key, c in _expand_packed(bpoly_to_symfn(f), shifts).items()}
    mf = _divide_and_collect(_apply_graded_piece(shifted, t, ell, lay), lay, ell)
    return symfn_to_bpoly(SymFn(mf, "monomial", ell))
