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
is m_((ell-1)^b); each is converted to the generators once and held as a
dict, packed key -> coefficient, with the exponent of b_g in field g - 1.
The fields are sized from the answer: its terms have half-weight at most
top = weight(f)/2 + t(ell-1), so fields a bit wider than top (and at least
8 bits, so that most calls share one format) hold every exponent, and
multiplying two b-monomials is one integer addition.  The total operation
on each b_j**k, cut at index 2t, is cached by (j, k, t, ell) and the
field width.  The monomials of f are grouped by their last factor, so the
operation on the sum of each group's heads meets that factor once, and
the graded products of all monomials are summed by index before the
twist, which multiplies once per index, not once per monomial; the last
product forms only index 2t.  The sums are reduced mod ell as they are
assembled, and the answer is decoded in one pass, each key field by field
into the (g, e) pairs of its nonzero fields, as its coefficient is
reduced.  A zero input, and an untwisted index above weight(f), return
zero before anything is sized or priced, so the work never grows with
such an index.

`power_op_oracle` recomputes the twisted action for differential testing:
it expands f in an explicit number r of roots with the engine of
`expand_in_vars`, the definitional oracle of the basis conversions, and
applies the total operation term by term to root polynomials held as
dicts, packed key -> coefficient.  A key is an exponent vector packed by
`_sparse`, root m in field m, whose top bit is a guard that stays clear;
the expansion arrives packed.  Multiplying by e_r adds 1 to every field,
and raising root m by k steps of ell - 1 is one integer addition.  Two
checks guard the result, each one word-parallel subtraction per key with
all guard bits set first, and a failed one raises ArithmeticError: the
division by e_r needs every field at least 1, and the quotient must be
symmetric, its sorted representatives (fields that never rise) having
orbits that account for every term.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb

from ._sparse import clean, layout, pack, unpack
from .partitions import Partition
from .symfun import DEFAULT_WEIGHT_CAP, BPoly, SymFn, _expand_packed, bpoly_to_symfn, symfn_to_bpoly
from .valuation import _require_odd_prime, multinomial

WEIGHT_CAP = 60


# ---------------------------------------------------------------------------
# fast path: closed forms for the graded pieces, assembled on packed keys
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _packed_piece(parts: tuple[int, ...], ell: int, width: int) -> dict:
    """The monomial symmetric function m_parts in the generators, on
    packed keys: the exponent of b_g in the field at bit (g - 1) * width.
    The index-2a piece of the total untwisted operation on b_j is
    m_(ell^a 1^(j-a)), zero for a > j; the index-2b piece of the twist,
    e_b of the (ell-1)-st powers of the roots, is m_((ell-1)^b)."""
    piece = symfn_to_bpoly(SymFn({Partition(parts): 1}, "monomial", ell))
    return {sum([k << (g - 1) * width for g, k in mono]): c for mono, c in piece.coeffs.items()}


def _mul_into(out: dict, a: dict, b: dict) -> None:
    """Add a * b to out.  On packed keys the product of two b-monomials is
    the sum of their keys."""
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            out[key] = get(key, 0) + ca * cb


def _add_product(out: list, A: tuple, B: tuple, lo: int = 0) -> list:
    """Add A * B to out, graded polynomials held as sequences by index 2a,
    and return out.  Only the indices lo .. len(out) - 1 of the product
    are formed."""
    t = len(out) - 1
    for a, pa in enumerate(A):
        if pa:
            for b in range(max(lo - a, 0), t + 1 - a):
                if B[b]:
                    _mul_into(out[a + b], pa, B[b])
    return out


@lru_cache(maxsize=4096)
def _graded_power(j: int, k: int, t: int, ell: int, width: int) -> tuple:
    """The total untwisted operation on b_j**k cut at index 2t, as t + 1
    packed polynomials reduced mod ell, entry a the index-2a piece: the
    k-th power of the pieces m_(ell^a 1^(j-a)), built from the power
    k - 1.  The key format is part of the cache key: fields of the given
    width hold every exponent, as j*k + t*(ell - 1) < 2**(width - 1)."""
    pieces = tuple(
        _packed_piece((ell,) * a + (1,) * (j - a), ell, width) if a <= j else {}
        for a in range(t + 1)
    )
    if k == 1:
        return pieces
    out = _add_product([{} for _ in pieces], _graded_power(j, k - 1, t, ell, width), pieces)
    return tuple(clean(p, ell) for p in out)


def _assemble(terms: dict, t: int, ell: int, width: int, lo: int) -> list:
    """The total untwisted operation on sum(c * mono) over terms, cut at
    index 2t, as packed polynomials by index; only indices lo .. t are
    formed.  Multiplicativity: the monomials are grouped by their last
    factor b_j**k, and the operation on the sum of each group's heads,
    recursively assembled, is multiplied by the graded power of b_j**k
    once per group."""
    out = [{} for _ in range(t + 1)]
    groups: dict = {}
    for mono, c in terms.items():
        if mono:
            groups.setdefault(mono[-1], {})[mono[:-1]] = c
        elif lo == 0:
            out[0][0] = c
    for (j, k), heads in groups.items():
        graded = _assemble(heads, t, ell, width, 0)
        _add_product(out, graded, _graded_power(j, k, t, ell, width), lo)
    return [clean(p, ell) if p else p for p in out]


def _decode(key: int, width: int) -> tuple:
    """The b-monomial of a packed key: its nonzero fields, from the low end, as (g, e) pairs."""
    mask, mono, g = (1 << width) - 1, [], 1
    while key:
        if key & mask:
            mono.append((g, key & mask))
        key, g = key >> width, g + 1
    return tuple(mono)


def _prepare(f: BPoly, ell: int) -> tuple[BPoly, int]:
    """f reduced mod ell, and its weight; refused when f weighs more than
    WEIGHT_CAP.  An f already reduced mod ell is returned as it is."""
    _require_odd_prime(ell)
    weight = f.weight
    if weight > WEIGHT_CAP:
        raise ValueError(f"weight {weight} exceeds cap {WEIGHT_CAP}")
    if f.modulus == ell:
        return f, weight
    f = f.reduce_mod(ell)
    return f, f.weight  # reduction may drop the heaviest terms


def _power_op(i: int, f: BPoly, ell: int, twisted: bool) -> BPoly:
    f, weight = _prepare(f, ell)
    if not f.coeffs or i == 0:
        return f
    # untwisted above the weight, instability: each root factor absorbs index at most 2
    if i < 0 or i % 2 == 1 or not twisted and i > weight:
        return BPoly.zero(ell)
    # the largest symmetric-function conversion the pieces below need
    t = i // 2
    needed = [j + min(j, t) * (ell - 1) for mono in f.coeffs for j, _ in mono]
    if twisted:
        needed.append(t * (ell - 1))
    conversion = max(needed, default=0)
    if conversion > DEFAULT_WEIGHT_CAP:
        raise ValueError(
            f"P{i} at prime {ell} needs a conversion of weight {conversion}, "
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


@lru_cache(maxsize=4096)
def _raises(a: int, t: int, ell: int) -> tuple[tuple[int, int], ...]:
    """The raises of a root exponent a within index 2t: (k, C(a, k) mod
    ell) for 1 <= k <= min(a, t), without the binomials that vanish mod
    ell (Lucas's theorem)."""
    return tuple((k, comb(a, k) % ell) for k in range(1, min(a, t) + 1) if comb(a, k) % ell)


def _apply_graded_piece(p: dict, t: int, ell: int, lay: tuple) -> dict:
    """Index-2t piece of the total operation applied to the packed root
    polynomial p: raise t slots, a slot of exponent a raised k times
    gaining k*(ell-1) at the factor C(a, k).  levels[u] holds the partial
    raises of one term that used u < t of the t, each slot taken once."""
    if t == 0:
        return clean(p, ell)
    shifts, mask, _ = lay
    out: dict = {}
    get = out.get
    for key, c in p.items():
        levels = [[(key, c)]] + [[] for _ in range(t - 1)]
        for s in shifts:
            opts = _raises(key >> s & mask, t, ell)
            for used in range(t - 1, -1, -1):
                src = levels[used]
                if not src:
                    continue
                for k, b in opts:
                    if used + k > t:
                        break
                    d = (k * (ell - 1)) << s
                    if used + k < t:
                        levels[used + k].extend([(x + d, y * b) for x, y in src])
                        continue
                    # a full raise goes straight into the output
                    for x, y in src:
                        x += d
                        out[x] = get(x, 0) + y * b
    return clean(out, ell)


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
    return unpack(out, lay[0], lay[1])


def _divide_and_collect(p: dict, lay: tuple) -> dict:
    """Divide the packed root polynomial p exactly by e_r and collect the
    quotient into monomial-symmetric coordinates.  Division subtracts 1
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
    quotient = {}
    for key, c in p.items():
        high = key | guard
        if (high - ones) & guard != guard:
            raise ArithmeticError("graded piece not divisible by e_r")
        if (high - (key >> w)) & guard == guard:
            quotient[key - ones] = c
    quotient = unpack(quotient, shifts, mask)
    if sum(multinomial(len(e), list(Counter(e).values())) for e in quotient) != len(p):
        raise ArithmeticError("root polynomial is not symmetric")
    return {Partition(tuple(x for x in e if x)): c for e, c in quotient.items()}


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
    mf = _divide_and_collect(_apply_graded_piece(shifted, t, ell, lay), lay)
    return symfn_to_bpoly(SymFn(mf, "monomial", ell))
