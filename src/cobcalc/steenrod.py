"""Mod-ell reduced power operations on the polynomial ring Z/ell[b1,b2,...].

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

from ._sparse import layout, pack, unpack
from .partitions import Partition
from .symfun import DEFAULT_WEIGHT_CAP, BPoly, SymFn, _expand_packed, bpoly_to_symfn, symfn_to_bpoly
from .valuation import _require_odd_prime, multinomial

WEIGHT_CAP = 60


# ---------------------------------------------------------------------------
# fast path: closed forms for the graded pieces, assembled multiplicatively
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _piece(parts: tuple[int, ...], ell: int) -> BPoly:
    """The monomial symmetric function m_parts in the generators.  The
    index-2a piece of the total untwisted operation on b_j is
    m_(ell^a 1^(j-a)), zero for a > j; the index-2b piece of the twist,
    e_b of the (ell-1)-st powers of the roots, is m_((ell-1)^b)."""
    return symfn_to_bpoly(SymFn({Partition(parts): 1}, "monomial", ell))


def _graded_mul(A: dict, B, imax: int) -> dict:
    out: dict = {}
    for ia, pa in A.items():
        for ib, pb in B:
            i = ia + ib
            if i > imax:
                continue
            prod = pa * pb
            out[i] = out[i] + prod if i in out else prod
    return out


def _prepare(f: BPoly, ell: int) -> BPoly:
    _require_odd_prime(ell)
    if f.weight > WEIGHT_CAP:
        raise ValueError(f"weight {f.weight} exceeds cap {WEIGHT_CAP}")
    return f.reduce_mod(ell)


def _power_op(i: int, f: BPoly, ell: int, twisted: bool) -> BPoly:
    f = _prepare(f, ell)
    if i < 0 or i % 2 == 1:
        return BPoly.zero(ell)
    if i == 0:
        return f
    # the largest symmetric-function conversion the pieces below need
    t = i // 2
    needed = [j + min(j, t) * (ell - 1) for mono in f.coeffs for j, _ in mono]
    if twisted and f.coeffs:
        needed.append(t * (ell - 1))
    weight = max(needed, default=0)
    if weight > DEFAULT_WEIGHT_CAP:
        raise ValueError(
            f"P{i} at prime {ell} needs a conversion of weight {weight}, "
            f"above the cap {DEFAULT_WEIGHT_CAP}"
        )
    out = BPoly.zero(ell)
    for mono, c in f.coeffs.items():
        graded = {0: BPoly({(): c}, ell)}
        for j, k in mono:
            parts = [(ell,) * a + (1,) * (j - a) for a in range(min(j, t) + 1)]
            pieces = [(2 * a, _piece(p, ell)) for a, p in enumerate(parts)]
            for _ in range(k):
                graded = _graded_mul(graded, pieces, i)
        if twisted:
            twist = [(2 * b, _piece((ell - 1,) * b, ell)) for b in range(t + 1)]
            graded = _graded_mul(graded, twist, i)
        out = out + graded.get(i, BPoly.zero(ell))
    return out


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
        return {x: y % ell for x, y in p.items() if y % ell}
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
    return {x: y % ell for x, y in out.items() if y % ell}


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
    f = _prepare(f, ell)
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
