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
it expands f in an explicit number r of roots with `expand_in_vars`, the
definitional oracle of the basis conversions, and applies the total
operation to root polynomials (dicts, exponent vector -> coefficient).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .partitions import Partition
from .symfun import DEFAULT_WEIGHT_CAP, BPoly, SymFn, bpoly_to_symfn, expand_in_vars, symfn_to_bpoly
from .valuation import _require_odd_prime

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


def _apply_graded_piece(p: dict, t: int, ell: int) -> dict:
    """Index-2t piece of the total operation applied to the root polynomial
    p: raise t slots, each chosen slot multiplying its root exponent
    contribution by ell."""
    out: dict = {}
    for e, c in p.items():
        slots = [(m, a) for m, a in enumerate(e) if a > 0]

        def rec(idx: int, rem: int, exps: list, coeff: int) -> None:
            if rem == 0:
                key = tuple(exps)
                out[key] = (out.get(key, 0) + coeff) % ell
                return
            if idx == len(slots):
                return
            m, a = slots[idx]
            rec(idx + 1, rem, exps, coeff)
            for k in range(1, min(a, rem) + 1):
                raised = list(exps)
                raised[m] += k * (ell - 1)
                rec(idx + 1, rem - k, raised, coeff * comb(a, k) % ell)

        rec(0, t, list(e), c)
    return {e: c for e, c in out.items() if c}


def total_power_on_monomial(mono: tuple[int, ...], ell: int) -> dict:
    """Total operation on a root monomial: prod_m (x_m + x_m**ell)**a_m,
    expanded mod ell as a dict exponent vector -> coefficient: the sum of
    its graded pieces.  The piece raising the weight by 2t(ell-1) is the
    index-2t operation; no odd-index piece occurs."""
    _require_odd_prime(ell)
    mono = tuple(mono)
    if any(a < 0 for a in mono):
        raise ValueError("exponents must be nonnegative")
    out: dict = {}
    for t in range(sum(mono) + 1):
        out.update(_apply_graded_piece({mono: 1}, t, ell))
    return out


def _roots_to_monomial_basis(p: dict, r: int) -> dict:
    """Collect a symmetric polynomial in r roots into monomial-symmetric
    coordinates by reading off sorted-representative exponents."""
    out = {}
    orbit_total = 0
    for e, c in p.items():
        lam = tuple(sorted((x for x in e if x), reverse=True))
        if e == lam + (0,) * (r - len(lam)):
            out[Partition(lam)] = c
            orbit_total += _orbit_size(lam, r)
    if orbit_total != len(p):
        raise ArithmeticError("root polynomial is not symmetric")
    return out


def _orbit_size(lam: tuple[int, ...], r: int) -> int:
    size = factorial(r)
    multiplicity = 1
    previous = None
    for x in lam + (0,) * (r - len(lam)):
        multiplicity = multiplicity + 1 if x == previous else 1
        previous = x
        size //= multiplicity
    return size


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
    expanded = expand_in_vars(bpoly_to_symfn(f), r)
    # multiply by e_r: shift every exponent up by one
    shifted = {tuple(x + 1 for x in e): c for e, c in expanded.items()}
    divided = {}
    for e, c in _apply_graded_piece(shifted, i // 2, ell).items():
        if min(e) < 1:
            raise ArithmeticError("graded piece not divisible by e_r")
        divided[tuple(x - 1 for x in e)] = c
    mf = _roots_to_monomial_basis(divided, r)
    return symfn_to_bpoly(SymFn(mf, "monomial", ell))
