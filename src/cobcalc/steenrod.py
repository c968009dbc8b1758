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

`power_op_oracle` recomputes the twisted action by literal root expansion
with an explicit root count r, with no symmetric-function shortcuts in the
expansion; it exists for differential testing against the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .partitions import Partition
from .symfun import BPoly, SymFn, symfn_to_bpoly
from .valuation import _require_odd_prime

WEIGHT_CAP = 60


@dataclass(frozen=True)
class RootPoly:
    """Polynomial in roots x1..xr with mod-ell coefficients; exponent
    vectors of fixed length r, each root of weight 2."""

    nroots: int
    prime: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_odd_prime(self.prime)
        clean = {}
        for e, c in self.coeffs.items():
            e = tuple(e)
            if len(e) != self.nroots or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e}")
            c %= self.prime
            if c:
                clean[e] = c
        object.__setattr__(self, "coeffs", clean)

    def __mul__(self, other: "RootPoly") -> "RootPoly":
        if (self.nroots, self.prime) != (other.nroots, other.prime):
            raise ValueError("root count or prime mismatch")
        out: dict = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = (out.get(e, 0) + ca * cb) % self.prime
        return RootPoly(self.nroots, self.prime, out)

    def __add__(self, other: "RootPoly") -> "RootPoly":
        if (self.nroots, self.prime) != (other.nroots, other.prime):
            raise ValueError("root count or prime mismatch")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = (out.get(e, 0) + c) % self.prime
        return RootPoly(self.nroots, self.prime, out)


def total_power_on_monomial(mono: tuple[int, ...], ell: int) -> RootPoly:
    """Total operation on a root monomial: prod_m (x_m + x_m**ell)**a_m,
    expanded mod ell.  The graded piece raising the weight by 2t(ell-1)
    is the index-2t operation; no odd-index piece occurs."""
    _require_odd_prime(ell)
    mono = tuple(mono)
    if any(a < 0 for a in mono):
        raise ValueError("exponents must be nonnegative")
    r = len(mono)
    out = {(0,) * r: 1}
    for m, a in enumerate(mono):
        new: dict = {}
        for e, c in out.items():
            for raised in range(a + 1):
                coeff = c * comb(a, raised) % ell
                if not coeff:
                    continue
                exp = list(e)
                exp[m] += a + raised * (ell - 1)
                key = tuple(exp)
                new[key] = (new.get(key, 0) + coeff) % ell
        out = {k: v for k, v in new.items() if v}
    return RootPoly(r, ell, out)


# ---------------------------------------------------------------------------
# fast path: closed forms for the graded pieces, assembled multiplicatively
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _untwisted_piece(j: int, a: int, ell: int) -> BPoly:
    """Index-2a piece of the total untwisted operation on b_j: the monomial
    symmetric function with a parts ell and j-a parts 1, re-expressed in
    the generators.  Indices above 2j vanish."""
    lam = Partition([ell] * a + [1] * (j - a))
    return symfn_to_bpoly(SymFn({lam: 1}, "monomial", ell))


@lru_cache(maxsize=None)
def _twist_piece(b: int, ell: int) -> BPoly:
    """e_b of the (ell-1)-st powers of the roots, in the generators: the
    monomial symmetric function with b equal parts ell-1."""
    if b == 0:
        return BPoly.one(ell)
    lam = Partition([ell - 1] * b)
    return symfn_to_bpoly(SymFn({lam: 1}, "monomial", ell))


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
    out = BPoly.zero(ell)
    for mono, c in f.coeffs.items():
        graded = {0: BPoly({(): c}, ell)}
        for j, k in mono:
            pieces = [(2 * a, _untwisted_piece(j, a, ell)) for a in range(min(j, i // 2) + 1)]
            for _ in range(k):
                graded = _graded_mul(graded, pieces, i)
        if twisted:
            twist = [(2 * b, _twist_piece(b, ell)) for b in range(i // 2 + 1)]
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


def _ej_in_roots(j: int, r: int, ell: int) -> RootPoly:
    out = {}
    for subset in combinations(range(r), j):
        e = [0] * r
        for m in subset:
            e[m] = 1
        out[tuple(e)] = 1
    return RootPoly(r, ell, out)


def _bpoly_in_roots(f: BPoly, r: int, ell: int) -> RootPoly:
    total = RootPoly(r, ell, {})
    for mono, c in f.coeffs.items():
        cur = RootPoly(r, ell, {(0,) * r: c})
        for j, k in mono:
            if j > r:
                cur = RootPoly(r, ell, {})
                break
            ej = _ej_in_roots(j, r, ell)
            for _ in range(k):
                cur = cur * ej
        total = total + cur
    return total


def _apply_graded_piece(p: RootPoly, t: int, ell: int) -> RootPoly:
    """Index-2t piece of the total operation applied to p: raise t slots,
    each chosen slot multiplying its root exponent contribution by ell."""
    out: dict = {}
    for e, c in p.coeffs.items():
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
    return RootPoly(p.nroots, p.prime, out)


def _roots_to_monomial_basis(p: RootPoly) -> dict:
    """Collect a symmetric root polynomial into monomial-symmetric
    coordinates by reading off sorted-representative exponents."""
    out = {}
    orbit_total = 0
    for e, c in p.coeffs.items():
        lam = tuple(sorted((x for x in e if x), reverse=True))
        if e == lam + (0,) * (p.nroots - len(lam)):
            out[Partition(lam)] = c
            orbit_total += _orbit_size(lam, p.nroots)
    if orbit_total != len(p.coeffs):
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
    if i < 0:
        return BPoly.zero(ell)
    expanded = _bpoly_in_roots(f, r, ell)
    # multiply by e_r: shift every exponent up by one
    shifted = RootPoly(
        r, ell, {tuple(x + 1 for x in e): c for e, c in expanded.coeffs.items()}
    )
    if i % 2 == 1:
        # an odd index would need a weight raise no term can realize
        piece = RootPoly(r, ell, {})
    else:
        piece = _apply_graded_piece(shifted, i // 2, ell)
    divided = {}
    for e, c in piece.coeffs.items():
        if any(x < 1 for x in e):
            raise ArithmeticError("graded piece not divisible by e_r")
        divided[tuple(x - 1 for x in e)] = c
    quotient = RootPoly(r, ell, divided)
    mf = _roots_to_monomial_basis(quotient)
    return symfn_to_bpoly(SymFn(mf, "monomial", ell))
