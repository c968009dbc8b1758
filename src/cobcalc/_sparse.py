"""Sparse maps {key: coefficient}: the arithmetic of SymFn, BPoly and
ZClass, and the sums and scalings of ChowClass, whose products run on
packed keys in `chow` instead.  Keys are opaque here; a product is told
how to combine two keys by its caller.

The four classes share one coefficient policy, kept here.  A constructor
(`build`) takes ints and Fractions only, by exact type (no float or
bool), makes each key canonical with the class's key function and sums
equal keys.  A ring result (`normalize`) holds no zero; mod l each
coefficient is an int in [0, l), a Fraction its residue (refused when l
divides its denominator); over Q an integral Fraction is an int, and
ChowClass, a ring over Z, refuses any other.

Packed keys (`layout`, `pack`, `unpack`) serve the products and the
invariant subring of `chow` and the literal expansion of `symfun`: an
exponent vector is one integer, one field per exponent, so a product's
exponents are one integer addition.  Python integers have no width
limit, nor has a field.
"""

from __future__ import annotations

import sys
from itertools import chain
from operator import lshift

from .valuation import _require_odd_prime


def build(coeffs: dict, key, modulus: int | None = None, integral: bool = False) -> dict:
    """A constructor's coeffs mod modulus, an odd prime or None.  key(k) is
    None for a term the class sends to zero.  No Fraction exists before its
    module is loaded, so the type check does not load it."""
    if modulus is not None:
        _require_odd_prime(modulus)
    exact = {int, getattr(sys.modules.get("fractions"), "Fraction", int)}
    out: dict = {}
    for k, c in coeffs.items():
        if type(c) not in exact:
            raise ValueError(f"coefficient {c!r} is not an int or a Fraction")
        if (k := key(k)) is not None:
            out[k] = out.get(k, 0) + c
    out = normalize(out, modulus)
    if integral and (inexact := [c for c in out.values() if type(c) is not int]):
        raise ValueError(f"coefficient {inexact[0]} is not an integer")
    return out


def normalize(coeffs: dict, modulus: int | None = None) -> dict:
    """A ring result.  The Fraction pass runs only when one is present (none
    is before its module loads), found by exact type, far cheaper than isinstance."""
    if getattr(sys.modules.get("fractions"), "Fraction", None) in map(type, coeffs.values()):
        if modulus is None:
            coeffs = {k: c.numerator if c.denominator == 1 else c for k, c in coeffs.items()}
        else:
            coeffs = {k: c.numerator * pow(c.denominator, -1, modulus) for k, c in coeffs.items()}
    return clean(coeffs, modulus)


def clean(coeffs: dict, modulus: int | None = None) -> dict:
    """Copy of coeffs without zero coefficients, reduced mod modulus."""
    if modulus is None:
        return {k: c for k, c in coeffs.items() if c}
    return {k: r for k, c in coeffs.items() if (r := c % modulus)}


def collect(terms) -> dict:
    """Sum the coefficients of (key, coefficient) pairs by key."""
    out: dict = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return clean(out)


def add(a: dict, b: dict) -> dict:
    return collect(chain(a.items(), b.items()))


def scale(a: dict, s) -> dict:
    return clean({k: s * c for k, c in a.items()})


def mul(a: dict, b: dict, combine) -> dict:
    """Bilinear product: basis keys ka and kb multiply to combine(ka, kb)."""
    return collect((combine(ka, kb), ca * cb) for ka, ca in a.items() for kb, cb in b.items())


def layout(count: int, top: int) -> tuple[range, int, int]:
    """Packing of count exponents, each at most top, into one integer, as
    (shifts, mask, guard): exponent i sits at bit shifts[i] in a field of
    w bits, one more than top has (at least 2), mask has the low w bits
    set, and guard the top bit of every field, which stays clear."""
    width = max(top, 1).bit_length() + 1
    mask = (1 << width) - 1
    ones = ((1 << (width * count)) - 1) // mask
    return range(0, width * count, width), mask, ones << (width - 1)


def pack(coeffs: dict, shifts: range) -> dict:
    """coeffs with each exponent vector packed into one integer."""
    return {sum(map(lshift, e, shifts)): c for e, c in coeffs.items()}


def unpack(packed: dict, shifts: range, mask: int) -> dict:
    """Inverse of pack: packed keys back to exponent tuples."""
    return {tuple([k >> s & mask for s in shifts]): c for k, c in packed.items()}
