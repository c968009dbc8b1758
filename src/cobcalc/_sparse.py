"""Sparse maps {key: coefficient}: the arithmetic of SymFn, BPoly and
ZClass, and the sums and scalings of ChowClass, whose products run on
packed keys in `chow` instead.

Results never hold a zero coefficient.  With a modulus set, coefficients
are reduced into [0, modulus).  Keys are opaque here; a product is told
how to combine two keys by its caller.

Packed keys (`layout`, `pack`, `unpack`) serve the products of `chow` and
the literal expansions of `symfun` and `steenrod`: an exponent vector is
one integer, one field per exponent, so a product's exponents are one
integer addition.  Python integers have no width limit, nor has a field.
"""

from __future__ import annotations

from itertools import chain
from operator import lshift


def clean(coeffs: dict, modulus: int | None = None) -> dict:
    """Copy of coeffs without zero coefficients, reduced mod modulus."""
    if modulus is None:
        return {k: c for k, c in coeffs.items() if c}
    return {k: r for k, c in coeffs.items() if (r := c % modulus)}


def collect(terms, modulus: int | None = None) -> dict:
    """Sum the coefficients of (key, coefficient) pairs by key; a None key
    marks a term that vanishes."""
    out: dict = {}
    for k, c in terms:
        if k is not None:
            out[k] = out.get(k, 0) + c
    return clean(out, modulus)


def add(a: dict, b: dict) -> dict:
    return collect(chain(a.items(), b.items()))


def scale(a: dict, s) -> dict:
    return clean({k: s * c for k, c in a.items()})


def mul(a: dict, b: dict, combine, modulus: int | None = None) -> dict:
    """Bilinear product: basis keys ka and kb multiply to combine(ka, kb),
    or to zero when combine returns None (a truncated product)."""
    terms = ((combine(ka, kb), ca * cb) for ka, ca in a.items() for kb, cb in b.items())
    return collect(terms, modulus)


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
