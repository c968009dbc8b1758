"""Sparse maps {key: coefficient}: the arithmetic of SymFn, BPoly and
ZClass, and the sums and scalings of ChowClass, whose products run on
packed keys in `chow` instead.

Results never hold a zero coefficient.  With a modulus set, coefficients
are reduced into [0, modulus).  Keys are opaque here; a product is told
how to combine two keys by its caller.
"""

from __future__ import annotations

from itertools import chain


def clean(coeffs: dict, modulus: int | None = None) -> dict:
    """Copy of coeffs without zero coefficients, reduced mod modulus."""
    if modulus is None:
        return {k: c for k, c in coeffs.items() if c}
    return {k: c % modulus for k, c in coeffs.items() if c % modulus}


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


def wrap(cls, coeffs: dict, **fields):
    """Instance of the frozen record class cls (a `_record.Record`) around
    coefficients that a ring operation produced from valid operands,
    skipping cls's own checks: its constructor is for outside input."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "coeffs", coeffs)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
