"""The `steenrod` and `u-to-b` commands: power operations on b-monomials
and the b-polynomial of an even partition, with the JSON form of a
b-polynomial.

`cli.main` imports this module once argparse has chosen one of the two
commands.  `steenrod` is imported where the power operation runs, so
`u-to-b` compiles only `symfun` and what it needs.
"""

from __future__ import annotations

import re

from .partitions import _parse_parts
from .symfun import BPoly, u_to_b


def bpoly_to_json(p: BPoly) -> list:
    """Sparse monomial list: [{"exponents": {"1": k1, ...}, "coeff": c}]."""
    return [
        {"exponents": {str(i): k for i, k in mono}, "coeff": int(c)}
        for mono, c in sorted(p.coeffs.items())
    ]


def parse_b_class(text: str) -> dict:
    """Parse a product like "b1^2*b2" (optionally "3*b1^2*b2") into a
    single-monomial coefficient map."""
    coeff = 1
    exps: dict[int, int] = {}
    for factor in text.replace(" ", "").split("*"):
        if not factor:
            raise ValueError("empty factor")
        if re.fullmatch(r"-?[0-9]+", factor):
            coeff *= int(factor)
            continue
        m = re.fullmatch(r"b([0-9]+)(?:\^([0-9]+))?", factor)
        if not m:
            raise ValueError(f"cannot parse factor {factor!r}")
        i, k = int(m.group(1)), int(m.group(2) or 1)
        if i < 1:
            raise ValueError("generator indices start at 1")
        exps[i] = exps.get(i, 0) + k
    return {tuple(sorted(exps.items())): coeff}


def run_steenrod(args) -> tuple[list, bool]:
    from . import steenrod

    m = re.fullmatch(r"P(-?[0-9]+)", args.op)
    if not m:
        raise ValueError(f"cannot parse operation {args.op!r}, expected like P2")
    i, f = int(m.group(1)), BPoly(parse_b_class(args.cls), args.prime)
    power_op = steenrod.power_op_untwisted if args.untwisted else steenrod.power_op
    return bpoly_to_json(power_op(i, f, args.prime)), True


def run_u_to_b(args) -> tuple[list, bool]:
    return bpoly_to_json(u_to_b(_parse_parts(args.partition), modulus=args.modulus)), True
