"""The `chow` command: a JSON expression of degrees and classes evaluated
in the truncated ring of a product of projective spaces.

`cli.main` imports this module once argparse has chosen the command.  A
missing field of the input is named with where it is missing, as in
`chow input has no "expr"`.
"""

from __future__ import annotations

import json
import sys

from . import chow
from .valuation import MAX_DIGITS, printable

# factors a `chow` space has at most: each term of a class stores one
# exponent per factor, and `newton` of degree 1 of the tangent bundle, whose
# cost grows with the square of the count, takes about 0.18 s of CPU time
# as a command on 500 P^1s (2-core x86 host, Python 3.11.7)
MAX_CHOW_FACTORS = 500


def _field(obj: dict, key: str, where: str):
    """obj[key]; a ValueError naming the key and where when it is missing."""
    if key not in obj:
        raise ValueError(f'{where} has no "{key}"')
    return obj[key]


def _int(value, what: str) -> int:
    """value itself when it is a JSON integer; a ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    """value as a tuple when it is a JSON list of integers; a ValueError
    otherwise."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_int(x, f"each entry of {what}") for x in value)


def parse_bundle(space: chow.ProjProduct, spec) -> chow.VirtualBundle:
    if spec == "tangent":
        return chow.tangent_bundle(space)
    if isinstance(spec, dict) and isinstance(spec.get("terms"), list):
        terms = []
        for t in spec["terms"]:
            if not isinstance(t, dict):
                raise ValueError(f"bundle term must be an object, got {t!r}")
            sign = _int(t.get("sign", 1), "sign")
            terms.append(chow.LineTerm(sign, _ints(_field(t, "twist", "bundle term"), "twist")))
        return chow.VirtualBundle(space, tuple(terms))
    raise ValueError(f"cannot parse bundle {spec!r}")


def eval_chow_expr(space: chow.ProjProduct, expr):
    """Evaluate an expression tree; returns a ChowClass or an int (deg)."""
    # "alpha" and {"op": "alpha"} both name the class alpha
    op = expr["op"] if isinstance(expr, dict) and "op" in expr else expr
    if op == "alpha":
        return chow.alpha(space)
    if not isinstance(expr, dict) or "op" not in expr:
        raise ValueError(f"cannot parse expression {expr!r}")
    if op == "deg":
        value = eval_chow_expr(space, _field(expr, "of", "deg expression"))
        if not isinstance(value, chow.ChowClass):
            raise ValueError("deg needs a class")
        return chow.deg(value)
    if op == "pow":
        n = _int(_field(expr, "n", "pow expression"), "n")
        if n < 0:
            raise ValueError(f"pow: exponent must be nonnegative, got {n}")
        base = eval_chow_expr(space, _field(expr, "base", "pow expression"))
        if isinstance(base, int):  # a deg
            if not printable(base, n):
                raise ValueError(f"pow: a coefficient has over {MAX_DIGITS} digits")
            return base**n
        try:
            power = base ** n
        except ValueError as exc:  # beyond chow's work limit, or a term that would not print
            raise ValueError(f"pow: {exc}") from None
        # sums of terms, and terms times N**k, may not print: an enclosing power would grow them
        if not all(map(printable, power.coeffs.values())):
            raise ValueError(f"pow: a coefficient has over {MAX_DIGITS} digits")
        return power
    if op in ("mul", "add"):
        key = "factors" if op == "mul" else "terms"
        if not isinstance(expr.get(key), list) or not expr[key]:
            raise ValueError(f"{op} needs a nonempty list of {key}")
        values = [eval_chow_expr(space, e) for e in expr[key]]
        if len({isinstance(v, chow.ChowClass) for v in values}) > 1:
            raise ValueError(f"{op} cannot mix a deg with a class")
        out = values[0]
        for v in values[1:]:
            out = out * v if op == "mul" else out + v
        return out
    if op == "newton":
        bundle = parse_bundle(space, _field(expr, "bundle", "newton expression"))
        return chow.newton_class(bundle, _int(_field(expr, "n", "newton expression"), "n"))
    if op == "cf":
        bundle = parse_bundle(space, _field(expr, "bundle", "cf expression"))
        return chow.cf_chern(bundle, _ints(_field(expr, "partition", "cf expression"), "partition"))
    raise ValueError(f"unknown op {op!r}")


def chow_result_to_json(value) -> dict:
    if isinstance(value, chow.ChowClass):
        return {
            "class": [
                {"exponents": list(e), "coeff": str(value.coeffs[e])}
                for e in sorted(value.coeffs)
            ]
        }
    return {"deg": str(value)}


def run_chow(args) -> tuple[dict, bool]:
    if args.input == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.input, encoding="utf-8") as fh:
            payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError('chow input must be an object with a "space" list')
    dims = _ints(payload.get("space"), "space")
    if len(dims) > MAX_CHOW_FACTORS:
        raise ValueError(f"space: {len(dims)} factors exceed the limit {MAX_CHOW_FACTORS}")
    space = chow.ProjProduct(dims)
    value = eval_chow_expr(space, _field(payload, "expr", "chow input"))
    return {"space": list(space.dims), **chow_result_to_json(value)}, True
