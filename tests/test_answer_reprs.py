"""Byte-stability of library answers: the repr of each call below, key
order included, must equal the one recorded in goldens/answer_reprs.json.
A refusal is recorded as its exception type and message.

The calls cover `u_to_b`, `convert` between every pair of bases over Z
and mod 3, 5 and 7, and `power_op` and `power_op_untwisted` on the
classes of the `algebra` benchmark pool and on sums with coefficients
that need reducing."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cobcalc.steenrod import power_op, power_op_untwisted
from cobcalc.symfun import BASES, BPoly, SymFn, convert, u_to_b

GOLDENS = json.loads((Path(__file__).parent / "goldens" / "answer_reprs.json").read_text())

MODULI = (None, 3, 5, 7)

U_TO_B = ((2,), (4, 2), (6, 4, 2), (4, 4, 2, 2), (8, 6), (2, 2, 2, 2, 2, 2), (6, 6, 6), (16,), (10, 8, 6, 4, 2), (12, 12, 8, 4))

# several weights in one input, so the order across weights is pinned too
SYMFNS = (
    {(1,): 4, (2, 1): 1, (3,): 2},
    {(3, 2, 1): 2, (4,): 1, (2, 2): 5, (1, 1, 1, 1): 3},
    {(4, 3, 2, 1): 7, (5, 5): 3, (10,): 1, (2, 2, 2, 2, 1, 1): 4},
    {(6, 6): 1, (3, 3, 3, 3): 2, (12,): 6},
)
# over Z only: coefficients with denominators, one of them integral in sum
FRACTIONAL = (
    {(2, 1): Fraction(1, 2), (3,): Fraction(2, 3), (1, 1, 1): 1},
    {(4, 2): Fraction(1, 6), (6,): Fraction(5, 6), (2, 2, 2): Fraction(7, 4)},
)

POWER_CLASSES = {
    3: [((1, 1),), ((2, 1),), ((5, 1),), ((10, 1),), ((1, 2), (2, 1)), ((1, 3),)],
    5: [((1, 1),), ((2, 1),), ((4, 1),), ((1, 1), (2, 1))],
    7: [((1, 1),), ((2, 1),), ((1, 2),)],
}
# integer sums whose coefficients differ from their residues, one term
# vanishing mod every prime here
POWER_SUMS = (
    {((1, 2),): 2, ((2, 1),): -1, ((1, 1), (3, 1)): 4, ((4, 1),): 105},
    {(): 8, ((1, 1),): 11, ((1, 1), (2, 1)): -13},
)


def cases() -> dict:
    """Case name -> zero-argument call."""
    out = {}
    for mod in MODULI:
        for omega in U_TO_B:
            out[f"u_to_b {omega} mod {mod}"] = lambda omega=omega, mod=mod: u_to_b(omega, mod)
        inputs = SYMFNS + (FRACTIONAL if mod is None else ())
        for n, coeffs in enumerate(inputs):
            for src in BASES:
                for dst in BASES:
                    if src != dst:
                        f = SymFn(coeffs, src, mod)
                        out[f"convert {n} {src} -> {dst} mod {mod}"] = lambda f=f, dst=dst: convert(f, dst)
    for op in (power_op, power_op_untwisted):
        for ell, monos in POWER_CLASSES.items():
            indices = (2, 4, 6) if ell == 3 else (2, 4)
            for mono in monos:
                for i in indices:
                    out[f"{op.__name__} P{i} {mono} at {ell}"] = lambda op=op, i=i, f=BPoly({mono: 1}), ell=ell: op(i, f, ell)
        for n, coeffs in enumerate(POWER_SUMS):
            for ell in (3, 5, 7):
                for i in (-2, 0, 1, 2, 4):
                    out[f"{op.__name__} P{i} sum {n} at {ell}"] = lambda op=op, i=i, f=BPoly(coeffs), ell=ell: op(i, f, ell)
    return out


def answer(call) -> str:
    try:
        return repr(call())
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


CASES = cases()


def test_goldens_cover_every_case():
    assert set(GOLDENS) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_repr_matches_golden(name):
    assert answer(CASES[name]) == GOLDENS[name]
