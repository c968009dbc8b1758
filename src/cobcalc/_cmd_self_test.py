"""The `self-test` command: the built-in invariant suite, each fast path
against its independent route at desk scale.

`cli.main` imports this module once argparse has chosen the command.  Each
check prints PASS or FAIL with its name on stderr; the report is one line.
"""

from __future__ import annotations

import sys
from functools import partial

from . import adams, criterion, steenrod, stong
from .symfun import BPoly


def congruences_hold(ell: int) -> bool:
    gen = [d for d in range(1, 16) if stong.exceptional_exponent(d, ell) is None]
    return all(stong.congruence_check(d, ell)[2] for d in gen)


def table_matches(ell: int) -> bool:
    return all(r.matches for r in stong.valuation_table(ell, 15))


def closed_form_matches(ell: int) -> bool:
    X = stong.build_X(2, ell)
    return stong.s_number(X) == stong.s_number_bruteforce(X)


def power_ops_agree(ell: int) -> bool:
    pairs = [(i, BPoly.generator(j, ell)) for j in (1, 2) for i in range(5)]
    try:
        return all(
            steenrod.power_op(i, f, ell)
            == steenrod.power_op_oracle(i, f, ell, steenrod.stability_bound(f, i, ell))
            for i, f in pairs
        )
    except ArithmeticError:
        # the oracle's own divisibility or symmetry check failed
        return False


def ranks_agree() -> bool:
    ranks = adams.e2_ranks(15)
    return all(adams.e2_ranks_from_generators(15, ell) == ranks for ell in (3, 5, 7))


def anchor_holds() -> bool:
    anchor = BPoly({((1, 3),): 2, ((1, 1), (2, 1)): 1}, 3)
    return steenrod.power_op(2, BPoly.generator(1, 3), 3) == anchor


def run_self_test(args) -> tuple[str, bool]:
    # the named checks in the order they run: each group's checks for each
    # of its primes in turn, the prime bound when the check is named
    groups = [
        ((3, 5), {
            "valuation dichotomy d<=15": table_matches,
            "digit-factorial congruence d<=15": congruences_hold,
            "decomposition identity w<=40": lambda ell: adams.decomposition_check(40, ell).all_equal,
        }),
        ((3, 5, 7), {
            "closed form vs expansion, d=2": closed_form_matches,
            "generator criterion d<=10": lambda ell: criterion.msp_criterion(
                criterion.stong_family(ell, 10), ell, 10
            ).passed,
        }),
        ((3, 5), {"power operation differential test": power_ops_agree}),
    ]
    checks = [
        (f"{name}, prime {ell}", partial(check, ell))
        for primes, group in groups
        for ell in primes
        for name, check in group.items()
    ]
    checks += [
        ("rank bookkeeping d<=15", ranks_agree),
        ("anchored value P2(b1) at prime 3", anchor_holds),
    ]

    failures = 0
    for name, check in checks:
        ok = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}", file=sys.stderr)
        failures += not ok
    return ("self-test: all passed" if failures == 0 else f"self-test: {failures} failed"), failures == 0
