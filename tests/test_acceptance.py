"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Tolerances are exact (integer identities); the stated runtime
budgets are asserted."""

import json
import random
import time

from cobcalc import adams, cli, criterion, stong
from cobcalc.chow import ProjProduct, VirtualBundle, newton_class, tangent_bundle, deg
from cobcalc.partitions import Partition, enumerate_partitions
from cobcalc.steenrod import power_op, power_op_oracle, power_op_untwisted, stability_bound
from cobcalc.symfun import (
    BPoly,
    SymFn,
    ZClass,
    bpoly_to_symfn,
    expand_in_vars,
    pair,
    pair_through_diagonal,
    u_to_b,
    z_mul,
)

from conftest import PARTITION_COUNTS

PRIMES = (3, 5, 7)

# fifty fixed factor lists: all thirty-eight valid shapes of total dimension
# up to 12, then the first twelve of total dimension 14
PRELISTED_FACTOR_LISTS = [
    (1, 1),
    (3, 1),
    (1, 1, 1, 1),
    (5, 1),
    (3, 3),
    (3, 1, 1, 1),
    (1, 1, 1, 1, 1, 1),
    (7, 1),
    (5, 3),
    (5, 1, 1, 1),
    (3, 3, 1, 1),
    (3, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1),
    (9, 1),
    (7, 3),
    (7, 1, 1, 1),
    (5, 5),
    (5, 3, 1, 1),
    (5, 1, 1, 1, 1, 1),
    (3, 3, 3, 1),
    (3, 3, 1, 1, 1, 1),
    (3, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (11, 1),
    (9, 3),
    (9, 1, 1, 1),
    (7, 5),
    (7, 3, 1, 1),
    (7, 1, 1, 1, 1, 1),
    (5, 5, 1, 1),
    (5, 3, 3, 1),
    (5, 3, 1, 1, 1, 1),
    (5, 1, 1, 1, 1, 1, 1, 1),
    (3, 3, 3, 3),
    (3, 3, 3, 1, 1, 1),
    (3, 3, 1, 1, 1, 1, 1, 1),
    (3, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (13, 1),
    (11, 3),
    (11, 1, 1, 1),
    (9, 5),
    (9, 3, 1, 1),
    (9, 1, 1, 1, 1, 1),
    (7, 7),
    (7, 5, 1, 1),
    (7, 3, 3, 1),
    (7, 3, 1, 1, 1, 1),
    (7, 1, 1, 1, 1, 1, 1, 1),
    (5, 5, 3, 1),
]


def report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_valuation_theorem(capsys):
    started = time.perf_counter()
    for ell in PRIMES:
        code = cli.main(["snumbers", "--prime", str(ell), "--max-d", "30"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 30
        for row in rows:
            d = row["d"]
            want = 1 if stong.exceptional_exponent(d, ell) is not None else 0
            assert row["nu"] == want, (ell, d)
            assert row["expected"] == want
            assert row["match"] is True
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    with capsys.disabled():
        report(1, "valuation dichotomy, primes 3/5/7, d <= 30", started)


def test_criterion_2_digit_factorial_congruence(capsys):
    started = time.perf_counter()
    checked = 0
    for ell in PRIMES:
        for d in range(1, 31):
            if stong.exceptional_exponent(d, ell) is not None:
                continue
            lhs, rhs, equal = stong.congruence_check(d, ell)
            assert equal, (ell, d, lhs, rhs)
            checked += 1
    assert checked > 60
    with capsys.disabled():
        report(2, "digit-factorial congruence, generic d <= 30", started)


def test_criterion_3_oracle_equivalence(capsys):
    started = time.perf_counter()
    spaces = []
    for ell in PRIMES:
        for d in range(1, 6):
            X = stong.build_X(d, ell)
            if X.total_dimension <= 12:
                spaces.append(X)
    spaces.extend(ProjProduct(dims) for dims in PRELISTED_FACTOR_LISTS)
    assert len(PRELISTED_FACTOR_LISTS) == 50
    for X in spaces:
        assert stong.s_number(X) == stong.s_number_bruteforce(X), X
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(3, f"closed form vs expansion on {len(spaces)} spaces", started)


def test_criterion_4_power_operations(capsys):
    started = time.perf_counter()
    # differential test: fast path against the root oracle on orbit representatives
    for ell in (3, 5):
        for j in range(1, 5):
            f = BPoly.generator(j, ell)
            for i in range(0, 7):
                r = stability_bound(f, i, ell)
                assert power_op(i, f, ell) == power_op_oracle(i, f, ell, r), (ell, j, i)
    # Cartan formula on 100 random pairs of monomials of weight <= 8,
    # on the classifying-space action where the product rule applies
    rng = random.Random(2024)
    monos = [lam for w in range(0, 9, 2) for lam in enumerate_partitions(w // 2)]
    for ell in (3, 5):
        for _ in range(50):
            f = _monomial(rng.choice(monos), ell)
            g = _monomial(rng.choice(monos), ell)
            for i in range(0, 7):
                lhs = power_op_untwisted(i, f * g, ell)
                rhs = BPoly.zero(ell)
                for a in range(i + 1):
                    rhs = rhs + power_op_untwisted(a, f, ell) * power_op_untwisted(i - a, g, ell)
                assert lhs == rhs
    # odd vanishing on every monomial of weight <= 12, both actions
    for ell in (3, 5):
        for w in range(0, 13, 2):
            for lam in enumerate_partitions(w // 2):
                f = _monomial(lam, ell)
                for i in (1, 3, 5, 7):
                    assert power_op(i, f, ell).coeffs == {}
                    assert power_op_untwisted(i, f, ell).coeffs == {}
    # anchored value
    got = power_op(2, BPoly.generator(1, 3), 3)
    assert got == BPoly({((1, 3),): 2, ((1, 1), (2, 1)): 1}, 3)
    with capsys.disabled():
        report(4, "power operations: differential, Cartan, parity, anchor", started)


def _monomial(lam, ell):
    exps = {}
    for part in lam:
        exps[part] = exps.get(part, 0) + 1
    return BPoly({tuple(sorted(exps.items())): 1}, ell)


def test_criterion_5_decomposition_identity(capsys):
    started = time.perf_counter()
    for ell in (3, 5):
        result = adams.decomposition_check(60, ell)
        assert result.all_equal
        assert [r.weight for r in result.rows] == list(range(0, 61, 2))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    with capsys.disabled():
        report(5, "decomposition identity, even w <= 60, primes 3/5", started)


def test_criterion_6_duality_comultiplication(capsys):
    started = time.perf_counter()
    for ell in (3, 5):
        for total in range(0, 13, 2):
            targets = enumerate_partitions(total, "even")
            for w1 in range(0, total + 1, 2):
                lefts = enumerate_partitions(w1, "even-non-ladic", ell)
                rights = enumerate_partitions(total - w1, "even-non-ladic", ell)
                for om1 in lefts:
                    z1 = ZClass.basis_element(om1, ell)
                    for om2 in rights:
                        z2 = ZClass.basis_element(om2, ell)
                        product = z_mul(z1, z2)
                        glued = om1.concat(om2)
                        for omega in targets:
                            want = 1 if glued == omega else 0
                            assert pair(product, omega) == want
                            assert pair_through_diagonal(z1, z2, omega) == want
    with capsys.disabled():
        report(6, "duality through the diagonal, |w| <= 12, primes 3/5", started)


def test_criterion_7_newton_structure_and_dictionary(capsys):
    started = time.perf_counter()
    # additivity and decomposable vanishing on every product of >= 2
    # projective spaces of total dimension <= 10
    for total in range(2, 11):
        for dims in enumerate_partitions(total):
            if len(dims) < 2:
                continue
            space = ProjProduct(tuple(dims))
            tangent = tangent_bundle(space)
            half = len(tangent.terms) // 2
            left = VirtualBundle(space, tangent.terms[:half])
            right = VirtualBundle(space, tangent.terms[half:])
            for n in (1, 2, total):
                assert newton_class(tangent, n) == newton_class(left, n) + newton_class(
                    right, n
                )
            assert deg(newton_class(tangent, total)) == 0, dims
    # dictionary round trip for every even partition of weight <= 16
    for weight in range(0, 17, 2):
        for omega in enumerate_partitions(weight, "even"):
            k = max(weight // 2, 1)
            substituted = expand_in_vars(bpoly_to_symfn(u_to_b(omega)), k)
            squared = {tuple(2 * x for x in e): c for e, c in substituted.items()}
            half = Partition(x // 2 for x in omega)
            want = {
                tuple(2 * x for x in e): c
                for e, c in expand_in_vars(SymFn({half: 1}), k).items()
            }
            assert squared == want, omega
    with capsys.disabled():
        report(7, "Newton structure and dictionary round trip", started)


def test_criterion_8_generator_criterion_end_to_end(capsys):
    started = time.perf_counter()
    for ell in PRIMES:
        fam = criterion.stong_family(ell, 20)
        assert criterion.msp_criterion(fam, ell, 20).passed, ell
        for d in range(1, 21):
            perturbed = fam.with_entry(d, fam.entries[d] * ell)
            verdict = criterion.msp_criterion(perturbed, ell, 20)
            flipped = [r.d for r in verdict.failures()]
            assert flipped == [d], (ell, d, flipped)
    with capsys.disabled():
        report(8, "criterion end to end with single-entry perturbations", started)


def test_criterion_9_rank_bookkeeping(capsys):
    started = time.perf_counter()
    for d in range(1, 31):
        by_partitions = adams.e2_rank(d)
        assert by_partitions == PARTITION_COUNTS[d]
        for ell in PRIMES:
            assert adams.e2_rank_from_generators(d, ell) == by_partitions, (d, ell)
    with capsys.disabled():
        report(9, "rank bookkeeping two ways, d <= 30", started)
