import itertools
import math
import pickle
import random
import re
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import symfun
from cobcalc.partitions import Partition, enumerate_partitions
from cobcalc.symfun import (
    BASES,
    BPoly,
    SymFn,
    ZClass,
    bpoly_to_symfn,
    convert,
    diagonal,
    expand_in_vars,
    pair,
    pair_through_diagonal,
    symfn_to_bpoly,
    u_to_b,
    z_mul,
)


def tuple_expansion(f: SymFn, k: int) -> dict:
    """f in k variables on exponent tuples: each basis element a product
    of monomial symmetric functions, m_mu the distinct permutations of mu
    padded with zeros."""

    def mono(parts):
        if len(parts) > k:
            return {}
        return dict.fromkeys(set(itertools.permutations(parts + (0,) * (k - len(parts)))), 1)

    out: dict = {}
    for lam, c in f.coeffs.items():
        if f.basis == "monomial":
            factors = [tuple(lam)]
        elif f.basis == "elementary":
            factors = [(1,) * s for s in lam]
        else:
            factors = [(s,) for s in lam]
        term = {(0,) * k: c}
        for parts in factors:
            product: dict = {}
            for ea, ca in term.items():
                for eb in mono(parts):
                    e = tuple(x + y for x, y in zip(ea, eb))
                    product[e] = product.get(e, 0) + ca
            term = product
        for e, v in term.items():
            out[e] = out.get(e, 0) + v
    if f.modulus is not None:
        out = {e: v % f.modulus for e, v in out.items()}
    return {e: v for e, v in out.items() if v}


def m(parts, **kw):
    return SymFn.basis_element(parts, "monomial", **kw)


def e(parts, **kw):
    return SymFn.basis_element(parts, "elementary", **kw)


def p(parts, **kw):
    return SymFn.basis_element(parts, "power-sum", **kw)


class TestExpandInVars:
    def test_monomial(self):
        assert expand_in_vars(m((1, 1)), 2) == {(1, 1): 1}

    def test_elementary(self):
        assert expand_in_vars(e((2,)), 3) == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}

    def test_power_sum(self):
        assert expand_in_vars(p((2,)), 2) == {(2, 0): 1, (0, 2): 1}

    def test_too_many_parts_vanish(self):
        assert expand_in_vars(m((1, 1, 1)), 2) == {}

    def test_against_a_tuple_expansion(self):
        rng = random.Random(5)
        small = [lam for w in range(7) for lam in enumerate_partitions(w)]
        for _ in range(300):
            k = rng.randint(1, 5)
            basis = rng.choice(BASES)
            modulus = rng.choice([None, 3, 5])
            coeffs = {rng.choice(small): rng.choice([-3, -1, 1, 2, Fraction(1, 2)]) for _ in range(3)}
            f = SymFn(coeffs, basis, modulus)
            got = expand_in_vars(f, k)
            assert got == tuple_expansion(f, k), (coeffs, basis, modulus, k)
            assert all(type(e) is tuple and len(e) == k for e in got)


class TestConvert:
    def test_p2_to_elementary(self):
        got = convert(p((2,)), "elementary")
        assert got.coeffs == {Partition((1, 1)): 1, Partition((2,)): -2}

    def test_m21_to_elementary(self):
        got = convert(m((2, 1)), "elementary")
        assert got.coeffs == {Partition((2, 1)): 1, Partition((3,)): -3}

    def test_es_to_monomial(self):
        for s in range(1, 6):
            got = convert(e((s,)), "monomial")
            assert got.coeffs == {Partition((1,) * s): 1}

    def test_m11_to_power_sum_needs_fractions(self):
        got = convert(m((1, 1)), "power-sum")
        assert got.coeffs == {Partition((1, 1)): Fraction(1, 2), Partition((2,)): Fraction(-1, 2)}

    @pytest.mark.parametrize("weight", range(0, 9))
    def test_against_expansion_oracle(self, weight):
        k = max(weight, 1)
        sources = BASES if weight <= 7 else ("monomial",)
        for lam in enumerate_partitions(weight):
            for src in sources:
                f = SymFn.basis_element(lam, src)
                reference = expand_in_vars(f, k)
                for dst in BASES:
                    assert expand_in_vars(convert(f, dst), k) == reference

    @pytest.mark.parametrize("weight", [0, 4, 8, 12, 14, 16])
    def test_round_trips(self, weight):
        for lam in enumerate_partitions(weight):
            for src in BASES:
                f = SymFn.basis_element(lam, src)
                for dst in BASES:
                    assert convert(convert(f, dst), src) == f

    def test_weight_cap(self):
        with pytest.raises(ValueError):
            convert(m((30, 20)), "elementary")

    def test_weight_cap_prices_only_conversions(self):
        # an input already in the target basis needs no conversion
        f = m((50,))
        assert convert(f, "monomial") is f

    def test_mod_ell_conversion(self):
        got = convert(p((2,), modulus=3), "elementary")
        assert got.coeffs == {Partition((1, 1)): 1, Partition((2,)): 1}
        back = convert(got, "power-sum")
        assert back.coeffs == {Partition((2,)): 1}

    def test_mod_ell_elimination_cancels_early(self):
        # m_(5^6) = e_(6^5) mod 5: every other pivot cancels mod 5, so the
        # elimination builds no table of the Z answer's many terms
        got = convert(m((5,) * 6, modulus=5), "elementary")
        assert got.coeffs == {Partition((6,) * 5): 1}

    def test_mod_ell_power_sums_are_one_representative(self):
        # p_2^3 = p_6 mod 3: the pivot p_(2,2,2), whose factor 3! is 0 mod 3,
        # has coefficient 0 there and is skipped, so p_6 takes its part; the
        # integral answer reduced mod 3 has 2 p_(2,2,2) and no p_6 instead
        got = convert(m((2, 2, 1, 1), modulus=3), "power-sum")
        assert got.coeffs[Partition((6,))] == 2
        assert Partition((2, 2, 2)) not in got.coeffs
        integral = convert(m((2, 2, 1, 1)), "power-sum").coeffs
        reduced = {lam: c.numerator * pow(c.denominator, -1, 3) % 3 for lam, c in integral.items()}
        assert reduced[Partition((2, 2, 2))] == 2 and reduced[Partition((6,))] == 0
        assert {lam: c for lam, c in reduced.items() if c} != got.coeffs
        for answer in (got, SymFn(reduced, "power-sum", 3)):
            assert convert(answer, "monomial").coeffs == {Partition((2, 2, 1, 1)): 1}

    @pytest.mark.parametrize("n", range(0, 11))
    def test_elementary_in_power_sums_closed_form(self, n):
        # e_n = sum over mu of n of (-1)^(n - len(mu)) p_mu / z_mu, with
        # z_mu = prod_i i^(m_i) m_i!  (Macdonald I §2)
        want = {}
        for mu in enumerate_partitions(n):
            z = 1
            for i, mult in Counter(mu).items():
                z *= i**mult * math.factorial(mult)
            want[mu] = Fraction((-1) ** (n - len(mu)), z)
        assert convert(m((1,) * n), "power-sum").coeffs == want

    @pytest.mark.parametrize("weight", range(0, 7))
    def test_elementary_against_sympy_symmetrize(self, weight):
        # sympy's symmetrize rewrites a symmetric polynomial in the
        # elementary polynomials by its own algorithm: an independent m -> e
        # route.  weight variables keep e_1..e_weight independent.
        sympy = pytest.importorskip("sympy")
        from sympy.polys.polyfuncs import symmetrize

        k = max(weight, 1)
        xs = sympy.symbols(f"x1:{k + 1}")
        for lam in enumerate_partitions(weight):
            exponents = set(itertools.permutations(tuple(lam) + (0,) * (k - len(lam))))
            poly = sum(math.prod(x**a for x, a in zip(xs, vec)) for vec in exponents)
            sym, rest, defs = symmetrize(poly, *xs, formal=True)
            assert rest == 0
            want = {
                Partition(i + 1 for i, mult in enumerate(vec) for _ in range(mult)): int(c)
                for vec, c in sympy.Poly(sym, *(s for s, _ in defs)).terms()
            }
            assert convert(m(lam), "elementary").coeffs == want


def conjugate(lam) -> Partition:
    return Partition(sum(1 for x in lam if x >= j) for j in range(1, lam[0] + 1)) if lam else Partition()


def zero_one_matrices(rows: tuple, cols: tuple) -> int:
    """Number of 0-1 matrices with the given row and column sums, filled
    row by row."""
    if not rows:
        return int(not any(cols))
    return sum(
        zero_one_matrices(rows[1:], tuple(c - (j in chosen) for j, c in enumerate(cols)))
        for chosen in itertools.combinations(range(len(cols)), rows[0])
        if all(cols[j] for j in chosen)
    )


def block_maps(lam: tuple, mu: tuple) -> int:
    """Number of maps from the parts of lam to the parts of mu under which
    the parts sent to each part of mu sum to it, counted part by part."""

    def count(j: int, room: list) -> int:
        if j == len(lam):
            return int(not any(room))
        total = 0
        for i, left in enumerate(room):
            if left >= lam[j]:
                room[i] -= lam[j]
                total += count(j + 1, room)
                room[i] += lam[j]
        return total

    return count(0, list(mu))


def to_m_table(weight, basis="elementary") -> dict:
    """lam -> the basis element of lam in the m basis, over the partitions
    of weight."""
    return {
        lam: convert(SymFn.basis_element(lam, basis), "monomial").coeffs
        for lam in enumerate_partitions(weight)
    }


class TestTransitionMatrices:
    @pytest.mark.parametrize("weight", range(0, 8))
    def test_elementary_entries_count_zero_one_matrices(self, weight):
        # the coefficient of m_mu in e_lam is the number of 0-1 matrices
        # with row sums lam and column sums mu (Macdonald I §6)
        for lam, row in to_m_table(weight).items():
            for mu in enumerate_partitions(weight):
                assert row.get(mu, 0) == zero_one_matrices(tuple(lam), tuple(mu))

    @pytest.mark.parametrize("weight", range(0, 9))
    def test_power_sum_entries_count_block_maps(self, weight):
        # the coefficient of m_mu in p_lam is the number of maps from the
        # parts of lam to the parts of mu with matching block sums
        # (Macdonald I §6)
        for lam, row in to_m_table(weight, "power-sum").items():
            for mu in enumerate_partitions(weight):
                assert row.get(mu, 0) == block_maps(tuple(lam), tuple(mu))

    @pytest.mark.parametrize("weight", range(0, 13))
    def test_elementary_matrix_is_symmetric(self, weight):
        table = to_m_table(weight)
        for lam, row in table.items():
            for mu in table:
                assert row.get(mu, 0) == table[mu].get(lam, 0)

    @pytest.mark.parametrize("weight", range(0, 15))
    def test_triangular(self, weight):
        # e_lam' is m_lam plus lex-smaller terms, and p_lam is
        # prod mult! m_lam plus lex-larger terms.  The eliminations invert
        # these tables: the columns they give are triangular the same way,
        # and the tables take them back to m_lam.
        e_table, p_table = to_m_table(weight), to_m_table(weight, "power-sum")
        for lam in enumerate_partitions(weight):
            lead = math.prod(math.factorial(k) for k in Counter(lam).values())
            row = e_table[conjugate(lam)]
            assert row[lam] == 1 and all(mu < lam for mu in row if mu != lam)
            row = p_table[lam]
            assert row[lam] == lead and all(mu > lam for mu in row if mu != lam)
            e_col = convert(m(lam), "elementary").coeffs
            assert e_col[conjugate(lam)] == 1
            assert all(conjugate(nu) < lam for nu in e_col if nu != conjugate(lam))
            p_col = convert(m(lam), "power-sum").coeffs
            assert p_col[lam] == Fraction(1, lead) and all(mu > lam for mu in p_col if mu != lam)
            for col, table in ((e_col, e_table), (p_col, p_table)):
                back: dict = {}
                for nu, c in col.items():
                    for mu, v in table[nu].items():
                        back[mu] = back.get(mu, 0) + c * v
                assert {mu: v for mu, v in back.items() if v} == {lam: 1}


def clear_tables() -> None:
    """Empty the transition tables, so the next conversion builds its own."""
    for cached in (symfun._index, symfun._steps, symfun._row):
        cached.cache_clear()


def conversions(order) -> dict:
    """(modulus, target, lam) -> m_lam converted to the target basis, or
    the error it raised, for every lam of weight at most 9, taken in the
    given order of (modulus, target) pairs."""
    out = {}
    for modulus, target in order:
        for weight in range(10):
            for lam in enumerate_partitions(weight):
                try:
                    got = convert(m(lam, modulus=modulus), target).coeffs
                except ValueError as exc:
                    got = str(exc)
                out[modulus, target, lam] = got
    return out


class TestOnDemandTables:
    @pytest.mark.parametrize("modulus", [None, 3, 5, 7])
    def test_cold_one_part_monomial_is_newton_girard(self, modulus):
        # m_(n) = p_n = sum over lam of n of
        # (-1)^(n - len(lam)) n (len(lam) - 1)! / prod_i m_i(lam)!  e_lam
        # (Newton-Girard; Macdonald I §2), each weight n met with its
        # tables unbuilt
        clear_tables()
        for n in range(1, 19):
            want = {}
            for lam in enumerate_partitions(n):
                c = (-1) ** (n - len(lam)) * n * math.factorial(len(lam) - 1)
                c //= math.prod(math.factorial(k) for k in Counter(lam).values())
                want[lam] = c
            if modulus is not None:
                want = {lam: c % modulus for lam, c in want.items() if c % modulus}
            assert convert(m((n,), modulus=modulus), "elementary").coeffs == want

    def test_build_order_does_not_change_conversions(self):
        # the step tables and conjugates are filled as conversions read
        # them, so every order of first reads must give the same answers
        pairs = [(None, "elementary"), (None, "power-sum"), (5, "elementary"), (5, "power-sum")]
        clear_tables()
        want = conversions(pairs)
        for order in (pairs[::-1], [pairs[3], pairs[1], pairs[2], pairs[0]]):
            clear_tables()
            assert conversions(order) == want


def dominant_product(mu: tuple, basis: str, r: int) -> dict:
    """m_mu * e_r (or p_r) on its dominant monomials, from the expand_in_vars
    expansions of the two factors in len(mu) + r variables, enough for every
    term: the coefficient of x^nu, nu a partition, is the sum over the
    monomials x^b of the second factor of its coefficient times that of
    x^(nu - b) in the first."""
    k = len(mu) + r
    first = expand_in_vars(m(mu), k)
    second = expand_in_vars(SymFn.basis_element((r,), basis), k)
    out = {}
    for nu in enumerate_partitions(sum(mu) + r):
        if len(nu) > k:
            continue
        vec = tuple(nu) + (0,) * (k - len(nu))
        c = sum(cb * first.get(tuple(x - y for x, y in zip(vec, eb)), 0) for eb, cb in second.items())
        if c:
            out[nu] = c
    return out


class TestStepKernels:
    @given(
        st.integers(0, 8).flatmap(lambda w: st.sampled_from(enumerate_partitions(w))),
        st.sampled_from(["elementary", "power-sum"]),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_step_is_the_product_of_the_expansions(self, mu, basis, r):
        # each step entry, built cold, is m_mu * e_r or m_mu * p_r
        clear_tables()
        w = mu.weight
        entry = symfun._step(basis, w, symfun._index(w)[1][mu], r)
        positions = [k for k, _ in entry]
        assert len(set(positions)) == len(positions)
        got = {symfun._index(w + r)[0][k]: c for k, c in entry}
        assert got == dominant_product(tuple(mu), basis, r)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_power_sum_rows_in_any_order(self, order):
        # a p-row is pushed from lam without its largest part, so a row
        # read cold builds prefixes at weight w - lam_1; whichever rows
        # are read first, every row is the same
        lams = [lam for w in range(13) for lam in enumerate_partitions(w)]
        if order == "descending":
            lams.reverse()
        elif order == "shuffled":
            random.Random(12).shuffle(lams)
        clear_tables()
        rows = {lam: convert(p(lam), "monomial").coeffs for lam in lams}
        clear_tables()
        for w in range(13):
            for lam in enumerate_partitions(w):
                assert convert(p(lam), "monomial").coeffs == rows[lam]
        for w in range(7):
            for lam in enumerate_partitions(w):
                for mu in enumerate_partitions(w):
                    assert rows[lam].get(mu, 0) == block_maps(tuple(lam), tuple(mu))


class TestRowWords:
    # e_(1^w) = p_1^w is the sum of the multinomials w!/prod(lam_i!) m_lam,
    # and its row's largest coefficient is w!: 20! < 2**63 < 21!
    @pytest.mark.parametrize("w", [20, 21])
    def test_all_ones_row_is_the_multinomials(self, w):
        got = convert(e((1,) * w), "monomial").coeffs
        want = {lam: math.factorial(w) // math.prod(map(math.factorial, lam)) for lam in enumerate_partitions(w)}
        assert got == want

    def test_coefficients_are_machine_words_while_they_fit(self):
        # weight 20 keeps 64-bit words; the row of e_(1^21) carries 21!
        # and falls back to a tuple
        for w, kind in ((20, array), (21, tuple)):
            positions, coeffs = symfun._row("elementary", w, symfun._index(w)[1][(1,) * w])
            assert type(coeffs) is kind
            assert list(positions) == list(range(len(enumerate_partitions(w))))
            assert coeffs[0] == 1 and coeffs[-1] == math.factorial(w)
        # a short row keeps ints: e_(20) is m_(1^20)
        assert symfun._row("elementary", 20, symfun._index(20)[1][(20,)]) == (array("I", [626]), (1,))


@st.composite
def small_symfn(draw):
    basis = draw(st.sampled_from(BASES))
    support = draw(
        st.dictionaries(
            st.lists(st.integers(1, 4), max_size=3).map(Partition),
            st.integers(-5, 5).filter(bool),
            max_size=3,
        )
    )
    return SymFn(support, basis)


class TestConvertProperties:
    @given(small_symfn(), st.sampled_from(BASES))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, f, target):
        assert convert(convert(f, target), f.basis) == f

    @given(small_symfn(), small_symfn().map(lambda g: g))
    @settings(max_examples=40, deadline=None)
    def test_linear(self, f, g):
        g = SymFn(g.coeffs, f.basis)
        lhs = convert(f + g, "monomial")
        assert lhs == convert(f, "monomial") + convert(g, "monomial")


@st.composite
def symfn_up_to_weight_12(draw):
    modulus = draw(st.sampled_from([None, 3, 5, 7]))
    support = draw(
        st.dictionaries(
            st.integers(0, 12).flatmap(lambda w: st.sampled_from(enumerate_partitions(w))),
            st.builds(Fraction, st.integers(-40, 40).filter(bool), st.sampled_from([1, 1, 2, 4])),
            max_size=4,
        )
    )
    return SymFn(support, draw(st.sampled_from(BASES)), modulus)


class TestSymfnToBpoly:
    @given(symfn_up_to_weight_12())
    @settings(max_examples=80, deadline=None)
    def test_result_behaves_like_constructed_one(self, f):
        # the renaming builds its BPoly without the constructor's checks; it
        # must compare, hash, print and pickle as the constructor's would
        got = symfn_to_bpoly(f)
        terms = {tuple(Counter(lam).items()): c for lam, c in convert(f, "elementary").coeffs.items()}
        twin = BPoly(terms, f.modulus)
        assert got == twin and twin == got and repr(got) == repr(twin)
        for obj in (got, twin):
            with pytest.raises(TypeError):
                hash(obj)
        back = pickle.loads(pickle.dumps(got))
        assert type(back) is BPoly and back == twin and repr(back) == repr(twin)


class TestUToB:
    def test_examples(self):
        assert u_to_b((2,)).coeffs == {((1, 1),): 1}
        assert u_to_b((4,)).coeffs == {((1, 2),): 1, ((2, 1),): -2}
        assert u_to_b((4, 2)).coeffs == {((1, 1), (2, 1)): 1, ((3, 1),): -3}

    def test_empty_partition(self):
        assert u_to_b(()).coeffs == {(): 1}

    def test_parity_error(self):
        with pytest.raises(ValueError):
            u_to_b((3, 2))

    @pytest.mark.parametrize("weight", range(0, 13, 2))
    def test_round_trip_via_squared_variables(self, weight):
        # substituting b_s -> e_s(t1^2, ..., tk^2) must recover the monomial
        # symmetric function of the halved partition in squared variables
        for omega in enumerate_partitions(weight, "even"):
            k = max(weight // 2, 1)
            bp = u_to_b(omega)
            as_elementary = bpoly_to_symfn(bp)
            expansion = expand_in_vars(as_elementary, k)
            squared = {tuple(2 * x for x in exp): c for exp, c in expansion.items()}
            half = Partition(tuple(x // 2 for x in omega))
            want = expand_in_vars(SymFn({half: 1}), k)
            want = {tuple(2 * x for x in exp): c for exp, c in want.items()}
            assert squared == want

    def test_symfn_bpoly_renaming_round_trip(self):
        f = e((3, 1)) + e((2,)).scale(-4)
        assert bpoly_to_symfn(symfn_to_bpoly(f)) == f

    def test_renaming_by_run_length(self):
        for w in range(21):
            for lam in enumerate_partitions(w):
                assert symfun._epartition_to_bmono(lam) == tuple(sorted(Counter(lam).items())), lam


class TestDiagonal:
    def test_single_part(self):
        assert diagonal((2,)) == [
            (Partition(), Partition((2,))),
            (Partition((2,)), Partition()),
        ]

    def test_repeated_part(self):
        got = diagonal((2, 2))
        assert sorted(got) == sorted(
            [
                (Partition(), Partition((2, 2))),
                (Partition((2, 2)), Partition()),
                (Partition((2,)), Partition((2,))),
            ]
        )

    def test_distinct_parts_both_orders(self):
        got = diagonal((4, 2))
        assert sorted(got) == sorted(
            [
                (Partition(), Partition((4, 2))),
                (Partition((4, 2)), Partition()),
                (Partition((4,)), Partition((2,))),
                (Partition((2,)), Partition((4,))),
            ]
        )

    def test_every_pair_concatenates_back(self):
        for omega in enumerate_partitions(10, "even"):
            pairs = diagonal(omega)
            assert len(set(pairs)) == len(pairs)
            for left, right in pairs:
                assert left.concat(right) == omega

    @pytest.mark.parametrize("weight", range(0, 11, 2))
    def test_coassociative(self, weight):
        for omega in enumerate_partitions(weight, "even"):
            left_refined = {
                (a, b, right)
                for left, right in diagonal(omega)
                for a, b in diagonal(left)
            }
            right_refined = {
                (left, a, b)
                for left, right in diagonal(omega)
                for a, b in diagonal(right)
            }
            assert left_refined == right_refined


class TestZClasses:
    def test_mul_examples(self):
        z4 = ZClass.basis_element((4,), 3)
        z6 = ZClass.basis_element((6,), 3)
        assert z_mul(z4, z6).coeffs == {Partition((6, 4)): 1}
        assert z_mul(ZClass.basis_element((), 3), z4) == z4
        assert z_mul(z4, z4).coeffs == {Partition((4, 4)): 1}

    def test_pair_examples(self):
        z4 = ZClass.basis_element((4,), 3)
        assert pair(z4, (4,)) == 1
        assert pair(z4, (2, 2)) == 0
        both = z4 + ZClass.basis_element((4, 4), 3)
        assert pair(both, (4,)) == 1

    def test_ladic_support_rejected(self):
        with pytest.raises(ValueError):
            ZClass.basis_element((2,), 3)
        with pytest.raises(ValueError):
            ZClass.basis_element((8, 4), 3)

    def test_odd_support_rejected(self):
        with pytest.raises(ValueError):
            ZClass.basis_element((3,), 5)

    @pytest.mark.parametrize("ell", [3, 5])
    def test_duality_via_diagonal(self, ell):
        # the pairing of a product against a class equals the Kronecker rule
        # for concatenation, and the same value computed through all ordered
        # splittings of the class
        for w1 in range(0, 7, 2):
            for w2 in range(0, 7, 2):
                for om1 in enumerate_partitions(w1, "even-non-ladic", ell):
                    for om2 in enumerate_partitions(w2, "even-non-ladic", ell):
                        z1 = ZClass.basis_element(om1, ell)
                        z2 = ZClass.basis_element(om2, ell)
                        product = z_mul(z1, z2)
                        for omega in enumerate_partitions(w1 + w2, "even"):
                            want = 1 if om1.concat(om2) == omega else 0
                            assert pair(product, omega) == want
                            assert pair_through_diagonal(z1, z2, omega) == want


def _z6(ell: int) -> ZClass:
    # 6 is neither 3**i - 1 nor 5**i - 1
    return ZClass.basis_element((6,), ell)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SymFn({(1,): 1}) + SymFn({(1,): 1}, "power-sum"), "basis/modulus mismatch"),
            (lambda: expand_in_vars(SymFn({(1,): 1}), 0), "need at least one variable"),
            (lambda: convert(SymFn({(1,): 1}), "schur"), "unknown basis 'schur'"),
            (lambda: BPoly.one(3) + BPoly.one(5), "modulus mismatch"),
            (lambda: BPoly.one(3) * BPoly.one(), "modulus mismatch"),
            (lambda: diagonal((3,)), "(3,) is not an even partition"),
            (lambda: _z6(3) + _z6(5), "prime mismatch"),
            (lambda: z_mul(_z6(3), _z6(5)), "prime mismatch"),
            (lambda: pair_through_diagonal(_z6(3), _z6(5), (6, 6)), "prime mismatch"),
            (lambda: BPoly.one(5).reduce_mod(3), "modulus mismatch"),
            (lambda: u_to_b((3, 2), 4), "(3, 2) is not an even partition"),
            (lambda: u_to_b((4, 2), 9), "9 is not an odd prime"),
            (lambda: SymFn({(True, 2): 1}), "parts must be positive integers"),
            (lambda: BPoly({((True, 1),): 1}), "bad monomial"),
        ],
        ids=[
            "symfn-add", "no-variables", "convert", "bpoly-add", "bpoly-mul", "diagonal", "zclass-add", "z-mul",
            "pair", "reduce-mod", "u-to-b-odd", "u-to-b-modulus", "symfn-bool-part", "bpoly-bool-index",
        ],
    )
    def test_refused_with_its_message(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
