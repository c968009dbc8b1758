import itertools
import math
import pickle
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import chow, stong, valuation
from cobcalc.chow import LineTerm, ProjProduct, VirtualBundle
from cobcalc.partitions import enumerate_partitions
from cobcalc.stong import (
    StongDatum,
    _check_expansion_work,
    build_X,
    congruence_check,
    exceptional_exponent,
    s_number,
    s_number_bruteforce,
    sign_exponent,
    signed_char_number,
    valuation_rows,
    valuation_table,
)
from cobcalc.valuation import is_odd_prime, ladic_digits, nu, nu_multinomial

from conftest import line_bundle


def closed_form_row(d: int, ell: int) -> StongDatum:
    """Oracle: one table row built on its own, from build_X, the multinomial
    closed form and the Legendre valuation of all its parts."""
    X = build_X(d, ell)
    return StongDatum(
        d=d,
        factors=X,
        s_number=s_number(X),
        valuation=nu_multinomial(X.total_dimension, X.dims, ell),
        expected=0 if exceptional_exponent(d, ell) is None else 1,
    )


def closed_form_table(ell: int, d_max: int) -> list[StongDatum]:
    return [closed_form_row(d, ell) for d in range(1, d_max + 1)]


class TestBuildX:
    def test_examples(self):
        assert build_X(1, 3) == ProjProduct((1, 1, 1, 1))
        assert build_X(2, 3) == ProjProduct((3, 3))
        assert build_X(4, 3) == ProjProduct((1, 3, 3, 3))

    def test_exceptional_vs_generic_split(self):
        assert exceptional_exponent(1, 3) == 1
        assert exceptional_exponent(4, 3) == 2
        assert exceptional_exponent(2, 3) is None
        assert exceptional_exponent(2, 5) == 1

    @pytest.mark.parametrize("ell", [3, 5, 7])
    @pytest.mark.parametrize("d", range(1, 31))
    def test_construction_invariants(self, d, ell):
        X = build_X(d, ell)
        assert X.total_dimension == 2 * d + 2
        assert all(n % 2 == 1 for n in X.dims)
        assert X.factor_count % 2 == 0

    def test_generic_matches_digits(self):
        for d in (2, 3, 5, 6, 7, 9):
            for ell in (3, 5):
                if exceptional_exponent(d, ell) is not None:
                    continue
                X = build_X(d, ell)
                digits = ladic_digits(2 * d + 2, ell).digits
                want = []
                for i, a in enumerate(digits):
                    want += [ell**i] * a
                assert X == ProjProduct(tuple(want))

    def test_rejects_d_zero(self):
        with pytest.raises(ValueError):
            build_X(0, 3)

    def test_tests_a_large_prime_once(self):
        # build_X checks its prime in four places; a table of rows on one
        # large prime should pay for one primality test
        is_odd_prime.cache_clear()
        assert build_X(5, 1000000000039) == ProjProduct((1,) * 12)
        info = is_odd_prime.cache_info()
        assert info.misses == 1 and info.maxsize is not None


class TestSNumber:
    def test_examples(self):
        assert s_number(ProjProduct((1, 1, 1, 1))) == -48
        assert s_number(ProjProduct((3, 3))) == -40
        assert s_number(ProjProduct((1, 3, 3, 3))) == -33600

    def test_parity_violations(self):
        with pytest.raises(ValueError):
            s_number(ProjProduct((2, 2)))  # even factor dimension
        with pytest.raises(ValueError):
            s_number(ProjProduct((1, 1, 1)))  # odd factor count

    def test_signed_number_refuses_d_zero_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("pricing or ring work before the d = 0 refusal")

        monkeypatch.setattr(stong, "_check_expansion_work", no_work)
        for name in ("InvariantSubring", "VirtualBundle", "tangent_bundle"):
            monkeypatch.setattr(chow, name, no_work)
        with pytest.raises(ValueError, match="needs d >= 1"):
            signed_char_number(ProjProduct((1, 1)))

    def test_bruteforce_examples(self):
        assert s_number_bruteforce(ProjProduct((1, 1, 1, 1))) == -48
        assert s_number_bruteforce(ProjProduct((3, 3))) == -40
        assert s_number_bruteforce(ProjProduct((1, 1))) == -4

    def test_expansion_work_limit(self, monkeypatch):
        # rank 256 x 4 factors in the full ring: above the old total-dimension
        # cap of 14, computed
        assert s_number_bruteforce(ProjProduct((7, 7, 1, 1))) == s_number(ProjProduct((7, 7, 1, 1)))
        # nothing the old cap admitted at its largest, 16, is refused
        for w in range(2, 17, 2):
            for dims in enumerate_partitions(w):
                if len(dims) % 2 == 0 and all(n % 2 for n in dims):
                    _check_expansion_work(ProjProduct(dims))
        # (1^5, 7^5), refused by the full-ring rule (rank 2**5 * 8**5 x 10
        # factors), has invariant rank C(6, 5) C(12, 5) = 4752 x 10 factors
        _check_expansion_work(build_X(19, 7))

        def no_ring_work(*args):
            raise AssertionError("ring work before the work check")

        for name in ("__init__", "push", "newton_class"):
            monkeypatch.setattr(chow.InvariantSubring, name, no_ring_work)
        # (1^2, 3^2, 9^2, 27^2): invariant rank 3 * 10 * 55 * 406 x 8 factors
        X = build_X(39, 3)
        assert X == ProjProduct((1, 1, 3, 3, 9, 9, 27, 27))
        for route in (s_number_bruteforce, signed_char_number):
            with pytest.raises(ValueError) as exc:
                route(X)
            message = str(exc.value)
            assert "predicted work 5359200" in message
            assert "invariant rank 669900 x 8 factors" in message
            assert f"above the limit {chow.MAX_WORK}" in message

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2**20), min_size=1, max_size=12))
    def test_invariant_rank_never_exceeds_the_ring_rank(self, dims):
        # so every space the full-ring rule (ring rank x factor count)
        # admitted is still admitted
        X = ProjProduct(tuple(dims))
        assert chow.invariant_rank(X) <= math.prod(n + 1 for n in dims)

    def test_one_large_factor_costs_linear_time_and_bounded_memory(self):
        # P^65535 x P^1 has no equal factors: 65536 steps of two orbits each,
        # whose keys are as wide as the full ring's, one field per factor
        X = ProjProduct((2**16 - 1, 1))
        start = time.process_time()
        assert s_number_bruteforce(X) == s_number(X)
        assert time.process_time() - start < 3.0
        # the push moves kept per group are bounded, so memory does not
        # grow with the C(n + a, a) parts of a group
        tracemalloc.start()
        try:
            s_number_bruteforce(ProjProduct((2**13 - 1, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_closed_form_equals_expansion_for_construction(self, ell):
        for d in range(1, 31):
            X = build_X(d, ell)
            s = s_number(X)
            assert s_number_bruteforce(X) == s, d
            assert signed_char_number(X) == (-1) ** (sign_exponent(X) + 1) * s, d

    def test_expansion_routes_use_no_closed_form(self, monkeypatch):
        def closed_form(*args):
            raise AssertionError("closed form in an expansion route")

        for name in ("multinomial", "s_number", "nu_factorial"):
            monkeypatch.setattr(stong, name, closed_form)
        monkeypatch.setattr(valuation, "multinomial", closed_form)
        for X in (build_X(19, 7), build_X(13, 3), ProjProduct((5, 3, 3, 1))):
            assert s_number_bruteforce(X) == -2 * _multinomial(X.dims)
            assert abs(signed_char_number(X)) == 2 * _multinomial(X.dims)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_full_ring_chern_number_is_a_third_route(self, ell, monkeypatch):
        # s_(2d)[Y] = deg(alpha^2 c_(2d)(T_X - 2 xi)) in the full ring, where
        # c_(2d) = m_(2d) of the Chern roots comes from cf_chern: neither the
        # invariant subring nor a multinomial enters
        def forbidden(*args):
            raise AssertionError("subring or multinomial in the full-ring route")

        numbers = {}
        with monkeypatch.context() as patch:
            patch.setattr(chow, "InvariantSubring", forbidden)
            for module in (stong, valuation):
                patch.setattr(module, "multinomial", forbidden)
            for d in range(1, 9):
                X = build_X(d, ell)
                ones = (1,) * X.factor_count
                v = chow.tangent_bundle(X) + (-line_bundle(X, ones)) + (-line_bundle(X, ones))
                numbers[d] = chow.deg(chow.alpha(X) ** 2 * chow.cf_chern(v, (2 * d,)))
        for d, number in numbers.items():
            assert number == s_number(build_X(d, ell)), d


def _multinomial(dims) -> int:
    out = math.factorial(sum(dims))
    for n in dims:
        out //= math.factorial(n)
    return out


class TestInvariantNewtonClass:
    @pytest.mark.parametrize(
        "dims", [(1, 1), (1, 1, 1, 1), (3, 1, 1, 1), (3, 3, 1, 1), (1, 3, 1, 3), (5, 3, 1, 1), (1,) * 6]
    )
    def test_equals_the_full_newton_class_term_by_term(self, dims):
        X = ProjProduct(dims)
        ring = chow.InvariantSubring(X)
        ones = (1,) * X.factor_count
        v = VirtualBundle(X, (LineTerm(1, ones), LineTerm(1, ones))) + (-chow.tangent_bundle(X))
        for n in range(1, X.total_dimension + 1):
            want: dict = {}
            for e, c in chow.newton_class(v, n).coeffs.items():
                assert want.setdefault(ring.orbit(e), c) == c
            assert ring.newton_class(v, n) == want, n

    def test_refuses_a_class_that_is_not_invariant(self):
        X = ProjProduct((1, 1, 3))
        ring = chow.InvariantSubring(X)
        with pytest.raises(ValueError, match="differ in sign"):
            ring.newton_class(line_bundle(X, (1, 0, 0)), 1)
        # twists constant on each group of equal factors are answered, and
        # equal the full ring's Newton class term by term
        for twist in ((1, 1, 0), (0, 0, 2)):
            v = line_bundle(X, twist)
            for n in range(1, X.total_dimension + 2):
                want: dict = {}
                for e, c in chow.newton_class(v, n).coeffs.items():
                    assert want.setdefault(ring.orbit(e), c) == c
                assert ring.newton_class(v, n) == want, (twist, n)
        assert ring.newton_class(line_bundle(X, (0, 0, 2)), 2) == {ring.orbit((0, 0, 2)): 4}
        assert ring.newton_class(line_bundle(X, (1, 1, 0)), 2) == {ring.orbit((1, 1, 0)): 2}
        with pytest.raises(ValueError, match="neither constant on each group"):
            ring.newton_class(line_bundle(X, (1, 2, 0)), 1)
        # a unit twist on a factor without an equal partner is invariant
        assert ring.newton_class(line_bundle(X, (0, 0, 1)), 2) == {ring.orbit((0, 0, 2)): 1}
        # opposite terms of any twist cancel before they are read
        v = line_bundle(X, (2, 0, 0)) + line_bundle(X, (2, 0, 0), sign=-1)
        assert ring.newton_class(v, 1) == {}

    @pytest.mark.parametrize("d, ell", [(3, 3), (2, 5), (4, 3)])
    def test_trivial_twist_takes_no_push(self, d, ell, monkeypatch):
        # build_X's normal bundle holds trivial twists, whose Newton class
        # is 0 for n >= 1; the signed number stays the same without them
        X = build_X(d, ell)
        want = signed_char_number(X)
        pushed = []
        push = chow.InvariantSubring.push

        def spy(self, cls, weights, k=1, times=1):
            pushed.append(dict(weights))
            return push(self, cls, weights, k, times)

        monkeypatch.setattr(chow.InvariantSubring, "push", spy)
        assert signed_char_number(X) == want
        assert pushed and all(any(w.values()) for w in pushed), pushed


class TestCongruence:
    def test_example_d2(self):
        assert congruence_check(2, 3) == (1, 1, True)

    def test_example_d3(self):
        assert congruence_check(3, 3) == (2, 2, True)

    def test_exceptional_rejected(self):
        with pytest.raises(ValueError):
            congruence_check(1, 3)
        with pytest.raises(ValueError):
            congruence_check(4, 3)

    def test_d_zero_is_refused(self):
        with pytest.raises(ValueError, match="d must be positive"):
            congruence_check(0, 3)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_generic_d_up_to_30(self, ell):
        for d in range(1, 31):
            if exceptional_exponent(d, ell) is not None:
                continue
            lhs, rhs, equal = congruence_check(d, ell)
            assert equal
            # digits are below the prime, so the right side is a unit
            assert rhs != 0


def tangent_term(X: ProjProduct) -> int:
    """Oracle: sum over factors of (n_i + 1) deg(a_i**(2d) alpha^2).  A
    nonzero a_i**(2d) leaves the exponents e, n_i - 2d on factor i and n_j
    on the others, which sum to 2; their coefficient in alpha^2 is
    2 / prod(e_j!)."""
    two_d = X.total_dimension - 2
    t = 0
    for i, n in enumerate(X.dims):
        if n >= two_d:
            e = X.dims[:i] + (n - two_d,) + X.dims[i + 1 :]
            t += (n + 1) * 2 // math.prod(map(math.factorial, e))
    return t


class TestSignedCharNumber:
    def test_example_p1_four(self):
        assert signed_char_number(ProjProduct((1, 1, 1, 1))) == -48

    def test_sign_exponent(self):
        assert sign_exponent(ProjProduct((1, 1, 1, 1))) == 5
        assert sign_exponent(ProjProduct((3, 3))) == 1 + 2 + 2

    def test_identity_path(self):
        # the direct truncated-ring computation must match the closed form
        # with the twist sign
        for dims in [(1, 1), (1, 1, 1, 1), (3, 3), (3, 1, 1, 1), (5, 3, 1, 1), (3, 3, 3, 3)]:
            X = ProjProduct(dims)
            if X.total_dimension - 2 < 1:
                continue
            want = (-1) ** (sign_exponent(X) + 1) * s_number(X)
            assert signed_char_number(X) == want

    def test_example_p3_squared(self):
        assert abs(signed_char_number(ProjProduct((3, 3)))) == 40

    def test_identity_with_the_tangent_term(self):
        # Newton classes add: (-1)**n_Y signed = -s_number - t, and t is 0
        # except on P^(2d+1) x P^1, the one space with a factor of dimension
        # >= 2d, where it cancels -s_number
        spaces = [
            ProjProduct(dims)
            for w in range(4, 17, 2)
            for dims in enumerate_partitions(w)
            if len(dims) % 2 == 0 and all(n % 2 for n in dims)
        ]
        assert len(spaces) == 91
        for X in spaces:
            sign = (-1) ** (sign_exponent(X) + 1)
            got = signed_char_number(X)
            assert got == sign * (s_number(X) + tangent_term(X)), X
            beside_a_line = X.factor_count == 2 and X.dims[1] == 1
            assert (got == sign * s_number(X)) != beside_a_line, X

    @pytest.mark.parametrize("k", [3, 99, 9999])
    def test_zero_beside_a_line(self, k):
        X = ProjProduct((k, 1))
        assert signed_char_number(X) == 0
        assert s_number(X) == -2 * (k + 1)
        assert tangent_term(X) == 2 * (k + 1)

    @pytest.mark.parametrize("ell", [3, 5])
    def test_valuation_invariance(self, ell):
        for dims in [(1, 1, 1, 1), (3, 3), (3, 1, 1, 1)]:
            X = ProjProduct(dims)
            assert nu(abs(signed_char_number(X)), ell) == nu(abs(s_number(X)), ell)


class TestValuationTable:
    def test_single_row(self):
        rows = valuation_table(3, 1)
        assert len(rows) == 1
        row = rows[0]
        assert row.d == 1
        assert row.factors == ProjProduct((1, 1, 1, 1))
        assert row.s_number == -48
        assert row.valuation == 1
        assert row.expected == 1
        assert row.matches

    def test_d2_row(self):
        row = valuation_table(3, 2)[1]
        assert row.s_number == -40
        assert row.valuation == 0

    def test_prime_5_exceptional(self):
        row = valuation_table(5, 2)[1]
        assert row.factors == ProjProduct((1, 1, 1, 1, 1, 1))
        assert row.s_number == -1440
        assert row.valuation == 1

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_dichotomy_up_to_30(self, ell):
        for row in valuation_table(ell, 30):
            want = 1 if exceptional_exponent(row.d, ell) is not None else 0
            assert row.valuation == want
            assert row.expected == want
            assert row.matches

    def test_valuation_matches_direct_nu(self):
        for row in valuation_table(3, 12):
            assert row.valuation == nu(abs(row.s_number), 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_valuation_is_one_exactly_when_2d_plus_1_is_a_power_of_the_prime(self, data):
        # the dichotomy the stong docstring proves by Legendre, for d <= 10**4
        # and odd primes below 10**6, near the exceptional degrees too
        primes = st.one_of(st.sampled_from([3, 5, 7, 11, 13, 101]), st.integers(3, 999983))
        ell = data.draw(primes.map(lambda x: next(p for p in itertools.count(x) if is_odd_prime(p))))
        exceptional = [(ell**r - 1) // 2 for r in range(1, 10) if ell**r <= 2 * 10**4 + 1]
        near = st.sampled_from(exceptional).flatmap(lambda d: st.integers(max(d - 1, 1), d + 1))
        d = data.draw(st.one_of(st.integers(1, 10**4), near) if exceptional else st.integers(1, 10**4))
        power = 1
        while power < 2 * d + 1:
            power *= ell
        want = int(power == 2 * d + 1)
        assert nu(s_number(build_X(d, ell)), ell) == want
        row = next(itertools.islice(valuation_rows(ell, d), d - 1, None))
        assert (row.d, row.valuation, row.expected) == (d, want, want)

    @pytest.mark.parametrize("ell, d_max", [(3, 1000), (5, 1000), (7, 1000), (11, 1000), (13, 1000), (1000003, 300)])
    def test_recurrence_equals_closed_form(self, ell, d_max):
        # 1000003: every factor is P^1 and no digit carries
        rows = valuation_table(ell, d_max)
        assert rows == closed_form_table(ell, d_max)
        # n_Y: 1 plus half of 2d + 2 (the factor dimensions' sum) plus the factor count
        assert all(sign_exponent(r.factors) == 1 + (2 * r.d + 2 + r.factors.factor_count) // 2 for r in rows)

    def test_carries_into_high_digits_at_prime_3(self):
        # the largest table snumbers prints at 3; a carry into digit 5 or
        # above, where 2d + 2 = 0 or 1 mod 3**5, divides by a large G_i
        rows = valuation_table(3, 3206)
        assert [r.d for r in rows] == list(range(1, 3207))
        checked = [r for r in rows if (2 * r.d + 2) % 3**5 < 2] + [rows[-1]]
        assert len(checked) == 27
        for row in checked:
            assert row == closed_form_row(row.d, 3)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_tables_ending_at_the_edges(self, ell):
        d_maxes = {1, 2}
        for r in range(1, 6):
            d = (ell**r - 1) // 2
            if d <= 200:
                d_maxes |= {d - 1, d, d + 1, d + 2} - {0}
        for d_max in sorted(d_maxes):
            assert valuation_table(ell, d_max) == closed_form_table(ell, d_max), d_max

    @pytest.mark.parametrize("ell, d_top", [(3, 200), (5, 200), (7, 200), (11, 200), (13, 200), (1000003, 40)])
    def test_tables_cut_at_any_d_max_agree(self, ell, d_top):
        # a table that ends inside a run of rows ends where it should
        full = valuation_table(ell, d_top)
        for d_max in range(1, d_top + 1):
            assert valuation_table(ell, d_max) == full[:d_max], d_max

    @settings(max_examples=40, deadline=None)
    @given(ell=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]), d_max=st.integers(1, 200))
    def test_recurrence_equals_closed_form_fuzz(self, ell, d_max):
        assert valuation_table(ell, d_max) == closed_form_table(ell, d_max)

    @pytest.mark.parametrize("ell", [3, 11, 1000003])
    def test_rows_are_made_as_they_are_asked_for(self, ell):
        # the first rows of an endless table cost only themselves
        start = time.process_time()
        rows = list(itertools.islice(valuation_rows(ell, 10**12), 300))
        assert time.process_time() - start < 0.1
        assert rows == valuation_table(ell, 300)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="d_max must be positive"):
            valuation_table(3, 0)
        with pytest.raises(ValueError, match="not an odd prime"):
            valuation_table(9, 5)


class TestTableRecords:
    @pytest.mark.parametrize("ell", [3, 5, 7, 13, 1000003])
    def test_rows_behave_like_constructed_ones(self, ell):
        # the table builds its rows from the digit walk; rows and spaces
        # must hash, compare, print and pickle as the constructors' do
        for row in valuation_table(ell, 40):
            twin = closed_form_row(row.d, ell)
            assert row == twin and hash(row) == hash(twin) and repr(row) == repr(twin)
            assert hash(row.factors) == hash(twin.factors)
            for obj in (row, row.factors):
                back = pickle.loads(pickle.dumps(obj))
                assert type(back) is type(obj) and back == obj and hash(back) == hash(obj)
        assert len({*valuation_table(ell, 40), *closed_form_table(ell, 40)}) == 40


