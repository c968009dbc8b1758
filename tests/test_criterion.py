from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import criterion
from cobcalc.criterion import (
    CandidateFamily,
    DegreeVerdict,
    aggregate_passed,
    global_criterion,
    mgl_criterion,
    msp_criterion,
    odd_primes_up_to,
    stong_family,
)
from cobcalc.valuation import is_odd_prime, nu


def required_valuation_mgl(d: int, ell: int) -> int:
    """The reference rule: 1 when d + 1 is a positive power of ell, else 0."""
    return int(d + 1 in [ell**k for k in range(1, (d + 1).bit_length() + 1)])


def required_valuation_msp(d: int, ell: int) -> int:
    """The reference rule: 1 when 2d + 1 is a positive power of ell, else 0."""
    return required_valuation_mgl(2 * d, ell)


def row_required(kind: str, d: int, ell: int) -> int:
    """The valuation that the criterion of kind requires at degree d, read
    from the last row of its verdict on a family of ones."""
    check = {"mgl": mgl_criterion, "msp": msp_criterion}[kind]
    return check(CandidateFamily(kind, dict.fromkeys(range(1, d + 1), 1)), ell, d).rows[-1].required


class TestRequiredValuations:
    def test_mgl(self):
        assert row_required("mgl", 2, 3) == 1
        assert row_required("mgl", 8, 3) == 1
        assert row_required("mgl", 1, 3) == 0
        assert row_required("mgl", 4, 5) == 1

    def test_msp(self):
        assert row_required("msp", 1, 3) == 1  # 2d = 2 = 3 - 1
        assert row_required("msp", 4, 3) == 1  # 2d = 8
        assert row_required("msp", 2, 3) == 0
        assert row_required("msp", 2, 5) == 1  # 2d = 4 = 5 - 1


class TestMglCriterion:
    def test_passing_example(self):
        fam = CandidateFamily("mgl", {1: 1, 2: 3})
        assert mgl_criterion(fam, 3, 2).passed

    def test_observed_zero_valuation_fails_at_exceptional_degree(self):
        fam = CandidateFamily("mgl", {1: 1, 2: 1})
        verdict = mgl_criterion(fam, 3, 2)
        assert not verdict.passed
        assert [r.d for r in verdict.failures()] == [2]

    def test_observed_two_fails(self):
        fam = CandidateFamily("mgl", {1: 1, 2: 9})
        verdict = mgl_criterion(fam, 3, 2)
        assert [(r.d, r.observed, r.required) for r in verdict.failures()] == [(2, 2, 1)]

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            mgl_criterion(CandidateFamily("msp", {1: 1}), 3, 1)


class TestMspCriterion:
    def test_construction_family_passes(self):
        fam = stong_family(3, 13)
        assert msp_criterion(fam, 3, 13).passed

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="expected an msp family"):
            msp_criterion(CandidateFamily("mgl", {1: 48}), 3, 1)

    def test_single_scaled_entry_fails_there(self):
        fam = stong_family(3, 13)
        scaled = fam.with_entry(1, fam.entries[1] * 3)
        verdict = msp_criterion(scaled, 3, 13)
        assert [r.d for r in verdict.failures()] == [1]
        assert verdict.failures()[0].observed == 2

    def test_all_ones_family_fails_at_d1(self):
        fam = CandidateFamily("msp", {d: 1 for d in range(1, 5)})
        verdict = msp_criterion(fam, 3, 4)
        assert not verdict.passed
        assert 1 in [r.d for r in verdict.failures()]

    def test_zero_entry_hard_failure(self):
        fam = CandidateFamily("msp", {1: 3, 2: 0})
        verdict = msp_criterion(fam, 3, 2)
        row = verdict.rows[1]
        assert not row.passed
        assert row.observed is None
        assert row.reason == "zero characteristic number"

    def test_missing_degrees_rejected(self):
        fam = CandidateFamily("msp", {1: 3, 3: 1})
        with pytest.raises(ValueError):
            msp_criterion(fam, 3, 3)

    @pytest.mark.parametrize(
        "entries, d_max, named",
        [
            ({1: 3, 3: 1}, 3, "2"),
            ({1: 9}, 1000, "2-1000"),
            ({2: 1, 5: 1, 6: 1}, 9, "1, 3-4, 7-9"),
        ],
    )
    def test_missing_degrees_are_named_as_runs(self, entries, d_max, named):
        with pytest.raises(ValueError) as exc:
            CandidateFamily("msp", entries).require_range(d_max)
        assert str(exc.value) == f"family is missing degrees {named}"

    def test_one_entry_family_is_refused_on_one_short_line(self, tmp_path, capsys):
        # verify-generators used to print every missing degree, about 5 KB
        from cobcalc import cli

        path = tmp_path / "family.json"
        path.write_text('{"kind": "msp", "entries": {"1": 9}}')
        argv = ["verify-generators", "--prime", "3", "--max-d", "1000", "--family", str(path)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: family is missing degrees 2-1000\n"

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_end_to_end_up_to_20(self, ell):
        fam = stong_family(ell, 20)
        assert msp_criterion(fam, ell, 20).passed
        for d in range(1, 21):
            perturbed = fam.with_entry(d, fam.entries[d] * ell)
            verdict = msp_criterion(perturbed, ell, 20)
            assert [r.d for r in verdict.failures()] == [d]

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_multiples_never_change_verdict(self, d, ell, unit):
        if unit % ell == 0:
            unit += 1
        fam = stong_family(ell, 12)
        scaled = fam.with_entry(d, fam.entries[d] * unit)
        assert msp_criterion(scaled, ell, 12).passed


class TestRequiredDegrees:
    @pytest.mark.parametrize("ell", [3, 5, 7, 13])
    def test_verdicts_require_what_the_degree_functions_do(self, ell):
        d_max = 200
        msp = msp_criterion(CandidateFamily("msp", {d: 1 for d in range(1, d_max + 1)}), ell, d_max)
        mgl = mgl_criterion(CandidateFamily("mgl", {d: 1 for d in range(1, d_max + 1)}), ell, d_max)
        assert [r.required for r in msp.rows] == [required_valuation_msp(d, ell) for d in range(1, d_max + 1)]
        assert [r.required for r in mgl.rows] == [required_valuation_mgl(d, ell) for d in range(1, d_max + 1)]
        powers = [ell**k for k in range(1, 6)]
        assert [r.d for r in mgl.rows if r.required] == [p - 1 for p in powers if p - 1 <= d_max]
        assert [r.d for r in msp.rows if r.required] == [(p - 1) // 2 for p in powers if p <= 2 * d_max + 1]

    def test_bad_prime_refused_before_any_row(self):
        fam = CandidateFamily("msp", {1: 3})
        for ell in (1, 0, -3, 9):
            with pytest.raises(ValueError, match="not an odd prime"):
                msp_criterion(fam, ell, 1)
            with pytest.raises(ValueError, match="not an odd prime"):
                mgl_criterion(CandidateFamily("mgl", {1: 3}), ell, 1)


class TestVerdictRows:
    @pytest.mark.parametrize(
        "kind, check, required",
        [("msp", msp_criterion, required_valuation_msp), ("mgl", mgl_criterion, required_valuation_mgl)],
    )
    @pytest.mark.parametrize("ell", [3, 5])
    def test_rows_equal_verdicts_built_one_by_one(self, kind, check, required, ell):
        d_max = 130
        # the exceptional degrees (at least three here) and the others each
        # cycle through a pass, a wrong valuation, a zero and another wrong one
        cycles = {1: [ell, 1, 0, ell**2], 0: [-1, -ell, 0, 5 * ell**3]}
        seen_so_far = {1: 0, 0: 0}
        entries = {}
        for d in range(1, d_max + 1):
            need = required(d, ell)
            entries[d] = cycles[need][seen_so_far[need] % 4]
            seen_so_far[need] += 1
        assert seen_so_far[1] >= 3
        rows = check(CandidateFamily(kind, entries), ell, d_max).rows
        expected = []
        for d in range(1, d_max + 1):
            need = required(d, ell)
            if entries[d] == 0:
                expected.append(DegreeVerdict(d, need, None, False, "zero characteristic number"))
                continue
            observed = nu(entries[d], ell)
            reason = "" if observed == need else f"valuation {observed}, required {need}"
            expected.append(DegreeVerdict(d, need, observed, observed == need, reason))
        assert len(rows) == len(expected) == d_max
        for row, want in zip(rows, expected):
            assert type(row) is DegreeVerdict
            for name in DegreeVerdict._fields:
                assert getattr(row, name) == getattr(want, name), (row, name)
            assert row == want and hash(row) == hash(want) and repr(row) == repr(want)
        cases = {(r.required, r.passed, r.observed is None) for r in rows}
        assert cases == {(need, passed, False) for need in (0, 1) for passed in (True, False)} | {
            (0, False, True), (1, False, True)
        }


class TestGlobalCriterion:
    def test_two_prime_pass(self):
        fam = CandidateFamily("msp", {1: 3, 2: 5, 3: 1, 4: 3, 5: 1, 6: 1})
        verdicts = global_criterion(fam, prime_bound=5, d_max=6)
        assert sorted(verdicts) == [3, 5]
        assert aggregate_passed(verdicts)

    def test_failure_located(self):
        fam = CandidateFamily("msp", {1: 3, 2: 1, 3: 1, 4: 3, 5: 1, 6: 1})
        verdicts = global_criterion(fam, prime_bound=5, d_max=6)
        assert verdicts[3].passed
        assert not verdicts[5].passed
        assert [r.d for r in verdicts[5].failures()] == [2]

    def test_excluded_primes_absent(self):
        fam = CandidateFamily("msp", {1: 15, 2: 5, 3: 1, 4: 1})
        verdicts = global_criterion(fam, prime_bound=7, d_max=4, excluded=(2, 3, 7))
        assert sorted(verdicts) == [5]

    def test_prime_list(self):
        assert odd_primes_up_to(13) == [3, 5, 7, 11, 13]
        assert odd_primes_up_to(13, excluded=(5, 11)) == [3, 7, 13]

    def test_sieve_equals_trial_division(self):
        # is_odd_prime decides by Miller-Rabin to the bases 2 and 3 below
        # psi_2 = 1 373 653, where those two bases admit no strong pseudoprime
        excluded = (2, 3, 7, 9, 97, 7919, -5)
        trial = [p for p in range(3, 10**4 + 1, 2) if is_odd_prime(p)]
        for skip in ((), excluded):
            kept = [p for p in trial if p not in skip]
            for bound in range(-1, 10**4 + 1):
                want = kept[: bisect_right(kept, bound)]
                if want:
                    assert odd_primes_up_to(bound, skip) == want, bound
                else:
                    with pytest.raises(ValueError, match=f"no odd prime up to {bound}"):
                        odd_primes_up_to(bound, skip)

    def test_empty_sweep_refused(self):
        fam = CandidateFamily("msp", {1: 15, 2: 5, 3: 1, 4: 1})
        with pytest.raises(ValueError, match="no odd prime up to 2"):
            global_criterion(fam, prime_bound=2, d_max=4)
        with pytest.raises(ValueError, match="no odd prime up to 7"):
            global_criterion(fam, prime_bound=7, d_max=4, excluded=(3, 5, 7))
        with pytest.raises(ValueError):
            odd_primes_up_to(1)

    def test_sweep_over_no_row_is_refused_before_the_sieve(self, monkeypatch):
        def no_sieve(*args):
            raise AssertionError("primes sought for a sweep over no row")

        monkeypatch.setattr(criterion, "odd_primes_up_to", no_sieve)
        fam = CandidateFamily("msp", {1: 15})
        for d_max in (0, -1):
            with pytest.raises(ValueError, match="d_max must be positive"):
                global_criterion(fam, prime_bound=10**10, d_max=d_max)

    def test_no_family_checks_each_prime_on_its_own_construction(self):
        own = {}  # (prime, d_max): the verdict on the prime's own construction
        for bound in range(32):
            for d_max in range(1, 13):
                if bound < 3:
                    with pytest.raises(ValueError, match=f"no odd prime up to {bound}"):
                        global_criterion(None, bound, d_max)
                    continue
                want = {}
                for ell in odd_primes_up_to(bound):
                    if (ell, d_max) not in own:
                        own[ell, d_max] = msp_criterion(stong_family(ell, d_max), ell, d_max)
                    want[ell] = own[ell, d_max]
                assert global_criterion(None, bound, d_max) == want, (bound, d_max)

    def test_a_given_family_is_applied_unchanged_at_every_prime(self, monkeypatch):
        fam = CandidateFamily("msp", {1: 3, 2: 5, 3: 1, 4: 3, 5: 1, 6: 1})
        seen = []

        def recording(f, ell, d_max):
            seen.append((f, ell, d_max))
            return msp_criterion(f, ell, d_max)

        def no_construction(*args):
            raise AssertionError("the construction built for a given family")

        monkeypatch.setattr(criterion, "msp_criterion", recording)
        monkeypatch.setattr(criterion, "stong_family", no_construction)
        verdicts = global_criterion(fam, prime_bound=13, d_max=6)
        assert [ell for _, ell, _ in seen] == list(verdicts) == [3, 5, 7, 11, 13]
        assert all(f is fam and d_max == 6 for f, _, d_max in seen)
        assert fam == CandidateFamily("msp", {1: 3, 2: 5, 3: 1, 4: 3, 5: 1, 6: 1})


class TestConsistencyAcrossGradings:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_msp_matches_mgl_under_reindexing(self, ell):
        # an msp family indexed by d sits in mgl degree 2d; odd mgl degrees
        # are never exceptional (prime powers minus one are even), so they
        # can be filled with units
        d_max = 10
        msp_fam = stong_family(ell, d_max)
        entries = {2 * d: v for d, v in msp_fam.entries.items()}
        for n in range(1, 2 * d_max + 1, 2):
            entries[n] = 1
        mgl_fam = CandidateFamily("mgl", entries)
        mgl_verdict = mgl_criterion(mgl_fam, ell, 2 * d_max)
        msp_verdict = msp_criterion(msp_fam, ell, d_max)
        mgl_by_degree = {r.d: r for r in mgl_verdict.rows}
        for row in msp_verdict.rows:
            twin = mgl_by_degree[2 * row.d]
            assert (row.required, row.observed, row.passed) == (
                twin.required,
                twin.observed,
                twin.passed,
            )
