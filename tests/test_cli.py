import contextlib
import gc
import importlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobcalc import _cmd_chow, _cmd_counting, _cmd_stong, _cmd_symfun, chow, cli, criterion, stong
from cobcalc.criterion import CandidateFamily, stong_family
from cobcalc.symfun import BPoly

SRC = Path(__file__).resolve().parent.parent / "src"
UNIT = {"op": "pow", "base": "alpha", "n": 0}
BIG = 10**400


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, stdin=None):
    """The command line argv in a separate process, so a hang fails by
    timeout."""
    return subprocess.run(
        [sys.executable, "-m", "cobcalc.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def run_chow_process(payload):
    """`chow` on payload (an object, or JSON text) in a separate process."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    return run_process("chow", "--input", "-", stdin=text)


class TestSnumbers:
    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "snumbers", "--prime", "3", "--max-d", "4")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        first = rows[0]
        assert first == {
            "d": 1,
            "factors": [1, 1, 1, 1],
            "s": "-48",
            "nu": 1,
            "expected": 1,
            "match": True,
        }

    def test_markdown_and_csv(self, capsys):
        code, out, _ = run(capsys, "snumbers", "--prime", "3", "--max-d", "2", "--format", "md")
        assert code == 0
        assert out.splitlines()[0].startswith("| d | factors | s |")
        code, out, _ = run(capsys, "snumbers", "--prime", "3", "--max-d", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "d,factors,s,nu,expected,match"
        assert out.splitlines()[1] == "1,1x1x1x1,-48,1,1,true"

    def test_big_integers_as_decimal_strings(self, capsys):
        _, out, _ = run(capsys, "snumbers", "--prime", "3", "--max-d", "25")
        rows = json.loads(out)
        for row in rows:
            assert isinstance(row["s"], str)
            int(row["s"])

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "snumbers", "--prime", "5", "--max-d", "6")
        _, out2, _ = run(capsys, "snumbers", "--prime", "5", "--max-d", "6")
        assert out1 == out2

    @pytest.mark.parametrize(
        "prime, max_d, first_d",
        [("3", 10**12, 3207), ("3", 3207, 3207), ("11", 2700, 2577), ("1000003", 10**12, 779)],
    )
    def test_unprintable_rows_are_refused_at_once(self, prime, max_d, first_d):
        done = run_process("snumbers", "--prime", prime, "--max-d", str(max_d))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"error: --max-d {max_d}: row d = {first_d} would print over 4300 digits\n"
        )

    @pytest.mark.parametrize(
        "prime, max_d, message", [("9", "5", "9 is not an odd prime"), ("3", "0", "d_max must be positive")]
    )
    def test_bad_prime_or_row_count_is_usage_error(self, capsys, prime, max_d, message):
        code, out, err = run(capsys, "snumbers", "--prime", prime, "--max-d", max_d)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_refusal_prints_nothing_and_renders_no_row(self, capsys):
        # the rows up to the refused one are made, none is rendered: a
        # table rendered as it goes takes about 0.25 s to reach d = 3207.
        # The collector is off while it runs, as a full collection of the
        # test session's heap costs more than the command itself
        gc.disable()
        try:
            start = time.process_time()
            code, out, err = run(capsys, "snumbers", "--prime", "3", "--max-d", "3207")
            elapsed = time.process_time() - start
        finally:
            gc.enable()
        assert elapsed < 0.1
        assert code == 2 and out == ""
        assert err == "error: --max-d 3207: row d = 3207 would print over 4300 digits\n"

    def test_each_row_space_is_built_once(self, capsys):
        built, build = [], chow.ProjProduct._trusted

        def counting(dims):
            built.append(dims)
            return build(dims)

        with mock.patch.object(chow.ProjProduct, "_trusted", counting):
            code, out, _ = run(capsys, "snumbers", "--prime", "5", "--max-d", "40")
        assert code == 0
        assert built == [tuple(row["factors"]) for row in json.loads(out)]

    def test_last_accepted_row_prints_4300_digits(self):
        # the row before the first refused one at l = 3 is printable
        assert len(str(abs(stong.s_number(stong.build_X(3206, 3))))) == 4300

    def test_rows_round_trip_as_family(self, capsys):
        _, out, _ = run(capsys, "snumbers", "--prime", "3", "--max-d", "8")
        fam = _cmd_stong.family_from_snumbers_rows(json.loads(out))
        assert fam == stong_family(3, 8)


def family_to_json(fam: CandidateFamily) -> dict:
    """The JSON form of a family that `verify-generators --family` reads."""
    return {"kind": fam.kind, "entries": {str(d): str(fam.entries[d]) for d in sorted(fam.entries)}}


class TestVerifyGenerators:
    def test_default_family_passes(self, capsys):
        code, out, _ = run(capsys, "verify-generators", "--prime", "3", "--max-d", "4")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert [r["d"] for r in report["rows"]] == [1, 2, 3, 4]

    def test_family_file(self, capsys, tmp_path):
        fam = CandidateFamily("msp", {1: 6, 2: 1})
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family_to_json(fam)))
        code, out, _ = run(
            capsys, "verify-generators", "--prime", "3", "--max-d", "2", "--family", str(path)
        )
        assert code == 0
        fam_bad = fam.with_entry(1, 9)
        path.write_text(json.dumps(family_to_json(fam_bad)))
        code, out, _ = run(
            capsys, "verify-generators", "--prime", "3", "--max-d", "2", "--family", str(path)
        )
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["rows"][0]["reason"] == "valuation 2, required 1"

    def test_all_primes(self, capsys, tmp_path):
        fam = CandidateFamily("msp", {1: 3, 2: 5, 3: 1, 4: 3, 5: 1, 6: 1})
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family_to_json(fam)))
        code, out, _ = run(
            capsys,
            "verify-generators",
            "--all-primes-up-to",
            "5",
            "--max-d",
            "6",
            "--family",
            str(path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["primes"] == [3, 5]
        assert report["pass"] is True

    def test_all_primes_default_construction(self, capsys):
        code, out, _ = run(
            capsys, "verify-generators", "--all-primes-up-to", "7", "--max-d", "6"
        )
        assert code == 0
        assert json.loads(out)["primes"] == [3, 5, 7]

    @pytest.mark.parametrize(
        "payload",
        [
            [{"kind": "msp", "entries": {"1": "48"}}],
            {"kind": "msp", "entries": [48]},
            {"kind": "msp", "entries": {"1": None}},
            # numbers are ASCII digits, as everywhere else on the command line
            {"kind": "msp", "entries": {"1": "4_0"}},
            {"kind": "msp", "entries": {"1": "\u0664\u0668"}},
            {"kind": "msp", "entries": {"1": " 48"}},
            {"kind": "msp", "entries": {"1": "+48"}},
            {"kind": "msp", "entries": {"1": 48.0}},
            {"kind": "msp", "entries": {"\u0661": "48"}},
            {"kind": "msp", "entries": {"1_0": "48"}},
        ],
    )
    def test_malformed_family_is_usage_error(self, capsys, tmp_path, payload):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(
            capsys, "verify-generators", "--prime", "3", "--max-d", "1", "--family", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_degree_given_twice_is_usage_error(self, capsys, tmp_path):
        # "01" is degree 1 again, and neither spelling may silently win
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "msp", "entries": {"1": "48", "01": "7"}}))
        code, out, err = run(
            capsys, "verify-generators", "--prime", "3", "--max-d", "1", "--family", str(path)
        )
        assert (code, out, err) == (2, "", "error: family gives degree 1 twice\n")

    def test_family_entries_may_be_signed_or_json_integers(self):
        fam = _cmd_stong.family_from_json({"kind": "msp", "entries": {"1": "-48", "02": 40}})
        assert fam == CandidateFamily("msp", {1: -48, 2: 40})

    def test_family_without_kind_is_named(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"entries": {"1": "48"}}))
        code, out, err = run(
            capsys, "verify-generators", "--prime", "3", "--max-d", "1", "--family", str(path)
        )
        assert (code, out, err) == (2, "", 'error: family has no "kind"\n')

    def test_mgl_family_is_refused(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "mgl", "entries": {"1": "48"}}))
        code, out, err = run(
            capsys, "verify-generators", "--prime", "3", "--max-d", "1", "--family", str(path)
        )
        assert (code, out, err) == (2, "", "error: expected an msp family\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--all-primes-up-to", "2", "--max-d", "4"],
            ["--all-primes-up-to", "2", "--max-d", "4", "--family", "FAMILY"],
            ["--all-primes-up-to", "7", "--max-d", "4", "--exclude", "3", "5", "7"],
            ["--all-primes-up-to", "7", "--max-d", "4", "--family", "FAMILY", "--exclude", "3", "5", "7"],
        ],
    )
    def test_empty_prime_sweep_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family_to_json(stong_family(3, 4))))
        argv = [str(path) if a == "FAMILY" else a for a in argv]
        code, out, err = run(capsys, "verify-generators", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: no odd prime up to ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "bound, max_d, code",
        [("69", "300", 0), ("70", "300", 2), ("862", "100", None), ("863", "100", 2)],
    )
    def test_sweep_work_limit(self, capsys, bound, max_d, code):
        # the 168 primes up to 862 over d <= 100 take about 2 s: that side is
        # checked by the rule alone
        if code is None:
            criterion.check_sweep_work(int(bound), int(max_d))
            return
        got, out, err = run(
            capsys, "verify-generators", "--all-primes-up-to", bound, "--max-d", max_d
        )
        assert got == code
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith(f"error: a sweep of the primes up to {bound} ")
        else:
            assert len(json.loads(out)["primes"]) == 18

    @pytest.mark.parametrize("prime", ["3", "1000003"])
    def test_one_prime_sweep_work_limit(self, capsys, prime):
        # 20 + d(d + 25)/2 units at d = 1252 are within the limit (about
        # 2.5 s at 1000003, so checked by the rule alone), at 1253 above it
        criterion.check_sweep_work(int(prime), 1252, primes=1)
        with mock.patch.object(criterion, "msp_criterion") as msp_criterion:
            code, out, err = run(capsys, "verify-generators", "--prime", prime, "--max-d", "1253")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: a sweep of 1 prime(s) up to {prime} over d <= 1253 ")
        msp_criterion.assert_not_called()

    def test_sweep_limit_refuses_before_seeking_primes(self, capsys):
        # the primes come from a sieve of one byte per number up to the bound
        with mock.patch.object(criterion, "odd_primes_up_to") as odd_primes_up_to:
            code, out, _ = run(
                capsys, "verify-generators", "--all-primes-up-to", str(BIG), "--max-d", "1"
            )
        assert code == 2 and out == ""
        odd_primes_up_to.assert_not_called()

    @pytest.mark.parametrize("max_d", ["0", "-3"])
    def test_no_row_is_refused_before_seeking_primes(self, capsys, max_d):
        # the sieve would take one byte per number up to 10**10
        with mock.patch.object(criterion, "odd_primes_up_to") as odd_primes_up_to:
            code, out, err = run(
                capsys, "verify-generators", "--all-primes-up-to", str(10**10), "--max-d", max_d
            )
        assert code == 2 and out == ""
        assert err == "error: d_max must be positive\n"
        odd_primes_up_to.assert_not_called()

    def test_zero_prime_bound_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify-generators", "--all-primes-up-to", "0", "--max-d", "3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: no odd prime up to 0 ")

    def test_family_round_trip(self):
        fam = stong_family(5, 9)
        assert _cmd_stong.family_from_json(family_to_json(fam)) == fam

    @pytest.mark.parametrize("exclude", [["3"], ["2"], []])
    def test_exclude_with_one_prime_is_usage_error(self, capsys, exclude):
        argv = ["verify-generators", "--prime", "3", "--max-d", "2", "--exclude", *exclude]
        assert run(capsys, *argv) == (2, "", "error: --exclude applies only to --all-primes-up-to\n")

    def test_exclude_with_one_prime_exits_2_as_a_command(self):
        done = run_process("verify-generators", "--prime", "3", "--max-d", "2", "--exclude", "3")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: --exclude applies only to --all-primes-up-to\n"

    def test_sweep_excludes_2_by_default(self, capsys):
        argv = ["verify-generators", "--all-primes-up-to", "7", "--max-d", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["excluded"] == [2]
        assert run(capsys, *argv, "--exclude", "2") == (0, out, "")

    def test_sweep_lists_each_excluded_prime_once(self, capsys):
        argv = ["verify-generators", "--all-primes-up-to", "7", "--max-d", "2", "--exclude"]
        code, out, _ = run(capsys, *argv, "5", "3", "3")
        assert code == 0 and json.loads(out)["excluded"] == [3, 5]
        assert run(capsys, *argv, "3", "5") == (0, out, "")


def bpoly_from_json(rows: list, modulus: int | None = None) -> BPoly:
    """A b-polynomial read back from its JSON rows; equal monomials sum."""
    coeffs = {}
    for row in rows:
        mono = tuple(sorted((int(i), int(k)) for i, k in row["exponents"].items()))
        coeffs[mono] = coeffs.get(mono, 0) + int(row["coeff"])
    return BPoly(coeffs, modulus)


class TestSteenrodCommand:
    def test_anchor_value(self, capsys):
        code, out, _ = run(capsys, "steenrod", "--prime", "3", "--op", "P2", "--class", "b1")
        assert code == 0
        got = bpoly_from_json(json.loads(out), 3)
        assert got == BPoly({((1, 3),): 2, ((1, 1), (2, 1)): 1}, 3)

    def test_monomial_parsing(self, capsys):
        code, out, _ = run(
            capsys, "steenrod", "--prime", "3", "--op", "P0", "--class", "b1^2*b2"
        )
        assert code == 0
        got = bpoly_from_json(json.loads(out), 3)
        assert got == BPoly({((1, 2), (2, 1)): 1}, 3)

    def test_untwisted_flag(self, capsys):
        code, out, _ = run(
            capsys, "steenrod", "--prime", "3", "--op", "P2", "--class", "b1", "--untwisted"
        )
        assert code == 0
        got = bpoly_from_json(json.loads(out), 3)
        assert got == BPoly({((1, 3),): 1}, 3)

    def test_bad_class_is_usage_error(self, capsys):
        code, _, err = run(capsys, "steenrod", "--prime", "3", "--op", "P2", "--class", "q7")
        assert code == 2
        assert "error" in err

    def test_unknown_operation_is_named(self, capsys):
        assert run(capsys, "steenrod", "--prime", "3", "--op", "Q2", "--class", "b1") == (
            2,
            "",
            "error: cannot parse operation 'Q2', expected like P2\n",
        )

    @pytest.mark.parametrize(
        "prime, op, cls, weight", [("3", "P100", "b1", 100), ("7", "P4", "b30", 42)]
    )
    def test_conversion_cap_names_the_operation(self, capsys, prime, op, cls, weight):
        # checked before any piece is built: the heaviest piece, converted or
        # closed-form, weighs j + min(j, i//2)(ell-1) for b_j, or
        # (i//2)(ell-1) for the twist
        code, out, err = run(capsys, "steenrod", "--prime", prime, "--op", op, "--class", cls)
        assert code == 2 and out == ""
        assert err == (
            f"error: {op} at prime {prime} needs a conversion of weight {weight}, "
            "above the cap 40\n"
        )

    def test_untwisted_above_the_weight_is_zero_before_any_conversion(self, capsys):
        # P62 on b30 would need a conversion of weight 90, but instability
        # answers first
        code, out, err = run(
            capsys, "steenrod", "--untwisted", "--prime", "3", "--op", "P62", "--class", "b30"
        )
        assert (code, json.loads(out), err) == (0, [], "")

    @pytest.mark.parametrize(
        "cls, code, err",
        [("b31", 2, "error: weight 62 exceeds cap 60\n"), ("b1^30", 0, "")],
        ids=["b31", "b1^30"],
    )
    def test_class_weight_cap(self, capsys, cls, code, err):
        got = run(capsys, "steenrod", "--prime", "3", "--op", "P2", "--class", cls)
        assert (got[0], got[2]) == (code, err)
        assert (got[1] == "") == bool(code)

    def test_bpoly_json_round_trip(self):
        p = BPoly({((1, 2), (3, 1)): 2, ((2, 1),): 1}, 5)
        assert bpoly_from_json(_cmd_symfun.bpoly_to_json(p), 5) == p

    @pytest.mark.parametrize(
        "cls, factor", [("b\u0663", "b\u0663"), ("b1^\u0663", "b1^\u0663"), ("\u0663*b1", "\u0663")]
    )
    def test_only_ascii_digits_parse(self, capsys, cls, factor):
        # int() reads the Arabic-Indic three as 3; the parser must not
        code, out, err = run(capsys, "steenrod", "--prime", "3", "--op", "P1", "--class", cls)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse factor {factor!r}\n"


# factors with small indices and exponents, so that many classes parse and
# reach the power operation or its weight cap, mixed with near misses
b_factors = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("b{}".format, st.integers(0, 31)),
    st.builds("b{}^{}".format, st.integers(0, 31), st.integers(0, 31)),
    st.text(alphabet="b^*-+0123456789\u0663\uff11 ", max_size=6),
)
b_classes = st.one_of(st.text(), st.lists(b_factors, max_size=4).map("*".join))


class TestSteenrodFuzz:
    @settings(max_examples=200, deadline=None)
    @given(text=b_classes)
    def test_exit_code_and_one_error_line(self, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["steenrod", "--prime", "3", "--op", "P1", "--class", text])
            except SystemExit as exc:
                # argparse reads text like "-x" as an option: usage, then its error line
                assert exc.code == 2 and out.getvalue() == ""
                assert [line for line in err.getvalue().splitlines() if "error:" in line] == [
                    "cobcalc steenrod: error: argument --class: expected one argument"
                ]
                return
        if code == 0:
            assert err.getvalue() == "" and isinstance(json.loads(out.getvalue()), list)
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


class TestDecompAndRanks:
    def test_decomp_check(self, capsys):
        code, out, _ = run(capsys, "decomp-check", "--prime", "3", "--max-weight", "20")
        assert code == 0
        rows = json.loads(out)
        assert all(r["equal"] for r in rows)
        assert rows[-1]["weight"] == 20

    def test_ranks(self, capsys):
        code, out, _ = run(capsys, "ranks", "--max-d", "8")
        assert code == 0
        rows = json.loads(out)
        assert [r["rank"] for r in rows][:5] == [1, 2, 3, 5, 7]
        assert all(r["equal"] for r in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decomp-check", "--prime", "3", "--max-weight", "4001"],
            ["decomp-check", "--prime", "3", "--max-weight", "-2"],
            ["ranks", "--max-d", "0"],
            ["ranks", "--max-d", "-5"],
            ["ranks", "--max-d", "5001"],
            ["ranks", "--max-d", "10000000000"],
            # p(60) = 966467 and p(46) = 105558, above the listing limit
            ["partition-tools", "--weight", "60"],
            ["partition-tools", "--weight", "92", "--predicate", "even"],
            # the prime is checked whatever the weight's parity
            ["partition-tools", "--weight", "4", "--predicate", "even-non-ladic", "--prime", "4"],
            ["partition-tools", "--weight", "5", "--predicate", "even-non-ladic", "--prime", "4"],
            ["partition-tools", "--weight", "1", "--predicate", "even-non-ladic", "--prime", "9"],
            ["partition-tools", "--weight", "0", "--predicate", "even-non-ladic", "--prime", "2"],
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_large_prime(self, capsys):
        # trial division did not finish on this prime in 15 s
        start = time.process_time()
        code, out, _ = run(capsys, "ranks", "--max-d", "1", "--prime", "1000000000000000003")
        assert code == 0 and json.loads(out)[0]["equal"]
        assert time.process_time() - start < 1.0

    def test_prime_beyond_the_primality_test_is_refused(self, capsys):
        code, out, err = run(capsys, "ranks", "--max-d", "1", "--prime", "3317044064679887385961981")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: 3317044064679887385961981 is too large")


def _cell(value) -> str:
    """A report value as the md and csv tables print it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "x".join(map(str, value))
    return str(value)


TABLE_COMMANDS = {
    "snumbers": ["snumbers", "--prime", "3", "--max-d", "9"],
    "decomp-check": ["decomp-check", "--prime", "5", "--max-weight", "16"],
    "ranks": ["ranks", "--max-d", "7", "--prime", "5"],
}


class TestTableFormats:
    @pytest.mark.parametrize("name", sorted(TABLE_COMMANDS))
    def test_formats_give_the_same_rows(self, capsys, name):
        runs = {fmt: run(capsys, *TABLE_COMMANDS[name], "--format", fmt) for fmt in ("json", "md", "csv")}
        assert {(code, err) for code, _, err in runs.values()} == {(0, "")}
        rows = json.loads(runs["json"][1])
        headers = list(rows[0])
        want = [headers] + [[_cell(r[h]) for h in headers] for r in rows]
        assert [line.split(",") for line in runs["csv"][1].splitlines()] == want
        md = runs["md"][1].splitlines()
        assert md[1] == "|" + "|".join(" --- " for _ in headers) + "|"
        assert [line.removeprefix("| ").removesuffix(" |").split(" | ") for line in md[:1] + md[2:]] == want


class TestPartitionTools:
    def test_enumeration(self, capsys):
        code, out, _ = run(
            capsys, "partition-tools", "--weight", "4", "--predicate", "even"
        )
        assert code == 0
        assert json.loads(out) == [[4], [2, 2]]

    def test_even_non_ladic(self, capsys):
        code, out, _ = run(
            capsys,
            "partition-tools",
            "--weight",
            "8",
            "--predicate",
            "even-non-ladic",
            "--prime",
            "3",
        )
        assert code == 0
        assert json.loads(out) == [[4, 4]]

    def test_predicates(self, capsys):
        code, out, _ = run(capsys, "partition-tools", "--is-even", "4,2")
        assert code == 0
        assert json.loads(out) == {"partition": [4, 2], "is_even": True}
        code, out, _ = run(capsys, "partition-tools", "--is-ladic", "8,4", "--prime", "3")
        assert code == 0
        assert json.loads(out)["is_ladic"] is True

    def test_blanks_around_parts(self, capsys):
        code, out, _ = run(capsys, "partition-tools", "--is-even", " 4 , 2 ")
        assert code == 0
        assert json.loads(out)["partition"] == [4, 2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--weight", "4", "--is-even", "4,2"],
            ["--is-even", "4,2", "--is-ladic", "8,4"],
            ["--weight", "8", "--is-ladic", "8,4", "--prime", "3"],
            ["--weight", "4", "--is-even", "4,2", "--is-ladic", "4,2"],
        ],
    )
    def test_two_modes_are_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["partition-tools", *argv])
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and "not allowed with argument" in err

    @pytest.mark.parametrize("argv", [[], ["--predicate", "even"], ["--prime", "5"]])
    def test_no_mode_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["partition-tools", *argv])
        _, err = capsys.readouterr()
        assert exc.value.code == 2
        assert "one of the arguments --weight --is-even --is-ladic is required" in err

    def test_two_modes_exit_2_as_a_command(self):
        done = run_process("partition-tools", "--weight", "4", "--is-even", "4,2")
        assert (done.returncode, done.stdout) == (2, "")
        assert "not allowed with argument" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("flag", ["--is-even", "--is-ladic"])
    @pytest.mark.parametrize("parts", ["\u0668,4", "4_0,2", "8,+4", "8,-4", "8,,4", "8;4"])
    def test_only_ascii_digit_parts_parse(self, capsys, flag, parts):
        code, out, err = run(capsys, "partition-tools", flag, parts, "--prime", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse part ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--is-even", "4,2", "--predicate", "even-non-ladic", "--prime", "7"], "--predicate"),
            (["--is-ladic", "8,4", "--predicate", "even"], "--predicate"),
            (["--is-even", "4,2", "--predicate", "all"], "--predicate"),
            (["--is-even", "4,2", "--prime", "7"], "--prime"),
            (["--weight", "4", "--prime", "9"], "--prime"),
            (["--weight", "4", "--predicate", "even", "--prime", "3"], "--prime"),
        ],
    )
    def test_an_option_the_mode_does_not_read_is_a_usage_error(self, capsys, argv, option):
        code, out, err = run(capsys, "partition-tools", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {option} applies only to ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--weight", "8", "--predicate", "even-non-ladic", "--prime", "3"], [[4, 4]]),
            (["--weight", "8", "--predicate", "even-non-ladic"], [[4, 4]]),
            (
                ["--is-ladic", "8,4", "--prime", "7"],
                {"partition": [8, 4], "prime": 7, "is_ladic": False},
            ),
            (["--is-ladic", "8,4", "--prime", "5"], {"partition": [8, 4], "prime": 5, "is_ladic": True}),
            (["--is-ladic", "8,4"], {"partition": [8, 4], "prime": 3, "is_ladic": True}),
        ],
    )
    def test_options_the_mode_reads_still_answer(self, capsys, argv, expected):
        code, out, err = run(capsys, "partition-tools", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == expected

    def test_weight_alone_lists_every_partition(self, capsys):
        code, out, _ = run(capsys, "partition-tools", "--weight", "8")
        assert code == 0 and len(json.loads(out)) == 22

    @pytest.mark.parametrize(
        "mode", [["--is-ladic", "8,4"], ["--weight", "8", "--predicate", "even-non-ladic"]]
    )
    def test_an_explicit_prime_zero_is_refused_as_not_a_prime(self, capsys, mode):
        code, out, err = run(capsys, "partition-tools", *mode, "--prime", "0")
        assert (code, out, err) == (2, "", "error: 0 is not an odd prime\n")

    @pytest.mark.parametrize("argv", [["--prime", "7"], ["--predicate", "even"]])
    def test_an_unparsed_part_is_reported_before_an_unread_option(self, capsys, argv):
        code, out, err = run(capsys, "partition-tools", "--is-even", "4,x", *argv)
        assert code == 2 and out == ""
        assert err == "error: cannot parse part 'x', expected a nonnegative integer\n"

    def test_an_unread_option_exits_2_as_a_command(self):
        done = run_process("partition-tools", "--weight", "4", "--prime", "9")
        assert (done.returncode, done.stdout) == (2, "")
        message = "--prime applies only to --is-ladic and --predicate even-non-ladic"
        assert done.stderr == f"error: {message}\n"


class TestUToB:
    def test_output_schema(self, capsys):
        code, out, _ = run(capsys, "u-to-b", "--partition", "4,2")
        assert code == 0
        assert json.loads(out) == [
            {"exponents": {"1": 1, "2": 1}, "coeff": 1},
            {"exponents": {"3": 1}, "coeff": -3},
        ]

    def test_parity_usage_error(self, capsys):
        code, _, err = run(capsys, "u-to-b", "--partition", "3")
        assert code == 2

    @pytest.mark.parametrize("parts", [" 4_0 , 2", "\u0664,2"])
    def test_only_ascii_digit_parts_parse(self, capsys, parts):
        code, out, err = run(capsys, "u-to-b", "--partition", parts)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse part ") and len(err.splitlines()) == 1


def chow_class_from_json(space: chow.ProjProduct, rows: list) -> chow.ChowClass:
    """A Chow class read back from the rows of a `chow` report; rows with
    equal exponents sum, as in `bpoly_from_json`."""
    coeffs: dict = {}
    for row in rows:
        exps = tuple(int(x) for x in row["exponents"])
        coeffs[exps] = coeffs.get(exps, 0) + int(row["coeff"])
    return chow.ChowClass(space, coeffs)


class TestChowCommand:
    def test_spec_expression(self, capsys, tmp_path):
        payload = {
            "space": [1, 1, 1, 1],
            "expr": {"op": "deg", "of": {"op": "pow", "base": "alpha", "n": 4}},
        }
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "chow", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {"space": [1, 1, 1, 1], "deg": "24"}

    def test_newton_expression(self, capsys, tmp_path):
        payload = {
            "space": [1, 1],
            "expr": {"op": "newton", "bundle": "tangent", "n": 2},
        }
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "chow", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {"space": [1, 1], "class": []}

    def test_cf_expression(self, capsys, tmp_path):
        payload = {
            "space": [3],
            "expr": {
                "op": "cf",
                "bundle": {"terms": [{"sign": -1, "twist": [1]}]},
                "partition": [2],
            },
        }
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "chow", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {
            "space": [3],
            "class": [{"exponents": [2], "coeff": "-1"}],
        }

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 1],
            {"space": 5, "expr": "alpha"},
            {"space": [1, 1], "expr": {"op": "mul", "factors": []}},
            {"space": [1, 1], "expr": {"op": "add", "terms": []}},
            {"space": [1, 1], "expr": {"op": "mul", "factors": 5}},
            {
                "space": [1, 1],
                "expr": {"op": "mul", "factors": [{"op": "deg", "of": "alpha"}, "alpha"]},
            },
            {"space": [[1]], "expr": "alpha"},
            {"space": [1], "expr": {"op": "newton", "bundle": {"terms": [5]}, "n": 1}},
            {"space": [1, 1], "expr": {"op": "pow", "base": {"op": "deg", "of": "alpha"}, "n": -1}},
            {
                "space": [1, 1],
                "expr": {
                    "op": "pow",
                    "base": {"op": "deg", "of": {"op": "pow", "base": "alpha", "n": 2}},
                    "n": -1,
                },
            },
            # a factor beyond 64 bits is held, but not 2**63 products
            {"space": [1, 2**63], "expr": {"op": "pow", "base": "alpha", "n": 2**63}},
            # constant term 2 to a power beyond float range
            {
                "space": [1, 1],
                "expr": {
                    "op": "pow",
                    "base": {"op": "add", "terms": ["alpha", UNIT, UNIT]},
                    "n": BIG,
                },
            },
        ],
    )
    def test_malformed_input_is_usage_error(self, capsys, tmp_path, payload):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"space": [1, 1]}, 'chow input has no "expr"'),
            ({"space": [1, 1], "expr": {"op": "deg"}}, 'deg expression has no "of"'),
            ({"space": [1, 1], "expr": {"op": "pow", "base": "alpha"}}, 'pow expression has no "n"'),
            ({"space": [1, 1], "expr": {"op": "pow", "n": 2}}, 'pow expression has no "base"'),
            ({"space": [1], "expr": {"op": "newton", "n": 1}}, 'newton expression has no "bundle"'),
            ({"space": [1], "expr": {"op": "newton", "bundle": "tangent"}}, 'newton expression has no "n"'),
            ({"space": [1], "expr": {"op": "cf", "bundle": "tangent"}}, 'cf expression has no "partition"'),
            (
                {"space": [1], "expr": {"op": "newton", "n": 1, "bundle": {"terms": [{"sign": -1}]}}},
                'bundle term has no "twist"',
            ),
        ],
    )
    def test_missing_field_is_named_with_where(self, capsys, tmp_path, payload, message):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        assert run(capsys, "chow", "--input", str(path)) == (2, "", f"error: {message}\n")

    def test_missing_expression_is_named_by_the_command(self):
        done = run_chow_process({"space": [1, 1]})
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == 'error: chow input has no "expr"\n'

    @pytest.mark.parametrize(
        "expr, message",
        [
            ({"op": "newton", "n": 1, "bundle": "cotangent"}, "cannot parse bundle 'cotangent'"),
            (["alpha"], "cannot parse expression ['alpha']"),
            ({"op": "exp", "base": "alpha"}, "unknown op 'exp'"),
        ],
    )
    def test_unparsed_bundle_expression_or_op_is_named(self, capsys, tmp_path, expr, message):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"space": [1, 1], "expr": expr}))
        assert run(capsys, "chow", "--input", str(path)) == (2, "", f"error: {message}\n")

    def test_cf_of_one_part_above_weight_40_is_the_newton_class(self, capsys, tmp_path):
        # c_(41) is the Newton class p_41: 42 copies of a^41 and a trivial twist
        payload = {"space": [41], "expr": {"op": "cf", "bundle": "tangent", "partition": [41]}}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "chow", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {"space": [41], "class": [{"exponents": [41], "coeff": "42"}]}

    def test_cf_of_forty_ones_is_the_euler_characteristic(self):
        # deg c_(1^40)(T P^40) = chi(P^40); the power-sum route took 186 s and 5 GB
        cf = {"op": "cf", "bundle": "tangent", "partition": [1] * 40}
        done = run_chow_process({"space": [40], "expr": {"op": "deg", "of": cf}})
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {"space": [40], "deg": "41"}

    def test_cf_whose_b_truncation_passes_the_limit_is_refused_at_once(self, capsys, tmp_path):
        # I = (1, 2, ..., 20) has weight 210: 2**20 b-monomials on 21 factors
        payload = {"space": [210], "expr": {"op": "cf", "bundle": "tangent", "partition": list(range(1, 21))}}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        start = time.process_time()
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: b-truncation of 1048576 monomials on 21 factors has predicted work 22020096, "
            f"above the limit {chow.MAX_WORK}\n"
        )

    def test_cf_whose_series_passes_the_limit_is_refused_before_it_is_built(self, capsys, tmp_path):
        # the b-truncation (2**17 monomials on 19 factors) and the powers of
        # a1 + a2 fit; the series of B(a1 + a2)**-1, every b-monomial times
        # every term of (a1 + a2)**w, would hold millions of terms
        bundle = {"terms": [{"sign": -1, "twist": [1, 1]}]}
        payload = {"space": [80, 80], "expr": {"op": "cf", "partition": list(range(1, 18)), "bundle": bundle}}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        start = time.process_time()
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert time.process_time() - start < 3.0
        assert code == 2 and out == ""
        assert err == (
            "error: series of 8358944 terms, with the work before it, has predicted work 161558254, "
            f"above the limit {chow.MAX_WORK}\n"
        )

    def test_cf_of_a_huge_twist_is_refused_by_its_coefficients(self, capsys, tmp_path):
        bundle = {"terms": [{"twist": [10**200]}]}
        payload = {"space": [40], "expr": {"op": "cf", "partition": [40], "bundle": bundle}}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert (code, out, err) == (2, "", "error: a coefficient has over 4300 digits\n")

    @pytest.mark.parametrize("m", [501, 50_000])
    def test_factor_count_above_the_limit_is_refused_before_any_class(self, capsys, tmp_path, m):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"space": [1] * m, "expr": {"op": "deg", "of": "alpha"}}))
        with mock.patch.object(chow, "ProjProduct") as space, mock.patch.object(chow, "alpha") as alpha:
            code, out, err = run(capsys, "chow", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: space: {m} factors exceed the limit 500\n"
        space.assert_not_called()
        alpha.assert_not_called()

    def test_factor_count_at_the_limit_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"space": [1] * 500, "expr": {"op": "deg", "of": "alpha"}}))
        code, out, _ = run(capsys, "chow", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {"space": [1] * 500, "deg": "0"}

    @pytest.mark.parametrize(
        "space, factor, work",
        [([1] * 500, "alpha", 500**3), ([1] * 16, {"op": "pow", "base": "alpha", "n": 4}, 1820**2 * 16)],
        ids=["alpha-squared-on-500-factors", "1820-term-classes-on-16-factors"],
    )
    def test_product_above_the_limit_is_refused_at_once(self, capsys, tmp_path, space, factor, work):
        # 125 million and 53 million units of work; the square of the 12870
        # terms of alpha**8 on 16 copies of P^1 took 66 s and 6 GB when it ran
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"space": space, "expr": {"op": "mul", "factors": [factor, factor]}}))
        start = time.process_time()
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: product of ") and len(err.splitlines()) == 1
        assert f"predicted work {work}, above the limit {chow.MAX_WORK}" in err

    def test_product_at_the_limit_is_accepted(self, capsys, tmp_path):
        # alpha * alpha on 161 copies of P^1: 161**3 = 4173281 <= 2**22
        path = tmp_path / "expr.json"
        payload = {"op": "deg", "of": {"op": "mul", "factors": ["alpha", "alpha"]}}
        path.write_text(json.dumps({"space": [1] * 161, "expr": payload}))
        code, out, _ = run(capsys, "chow", "--input", str(path))
        assert code == 0 and json.loads(out)["deg"] == "0"
        path.write_text(json.dumps({"space": [1] * 162, "expr": payload}))
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert code == 2 and "predicted work 4251528" in err

    def test_failed_internal_check_exits_1_with_one_line(self, capsys, monkeypatch, tmp_path):
        def non_integral(*args):
            raise ArithmeticError("c_(2,) has a coefficient 1/2")

        monkeypatch.setattr(chow, "cf_chern", non_integral)
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"space": [1, 1], "expr": {"op": "cf", "bundle": "tangent", "partition": [2]}}))
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert code == 1 and out == ""
        assert err == "error: c_(2,) has a coefficient 1/2\n"
        assert "Traceback" not in err

    def test_pow_of_a_unit_returns_at_once(self):
        # the unit is not nilpotent: 10**8 factors must not be multiplied
        # out one by one
        one = {"op": "cf", "bundle": "tangent", "partition": []}
        payload = {"space": [1], "expr": {"op": "pow", "base": one, "n": 10**8}}
        done = run_chow_process(payload)
        assert done.returncode == 0
        assert json.loads(done.stdout) == {"space": [1], "class": [{"exponents": [0], "coeff": "1"}]}

    def test_pow_of_a_generator_on_a_large_factor_finishes(self):
        payload = {"space": [100000], "expr": {"op": "pow", "base": "alpha", "n": 100000}}
        done = run_chow_process(payload)
        assert done.returncode == 0
        assert json.loads(done.stdout)["class"] == [{"exponents": [100000], "coeff": "1"}]

    def test_pow_whose_nilpotent_part_touches_one_small_factor_answers(self, capsys, tmp_path):
        # (1 + a_1) ** 10**6 on P^1 x P^(10**6) is 1 + 10**6 a_1: a_1**2 = 0
        a_1 = {"op": "newton", "bundle": {"terms": [{"twist": [1, 0]}]}, "n": 1}
        path = tmp_path / "expr.json"
        base = {"op": "add", "terms": [UNIT, a_1]}
        path.write_text(json.dumps({"space": [1, 10**6], "expr": {"op": "pow", "base": base, "n": 10**6}}))
        start = time.process_time()
        code, out, _ = run(capsys, "chow", "--input", str(path))
        assert time.process_time() - start < 1.0
        assert code == 0
        assert json.loads(out)["class"] == [
            {"exponents": [0, 0], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1000000"},
        ]

    def test_pow_with_unprintable_binomials_is_refused_at_the_first(self, capsys, tmp_path):
        # (1 + alpha) ** 10**6 on P^(10**6): C(10**6, 5 * 10**5) has 301 027
        # digits, and C(10**6, k) has over 4300 from k = 1296 on
        path = tmp_path / "expr.json"
        base = {"op": "add", "terms": ["alpha", UNIT]}
        path.write_text(json.dumps({"space": [10**6], "expr": {"op": "pow", "base": base, "n": 10**6}}))
        start = time.process_time()
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: pow: a coefficient has over 4300 digits\n"

    def test_pow_whose_nilpotent_part_dies_early_answers(self):
        # (1 + a_1 a_2) ** 10**6 on P^1 x P^(10**6) is 1 + 10**6 a_1 a_2,
        # though C(10**6, k) has over 4300 digits from k = 1296 on
        a_1, a_2 = ({"op": "newton", "bundle": {"terms": [{"twist": t}]}, "n": 1} for t in ([1, 0], [0, 1]))
        base = {"op": "add", "terms": [UNIT, {"op": "mul", "factors": [a_1, a_2]}]}
        done = run_chow_process({"space": [1, 10**6], "expr": {"op": "pow", "base": base, "n": 10**6}})
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["class"] == [
            {"exponents": [0, 0], "coeff": "1"},
            {"exponents": [1, 1], "coeff": "1000000"},
        ]

    @pytest.mark.parametrize(
        "text",
        [
            # deg of (1 + alpha) ** 10**4000 on P^1 is 10**4000, its square 10**8000
            json.dumps({"space": [1], "expr": {"op": "mul", "factors": [
                {"op": "deg", "of": {"op": "pow", "base": {"op": "add", "terms": ["alpha", UNIT]}, "n": 10**4000}}
            ] * 2}}),
            '{"space": [1], "expr": {"op": "newton", "n": 1, "bundle": {"terms": [{"twist": [' + "9" * 4301 + "]}]}}}",
        ],
        ids=["report", "input"],
    )
    def test_a_number_too_long_to_print_or_read_is_one_usage_error(self, text):
        done = run_chow_process(text)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: a number has over 4300 digits\n"

    def test_pow_of_a_pow_is_refused_by_its_coefficients(self, capsys, tmp_path):
        # (1 + alpha) ** 10**4000 on P^1 is 1 + 10**4000 alpha; the binomial
        # terms of its 10**400-th power print (c0 = 1, C(10**400, 1)), and it
        # is refused once it is 1 + 10**4400 alpha, before an enclosing power
        # could grow it again
        inner = {"op": "pow", "base": {"op": "add", "terms": ["alpha", UNIT]}, "n": 10**4000}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"space": [1], "expr": inner}))
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["class"] == [
            {"exponents": [0], "coeff": "1"},
            {"exponents": [1], "coeff": str(10**4000)},
        ]
        done = run_chow_process({"space": [1], "expr": {"op": "pow", "base": inner, "n": 10**400}})
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: pow: a coefficient has over 4300 digits\n"

    @pytest.mark.parametrize(
        "space, n",
        [([10**9, 10**9], 10**9), ([1, 10**9], 10**9), ([10**6, 10**6], 2 * 10**6)],
    )
    def test_pow_beyond_the_step_limit_is_refused_at_once(self, space, n):
        # min(n, total dimension) products of a class of 2 terms on 2
        # factors, 4 units each, above 2**22
        payload = {"space": space, "expr": {"op": "pow", "base": "alpha", "n": n}}
        done = run_chow_process(payload)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: pow: power of 2 terms in ") and len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "space, n, answer",
        [
            ([10**9], 10**9, [{"exponents": [10**9], "coeff": "1"}]),
            ([10**6 + 1], 10**9, []),
            ([500000, 500001], 2 * 10**6, []),
        ],
    )
    def test_pow_of_one_term_or_to_zero_answers_at_once(self, space, n, answer):
        # a class of one term takes one step, and (a_1 + a_2)**n vanishes
        # once n passes the total dimension: no product is formed
        payload = {"space": space, "expr": {"op": "pow", "base": "alpha", "n": n}}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = run_chow_process(payload)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {"space": space, "class": answer}
        assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1.0

    def test_pow_whose_products_sum_past_the_work_limit_is_refused(self):
        # (a + a**2)**n on P^n: its k-th product pairs the k terms of
        # N**(k-1) with the 2 of N, each product far below 2**22 units, and
        # their sum passes 2**22 at the 2048th.  Refused after 1.2-1.4 s of
        # CPU on a 2-core x86 host; priced one product at a time, it ran
        # for more than 25 s
        X = chow.ProjProduct((300,))
        base = chow.alpha(X) + chow.alpha(X) ** 2
        want = chow.ChowClass.one(X)
        for _ in range(300):
            want = want * base
        assert base**300 == want
        square = {"op": "pow", "base": "alpha", "n": 2}
        base = {"op": "add", "terms": ["alpha", square]}
        payload = {"space": [10**6], "expr": {"op": "pow", "n": 10**6, "base": base}}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = run_chow_process(payload)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: pow: product of 2048 x 2 terms on 1 factors, with the work before it, "
            f"has predicted work 4196352, above the limit {chow.MAX_WORK}\n"
        )
        assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 3.0

    @pytest.mark.parametrize(
        "c, square",
        [(10**400, False), (10**1000, False), (10**4000, False), (10**400, True)],
        ids=["1e400", "1e1000", "1e4000", "1e400-without-a-binomial"],
    )
    def test_pow_whose_nilpotent_powers_will_not_print_is_refused_within_a_few_products(self, c, square):
        # (1 + c a)**(10**6) on P^(10**6): each product is one unit and each
        # binomial it meets prints, but c**k does not from k = 11, 5 and 2
        # on; (c a + a**2)**(10**6) has c0 = 0, so no binomial is checked
        linear = {"op": "newton", "n": 1, "bundle": {"terms": [{"twist": [c]}]}}
        base = {"op": "add", "terms": [linear, {"op": "pow", "base": "alpha", "n": 2} if square else UNIT]}
        payload = {"space": [10**6], "expr": {"op": "pow", "n": 10**6, "base": base}}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = run_chow_process(payload)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: pow: a coefficient has over 4300 digits\n"
        assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1.0

    @pytest.mark.parametrize(
        "space, bundle, n",
        [([10**9, 10**9], {"terms": [{"twist": [1, 1]}]}, 10**8), ([10**7], "tangent", 1)],
        ids=["newton", "tangent"],
    )
    def test_newton_beyond_the_step_limit_is_refused_at_once(self, space, bundle, n):
        # 10**8 products of a class of 2 terms on 2 factors; 10**7 + 2 line
        # bundles in the tangent bundle
        payload = {"space": space, "expr": {"op": "newton", "bundle": bundle, "n": n}}
        done = run_chow_process(payload)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
        assert f"the limit {chow.MAX_WORK}" in done.stderr

    def test_newton_with_an_unprintable_power_is_refused_before_forming_it(self):
        # (10**100 a)**100 on P^100 is 10**10000 a**100: refused as it is
        # formed, not when its 10 001 digits are printed
        bundle = {"terms": [{"twist": [10**100]}]}
        done = run_chow_process({"space": [100], "expr": {"op": "newton", "n": 100, "bundle": bundle}})
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: a coefficient has over 4300 digits\n"

    def test_newton_with_a_power_of_billions_of_digits_is_refused_at_once(self):
        # c**(10**6) of a 4000-digit twist entry c would have about 4 * 10**9 digits
        bundle = {"terms": [{"twist": [int("7" * 4000)]}]}
        payload = {"space": [10**6], "expr": {"op": "newton", "n": 10**6, "bundle": bundle}}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = run_chow_process(payload)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: a coefficient has over 4300 digits\n"
        assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1.0

    def test_factor_dimension_beyond_64_bits_is_accepted(self):
        done = run_chow_process({"space": [1, 2**63], "expr": {"op": "pow", "base": "alpha", "n": 2}})
        assert done.returncode == 0
        assert json.loads(done.stdout) == {
            "space": [1, 2**63],
            "class": [
                {"exponents": [0, 2], "coeff": "1"},
                {"exponents": [1, 1], "coeff": "2"},
            ],
        }

    def test_deeply_nested_payload_is_usage_error(self):
        # deeper than the JSON decoder's and the evaluator's recursion
        text = '{"space": [1], "expr": ' + '{"op": "add", "terms": [' * 3000 + '"alpha"' + "]}" * 3000 + "}"
        done = run_chow_process(text)
        assert done.returncode == 2 and done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1

    def test_alpha_as_a_name_or_an_op(self):
        space = chow.ProjProduct((1, 2))
        assert _cmd_chow.eval_chow_expr(space, {"op": "alpha"}) == _cmd_chow.eval_chow_expr(space, "alpha")
        assert _cmd_chow.eval_chow_expr(space, "alpha") == chow.alpha(space)

    @pytest.mark.parametrize("depth", [100_000, 990])
    def test_nesting_too_deep_for_the_stack_is_one_usage_error(self, depth):
        # far beyond the interpreter's recursion limit of 1000 frames, and near it
        pows = '{"op": "pow", "n": 1, "base": ' * depth + '"alpha"' + "}" * depth
        text = '{"space": [1], "expr": ' + pows + "}"
        done = run_chow_process(text)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: input nested too deeply\n")

    def test_pow_refuses_an_unprintable_constant_term(self, capsys, tmp_path):
        # 2**20000 has 6021 digits
        one = {"op": "cf", "bundle": "tangent", "partition": []}
        base = {"op": "add", "terms": [one, one, "alpha"]}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"space": [1, 1], "expr": {"op": "pow", "base": base, "n": 20000}}))
        code, out, err = run(capsys, "chow", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: pow: ") and len(err.splitlines()) == 1

    def test_nested_powers_are_refused_once_unprintable(self):
        # (1 + alpha) ** 10**400 on P^4 x P^4 x P^4 already has coefficients
        # of about 4800 digits; each further power would multiply them by 12
        expr = {"op": "add", "terms": ["alpha", UNIT]}
        for _ in range(4):
            expr = {"op": "pow", "base": expr, "n": BIG}
        done = run_chow_process({"space": [4, 4, 4], "expr": expr})
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: pow: a coefficient has over 4300 digits\n"

    def test_class_json_round_trip(self, capsys, tmp_path):
        from cobcalc.chow import ProjProduct, alpha

        space = ProjProduct((2, 3))
        value = alpha(space) ** 3
        payload = {
            "space": [2, 3],
            "expr": {"op": "pow", "base": "alpha", "n": 3},
        }
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        _, out, _ = run(capsys, "chow", "--input", str(path))
        rows = json.loads(out)["class"]
        assert chow_class_from_json(space, rows) == value

    def test_class_json_rows_with_equal_exponents_sum(self):
        # as bpoly_from_json sums them; a sum of zero drops out
        from cobcalc.chow import ProjProduct

        space = ProjProduct((1, 1))
        rows = [
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "2"},
            {"exponents": [0, 1], "coeff": "5"},
            {"exponents": [0, 1], "coeff": "-5"},
        ]
        assert chow_class_from_json(space, rows).coeffs == {(1, 0): 3}


fuzz_ints = st.one_of(st.integers(-1, 3), st.integers(-BIG, BIG), st.sampled_from([BIG, -BIG]))
# exponents past float range, where the digits of a power are estimated
pow_ints = st.one_of(fuzz_ints, st.integers(10**308, BIG))


def _chow_exprs(m: int):
    """Expression trees whose twists mostly have m entries, so that most
    bundles are valid and deep trees reach the refusals of pow and of
    printing."""
    twists = st.one_of(st.lists(fuzz_ints, min_size=m, max_size=m), st.lists(fuzz_ints, max_size=3))
    signs = st.one_of(st.sampled_from([1, -1]), fuzz_ints)
    terms = st.fixed_dictionaries({"twist": twists}, optional={"sign": signs})
    bundles = st.one_of(st.just("tangent"), st.builds(lambda ts: {"terms": ts}, st.lists(terms, max_size=3)))
    leaves = st.one_of(
        st.sampled_from(["alpha", {"op": "alpha"}]),
        # the constant k: powers of a class with a constant term take the
        # binomial route of ChowClass.__pow__
        st.builds(lambda k: {"op": "add", "terms": [UNIT] * k}, st.integers(1, 3)),
        st.builds(lambda b, n: {"op": "newton", "bundle": b, "n": n}, bundles, fuzz_ints),
        st.builds(
            lambda b, parts: {"op": "cf", "bundle": b, "partition": parts},
            bundles,
            st.lists(fuzz_ints, max_size=3),
        ),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(lambda e, n: {"op": "pow", "base": e, "n": n}, sub, pow_ints),
            st.builds(lambda es: {"op": "mul", "factors": es}, st.lists(sub, min_size=1, max_size=3)),
            st.builds(lambda es: {"op": "add", "terms": es}, st.lists(sub, min_size=1, max_size=3)),
            st.builds(lambda e: {"op": "deg", "of": e}, sub),
        ),
        max_leaves=8,
    )


CHOW_EXPRS = {m: _chow_exprs(m) for m in (1, 2, 3)}
# a space of at most 3 factors of dimension at most 4, and a tree on it
chow_payloads = st.lists(st.integers(1, 4), min_size=1, max_size=3).flatmap(
    lambda space: CHOW_EXPRS[len(space)].map(lambda expr: {"space": space, "expr": expr})
)


class TestChowFuzz:
    @settings(max_examples=200, deadline=None)
    @given(payload=chow_payloads)
    # a constant term of 2 to a power past float range
    @example(
        payload={
            "space": [1, 1],
            "expr": {"op": "pow", "base": {"op": "add", "terms": ["alpha", UNIT, UNIT]}, "n": BIG},
        }
    )
    def test_exit_code_and_one_error_line(self, payload):
        stdin = io.StringIO(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["chow", "--input", "-"])
        if code == 0:
            assert err.getvalue() == "" and json.loads(out.getvalue())["space"] == payload["space"]
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


# Whole command lines: each subcommand with a random subset of its own
# options in random order, with values that are valid, at a limit, or
# malformed, then possibly stray tokens.  Numbers stay small enough that
# every accepted command finishes in milliseconds.  No token holds a path
# separator, so a file named on the line lands in the example's own
# directory.
argv_ints = st.one_of(st.integers(-2, 12), st.sampled_from([BIG, -BIG, 2**63, 10**5, 5001])).map(str)
argv_primes = st.one_of(st.sampled_from([2, 9, 1000003, 2**61 - 1, BIG]), st.integers(-2, 13)).map(str)
argv_text = st.text(st.characters(blacklist_characters="/\\", blacklist_categories=("Cs",)), max_size=6)
argv_files = st.sampled_from(["-", "missing.json", "", ".", "out.json"])
argv_parts = st.one_of(
    st.lists(st.integers(0, 9), max_size=4).map(lambda ps: ",".join(map(str, ps))),
    st.sampled_from(["4,2", " 4 , 2 ", "41", "x", "4,,2", "-2"]),
)
formats = st.sampled_from(["json", "md", "csv", "xml"])
output = {"--output": argv_files, "-o": argv_files}
ARGV_COMMANDS = {
    "snumbers": {"--prime": argv_primes, "--max-d": argv_ints, "--format": formats, **output},
    "verify-generators": {
        "--prime": argv_primes,
        "--all-primes-up-to": argv_ints,
        "--max-d": argv_ints,
        "--family": argv_files,
        "--exclude": argv_primes,
        **output,
    },
    "steenrod": {
        "--prime": st.sampled_from(["3", "5", "4", BIG]).map(str),
        "--op": st.sampled_from(["P0", "P1", "P2", "P-1", "P41", "Q2", f"P{BIG}"]),
        "--class": st.sampled_from(["b1", "b1^2*b2", "b0", "1", "", "b1^-1", f"b1^{BIG}", "b41"]),
        "--untwisted": st.none(),
        **output,
    },
    "decomp-check": {"--prime": argv_primes, "--max-weight": argv_ints, "--format": formats, **output},
    "ranks": {"--max-d": argv_ints, "--prime": argv_primes, "--format": formats, **output},
    "partition-tools": {
        "--weight": argv_ints,
        "--predicate": st.sampled_from(["all", "even", "even-non-ladic", "odd"]),
        "--prime": argv_primes,
        "--is-even": argv_parts,
        "--is-ladic": argv_parts,
        **output,
    },
    "u-to-b": {"--partition": argv_parts, "--modulus": argv_primes, **output},
    "chow": {"--input": argv_files, **output},
    "self-test": {},
}


ARGV_REQUIRED = {
    "snumbers": ["--prime", "--max-d"],
    "verify-generators": ["--max-d"],
    "steenrod": ["--prime", "--op", "--class"],
    "decomp-check": ["--prime", "--max-weight"],
    "ranks": ["--max-d"],
    "u-to-b": ["--partition"],
    "chow": ["--input"],
}


def _argv_command(name: str):
    """name, its required options and a random subset of the others, in
    random order, each with a value of its kind; a flag takes none."""
    options, required = ARGV_COMMANDS[name], ARGV_REQUIRED.get(name, [])
    optional = sorted(set(options) - set(required))
    chosen = st.lists(st.sampled_from(optional), unique=True) if optional else st.just([])
    return chosen.flatmap(lambda extra: st.permutations(required + extra)).flatmap(
        lambda names: st.tuples(*[options[n] for n in names]).map(
            lambda values: [name] + [t for n, v in zip(names, values) for t in ([n] if v is None else [n, v])]
        )
    )


argv_tokens = st.one_of(
    st.sampled_from(sorted({o for options in ARGV_COMMANDS.values() for o in options} | {"--help", "-h"})),
    argv_ints,
    argv_text,
)
argv_lists = st.one_of(
    st.sampled_from(sorted(ARGV_COMMANDS)).flatmap(_argv_command),
    st.builds(
        lambda command, stray: command + stray,
        st.sampled_from(sorted(ARGV_COMMANDS)).flatmap(_argv_command),
        st.lists(argv_tokens, max_size=3),
    ),
    st.lists(argv_tokens, max_size=6),
)
# what `chow --input -` reads from stdin
argv_stdin = st.sampled_from(
    [
        '{"space": [1, 1, 1, 1], "expr": {"op": "deg", "of": {"op": "pow", "base": "alpha", "n": 4}}}',
        '{"space": [1, 2], "expr": {"op": "cf", "bundle": "tangent", "partition": [2, 1]}}',
        '{"space": [1], "expr": {"op": "pow", "base": {"op": "add", "terms": ["alpha", "alpha"]}, "n": 2}}',
        "[]",
        "{",
        "",
    ]
)


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argv=argv_lists, stdin=argv_stdin)
    def test_exit_code_without_traceback(self, argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as workdir, _working_directory(workdir), mock.patch(
            "sys.stdin", io.StringIO(stdin)
        ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: a usage error, or --help
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


@contextlib.contextmanager
def _working_directory(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


README = Path(__file__).resolve().parent.parent / "README.md"


def _limit_value(text: str) -> int:
    """A value as the README's limit table writes it: "800 000", "10^6",
    "4 * 10^6"."""
    value = 1
    for factor in text.replace(" ", "").split("*"):
        base, _, exponent = factor.partition("^")
        value *= int(base) ** int(exponent or 1)
    return value


class TestLimitTable:
    def test_each_row_states_its_module_constant(self):
        stated = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)]
            match = len(cells) == 6 and re.fullmatch(r"`(\w+)\.(\w+)` = ([0-9 ^*]+)", cells[3])
            if match:
                module, name, value = match.groups()
                stated[f"{module}.{name}"] = constant = _limit_value(value)
                assert getattr(importlib.import_module(f"cobcalc.{module}"), name) == constant, line
        # every limit the package defines has a row
        pattern = re.compile(r"^(MAX_\w+|\w*WEIGHT_CAP|PRIME_TEST_LIMIT) = ", re.M)
        limits = {
            f"{path.stem}.{name}"
            for path in (SRC / "cobcalc").glob("*.py")
            for name in pattern.findall(path.read_text(encoding="utf-8"))
        }
        assert len(limits) == 10 and set(stated) == limits


README_CHOW = {"space": [1, 1, 1, 1], "expr": {"op": "deg", "of": {"op": "pow", "base": "alpha", "n": 4}}}
# one run of each command that writes a report; a ".json" token names a file
# the test writes (a family whose degree 1 fails at 3, so that run exits 1)
OUTPUT_COMMANDS = {
    "snumbers": ["snumbers", "--prime", "3", "--max-d", "4"],
    "verify-generators": ["verify-generators", "--prime", "3", "--max-d", "2", "--family", "family.json"],
    "steenrod": ["steenrod", "--prime", "3", "--op", "P2", "--class", "b1^2*b2"],
    "decomp-check": ["decomp-check", "--prime", "3", "--max-weight", "12", "--format", "md"],
    "ranks": ["ranks", "--max-d", "6", "--format", "csv"],
    "partition-tools": ["partition-tools", "--weight", "6"],
    "u-to-b": ["u-to-b", "--partition", "4,2"],
    "chow": ["chow", "--input", "expr.json"],
}


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["snumbers", "--max-d", "3"])
        assert exc.value.code == 2

    def test_predicate_choices_are_the_partition_predicates(self):
        from cobcalc import partitions

        (commands,) = cli.build_parser()._subparsers._group_actions
        predicate = commands.choices["partition-tools"]._option_string_actions["--predicate"]
        assert predicate.choices == partitions.PREDICATES

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "snumbers", "--prime", "3", "--max-d", "2", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())[0]["d"] == 1

    @pytest.mark.parametrize("flag", ["--output", "-o"])
    @pytest.mark.parametrize("name", sorted(OUTPUT_COMMANDS))
    def test_output_file_holds_the_bytes_printed(self, capsys, tmp_path, name, flag):
        (tmp_path / "expr.json").write_text(json.dumps(README_CHOW))
        (tmp_path / "family.json").write_text(json.dumps({"kind": "msp", "entries": {"1": 9, "2": 1}}))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in OUTPUT_COMMANDS[name]]
        code, out, err = run(capsys, *argv)
        path = tmp_path / "report.txt"
        assert run(capsys, *argv, flag, str(path)) == (code, "", err)
        assert path.read_bytes() == out.encode("utf-8")

    def test_every_command_but_self_test_is_written_to_a_file(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(OUTPUT_COMMANDS) == set(commands) - {"self-test"}

    def test_self_test(self, capsys):
        code, out, err = run(capsys, "self-test")
        assert code == 0
        assert "all passed" in out
        assert "FAIL" not in err

    def test_self_test_counts_a_failed_oracle_check(self, capsys, monkeypatch):
        from cobcalc import steenrod

        def failing(*args):
            raise ArithmeticError("orbit raise fails the Vandermonde count")

        # an exception escaping main would print a traceback and exit 1
        monkeypatch.setattr(steenrod, "power_op_oracle", failing)
        code, out, err = run(capsys, "self-test")
        assert code == 1
        assert "self-test: 2 failed" in out
        assert "FAIL power operation differential test, prime 3" in err
        assert "FAIL power operation differential test, prime 5" in err
        assert "Traceback" not in err


OOM = "error: out of memory\n"
LRU_WRAPPER = "<functools._lru_cache_wrapper object at 0x7f3a2c1d5e40>"


class TestExitCodes:
    def test_out_of_memory_is_one_line_with_exit_2(self):
        # u_to_b at weight 66 needs far more than 100 MB; the interpreter
        # and the package take about 20 MB of address space
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (100 * 2**20, 100 * 2**20))

        done = subprocess.run(
            [sys.executable, "-m", "cobcalc.cli", "u-to-b", "--partition", "66"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 2 and done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr == "error: out of memory\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["snumbers", "--prime", "3", "--max-d", "3206", "--format", "csv"], 0),
            (["verify-generators", "--prime", "3", "--max-d", "1250", "--family", "FAMILY"], 1),
        ],
        ids=["passed", "failed"],
    )
    def test_a_reader_closing_the_pipe_early_keeps_the_verdict(self, tmp_path, argv, code):
        # `| head -n 1`: the reader takes one line and closes the pipe while
        # the command still writes; every degree's family entry 1 fails
        # where the valuation must be 1
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"kind": "msp", "entries": {str(d): 1 for d in range(1, 1251)}}))
        argv = [str(family) if a == "FAMILY" else a for a in argv]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        command = [sys.executable, "-m", "cobcalc.cli", *argv]
        report = tmp_path / "report.txt"
        done = subprocess.run([*command, "--output", str(report)], capture_output=True, timeout=60, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (code, b"", b"")
        written = report.read_bytes()
        # more than a pipe holds by default, with the reader's buffer
        assert len(written) > 2**16 + io.DEFAULT_BUFFER_SIZE
        child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            first = child.stdout.readline()
            child.stdout.close()
            assert child.wait(timeout=60) == code
        finally:
            child.kill()
            child.wait()
        assert child.stderr.read() == b""
        child.stderr.close()
        assert first == written.splitlines(keepends=True)[0]

    @pytest.mark.parametrize(
        "exc, code, shown",
        [
            (MemoryError(), 2, "error: out of memory\n"),
            (TypeError("unsupported operand"), 2, "error: TypeError: unsupported operand\n"),
            (RuntimeError(), 2, "error: RuntimeError\n"),
            (ZeroDivisionError("a failed check"), 1, "error: a failed check\n"),
            # the two messages of a MemoryError that CPython lost in a C call
            (SystemError(f"{LRU_WRAPPER} returned NULL without setting an exception"), 2, OOM),
            (SystemError("error return without exception set"), 2, OOM),
            (SystemError("bad argument"), 2, "error: SystemError: bad argument\n"),
        ],
        ids=["memory", "type", "runtime", "arithmetic", "lost-null", "lost-error", "system"],
    )
    def test_an_escaping_exception_is_one_error_line(self, capsys, monkeypatch, exc, code, shown):
        def failing(args):
            raise exc

        monkeypatch.setattr(_cmd_counting, "run_ranks", failing)
        assert run(capsys, "ranks", "--max-d", "3") == (code, "", shown)


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.lists(st.integers())
)
JSON_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text() | st.integers(), children)
    | st.dictionaries(JSON_KEYS, children),
    max_leaves=20,
)


class TestJsonText:
    @given(JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    @example([[3, 1], [2, 2], [True, 1], []])
    @example({"d": 6, "factors": [1, 1, 3, 9], "s": "-80080", "match": True, 7: None, "é\U0001d11e": 1.5})
    @example({1.5: [1], None: {}, False: ()})
    def test_same_bytes_as_json_dumps(self, value):
        assert cli.json_text(value) == json.dumps(value, indent=2)

    def test_types_json_cannot_write_are_refused_alike(self):
        for value in ({(1, 2): 3}, [1, {2}], {"a": [object()]}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                cli.json_text(value)
