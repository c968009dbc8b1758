"""The `snumbers` and `verify-generators` commands: the valuation table of
the construction, the generator criterion, and the JSON forms of a
candidate family and a verdict.

`cli.main` imports this module once argparse has chosen one of the two
commands.  `criterion` is imported where the criterion runs, so `snumbers`
compiles only `stong` and what it needs.
"""

from __future__ import annotations

import json

from . import stong
from .valuation import MAX_DIGITS, printable

# This import serves the annotations only: type checkers take TYPE_CHECKING
# as true, and defining it here spares importing typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import criterion


def family_to_json(fam: criterion.CandidateFamily) -> dict:
    return {"kind": fam.kind, "entries": {str(d): str(fam.entries[d]) for d in sorted(fam.entries)}}


def family_from_json(obj) -> criterion.CandidateFamily:
    from . import criterion

    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), dict):
        raise ValueError('a family must be an object with an "entries" object')
    # degrees are ASCII digits and entries JSON integers or ASCII digits
    # with an optional sign, as every other number of the command line
    entries = {}
    for key, v in obj["entries"].items():
        if not (key.isascii() and key.isdigit()):
            raise ValueError(f"family degree {key!r} is not a nonnegative integer")
        if isinstance(v, str) and v.isascii() and v.removeprefix("-").isdigit():
            v = int(v)
        if type(v) is not int:
            raise ValueError(f"family entry {key} must be an integer, got {v!r}")
        if (d := int(key)) in entries:
            raise ValueError(f"family gives degree {d} twice")
        entries[d] = v
    if "kind" not in obj:
        raise ValueError('family has no "kind"')
    return criterion.CandidateFamily(obj["kind"], entries)


def family_from_snumbers_rows(rows: list[dict]) -> criterion.CandidateFamily:
    """Read a snumbers JSON report back as a candidate family."""
    from . import criterion

    return criterion.CandidateFamily("msp", {int(r["d"]): abs(int(r["s"])) for r in rows})


def verdict_json(v: criterion.GeneratorVerdict) -> list[dict]:
    """The rows of a verdict, as the single-prime and sweep reports print them."""
    rows = []
    for r in v.rows:
        row = {"d": r.d, "required": r.required, "observed": r.observed, "pass": r.passed}
        if r.reason:
            row["reason"] = r.reason
        rows.append(row)
    return rows


def run_snumbers(args) -> tuple[list, bool]:
    # each row's number is checked as it is made, and written in decimal only
    # once every row has passed: a refusal costs only the rows before it, and
    # not their decimal strings
    rows = []
    for row in stong.valuation_rows(args.prime, args.max_d):
        if not printable(row.s_number):
            raise ValueError(f"--max-d {args.max_d}: row d = {row.d} would print over {MAX_DIGITS} digits")
        rows.append({"d": row.d, "factors": list(row.factors.dims), "s": row.s_number,
                     "nu": row.valuation, "expected": row.expected, "match": row.matches})
    for r in rows:
        r["s"] = str(r["s"])
    return rows, all(r["match"] for r in rows)


def run_verify_generators(args) -> tuple[dict, bool]:
    from . import criterion

    if args.prime is not None and args.exclude is not None:
        raise ValueError("--exclude applies only to --all-primes-up-to")
    d_max, fam = args.max_d, None
    if args.family:
        with open(args.family, encoding="utf-8") as fh:
            fam = family_from_json(json.load(fh))
    # no family given: each prime checks its own construction
    if args.prime is not None:
        criterion.check_sweep_work(args.prime, d_max, primes=1)
        v = criterion.msp_criterion(fam or criterion.stong_family(args.prime, d_max), args.prime, d_max)
        ok, rows = v.passed, verdict_json(v)
        report = {"kind": "msp", "prime": args.prime, "max_d": d_max, "pass": ok, "rows": rows}
    else:
        excluded = [2] if args.exclude is None else sorted(set(args.exclude))
        verdicts = criterion.global_criterion(fam, args.all_primes_up_to, d_max, excluded)
        ok = criterion.aggregate_passed(verdicts)
        rows = [{"prime": ell, "pass": v.passed, "rows": verdict_json(v)} for ell, v in verdicts.items()]
        report = {
            "kind": "msp", "prime_bound": args.all_primes_up_to, "excluded": excluded,
            "primes": list(verdicts), "max_d": d_max, "pass": ok, "verdicts": rows,
        }
    return report, ok
