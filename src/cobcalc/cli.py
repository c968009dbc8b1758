"""Command-line front end.

All reports go to standard output as JSON (or Markdown/CSV where a table
format is offered); diagnostics go to standard error.  Output is
byte-stable for fixed inputs: fixed key order, decimal strings for big
integers, no timestamps.  Exit codes: 0 success (and all checks passed),
1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

# Each command imports the modules it runs where it runs them, so a process
# loads no others.  These imports serve the annotations only: type checkers
# take TYPE_CHECKING as true, and defining it here spares importing typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import chow, criterion
    from .symfun import BPoly

# Python's default limit on the digits of an int converted to a string
MAX_DIGITS = 4300
# partitions `partition-tools` lists at most: the 89134 partitions of 45,
# the most it lists, take about 0.75 s as a command, 0.12 s of it to
# enumerate them and about 0.3 s to render the JSON list
MAX_PARTITIONS = 10**5
# factors a `chow` space has at most: each term of a class stores one
# exponent per factor, and the Newton class of the tangent bundle, whose
# cost grows with the square of the count, takes about 0.5 s on 500 P^1s
MAX_CHOW_FACTORS = 500


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def bpoly_to_json(p: BPoly) -> list:
    """Sparse monomial list: [{"exponents": {"1": k1, ...}, "coeff": c}]."""
    return [
        {"exponents": {str(i): k for i, k in mono}, "coeff": int(c)}
        for mono, c in sorted(p.coeffs.items())
    ]


def bpoly_from_json(rows: list, modulus: int | None = None) -> BPoly:
    from .symfun import BPoly

    coeffs = {}
    for row in rows:
        mono = tuple(sorted((int(i), int(k)) for i, k in row["exponents"].items()))
        coeffs[mono] = coeffs.get(mono, 0) + int(row["coeff"])
    return BPoly(coeffs, modulus)


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


def family_to_json(fam: criterion.CandidateFamily) -> dict:
    return {"kind": fam.kind, "entries": {str(d): str(fam.entries[d]) for d in sorted(fam.entries)}}


def family_from_json(obj) -> criterion.CandidateFamily:
    from . import criterion

    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), dict):
        raise ValueError('a family must be an object with an "entries" object')
    for d, v in obj["entries"].items():
        if not isinstance(v, (int, str)) or isinstance(v, bool):
            raise ValueError(f"family entry {d} must be an integer, got {v!r}")
    return criterion.CandidateFamily(obj["kind"], obj["entries"])


def snumbers_rows(ell: int, d_max: int) -> list[dict]:
    from . import stong

    return [
        {"d": row.d, "factors": list(row.factors.dims), "s": str(row.s_number), "nu": row.valuation,
         "expected": row.expected, "match": row.matches}
        for row in stong.valuation_table(ell, d_max)
    ]


def family_from_snumbers_rows(rows: list[dict]) -> criterion.CandidateFamily:
    """Read a snumbers JSON report back as a candidate family."""
    from . import criterion

    return criterion.CandidateFamily("msp", {int(r["d"]): abs(int(r["s"])) for r in rows})


# ---------------------------------------------------------------------------
# chow expression evaluator
# ---------------------------------------------------------------------------


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
    from . import chow

    if spec == "tangent":
        return chow.tangent_bundle(space)
    if isinstance(spec, dict) and isinstance(spec.get("terms"), list):
        terms = []
        for t in spec["terms"]:
            if not isinstance(t, dict):
                raise ValueError(f"bundle term must be an object, got {t!r}")
            terms.append(chow.LineTerm(_int(t.get("sign", 1), "sign"), _ints(t["twist"], "twist")))
        return chow.VirtualBundle(space, tuple(terms))
    raise ValueError(f"cannot parse bundle {spec!r}")


def eval_chow_expr(space: chow.ProjProduct, expr):
    """Evaluate an expression tree; returns a ChowClass or an int (deg)."""
    from . import chow

    # "alpha" and {"op": "alpha"} both name the class alpha
    op = expr["op"] if isinstance(expr, dict) and "op" in expr else expr
    if op == "alpha":
        return chow.alpha(space)
    if not isinstance(expr, dict) or "op" not in expr:
        raise ValueError(f"cannot parse expression {expr!r}")
    if op == "deg":
        value = eval_chow_expr(space, expr["of"])
        if not isinstance(value, chow.ChowClass):
            raise ValueError("deg needs a class")
        return chow.deg(value)
    if op == "pow":
        n = _int(expr["n"], "n")
        if n < 0:
            raise ValueError(f"pow: exponent must be nonnegative, got {n}")
        base = eval_chow_expr(space, expr["base"])
        if isinstance(base, int):
            c0, steps = base, 0
        else:
            c0, steps = base.coeffs.get((0,) * space.factor_count, 0), base.power_steps(n)
        # priced before the power runs; more steps than chow allows are
        # refused by the power itself
        if c0 and steps <= chow.MAX_POW_STEPS and _binomial_digits(n, steps, abs(c0)) >= MAX_DIGITS:
            raise ValueError(f"pow: a coefficient has over {MAX_DIGITS} digits")
        try:
            power = base ** n
        except ValueError as exc:  # beyond chow's step limit
            raise ValueError(f"pow: {exc}") from None
        # refused here, before an enclosing power multiplies its digits again
        coeffs = power.coeffs.values() if isinstance(power, chow.ChowClass) else ()
        if max(map(abs, coeffs), default=0) >= 10**MAX_DIGITS:
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
        return chow.newton_class(parse_bundle(space, expr["bundle"]), _int(expr["n"], "n"))
    if op == "cf":
        return chow.cf_chern(
            parse_bundle(space, expr["bundle"]), _ints(expr["partition"], "partition")
        )
    raise ValueError(f"unknown op {op!r}")


def _binomial_digits(n: int, steps: int, c: int) -> float:
    """log10 of the largest C(n, k) c**(n - k) over k <= steps, for c >= 1
    and steps <= chow.MAX_POW_STEPS, estimated from log-gamma values: the
    terms rise while k <= (n + 1) / (c + 1)."""
    k = min(steps, (n + 1) // (c + 1))
    # n may be far beyond float range, so it is compared, not multiplied
    if c > 1 and n - k > MAX_DIGITS / math.log10(c):
        return math.inf
    j = min(k, n - k)
    if n < 10**12:
        ln_binomial = math.lgamma(n + 1) - math.lgamma(n - j + 1) - math.lgamma(j + 1)
    else:  # j <= steps is far below n, so n!/(n - j)! is n**j to a few ppm
        ln_binomial = j * math.log(n) - math.lgamma(j + 1)
    return (ln_binomial + (math.log(c) * (n - k) if c > 1 else 0.0)) / math.log(10)


def chow_result_to_json(value) -> dict:
    from . import chow

    if isinstance(value, chow.ChowClass):
        return {
            "class": [
                {"exponents": list(e), "coeff": str(value.coeffs[e])}
                for e in sorted(value.coeffs)
            ]
        }
    return {"deg": str(value)}


def chow_class_from_json(space: chow.ProjProduct, rows: list) -> chow.ChowClass:
    from . import chow

    return chow.ChowClass(
        space, {tuple(int(x) for x in r["exponents"]): int(r["coeff"]) for r in rows}
    )


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------


# the encoders of JSON leaves, by exact type; an object key is a str
_quote = json.encoder.encode_basestring_ascii
_JSON_LEAF = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_INT_ONLY, _STR_ONLY = frozenset({int}), frozenset({str})


def json_text(value, newline: str = "\n") -> str:
    """value as `json.dumps(value, indent=2)` writes it, byte for byte, at
    the given nesting (newline: a line break and the indent of value's own
    line).  Containers and leaves are dispatched by their exact type and a
    list of ints is joined in C, where json.dumps would run its pure-Python
    encoder; any other type (a float, a tuple, a subclass) and a dict with a
    key that is not a str are left to json.dumps."""
    kind = type(value)
    if kind in _JSON_LEAF:
        return _JSON_LEAF[kind](value)
    inner = newline + "  "
    if kind is list and value:
        if set(map(type, value)) == _INT_ONLY:
            items = map(int.__repr__, value)
        else:
            items = [json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and value and set(map(type, value)) == _STR_ONLY:
        items = []
        for k, v in value.items():
            leaf = _JSON_LEAF.get(type(v))
            items.append(_quote(k) + ": " + (leaf(v) if leaf else json_text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value, indent=2).replace("\n", newline)


def render_table(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json_text(rows)
    headers = list(rows[0])
    cells = [[_cell(r[h]) for h in headers] for r in rows]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [headers, *cells])
    if fmt == "md":
        lines = ["| " + " | ".join(row) + " |" for row in [headers, *cells]]
        return "\n".join([lines[0], "|" + "|".join(" --- " for _ in headers) + "|", *lines[1:]])


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "x".join(str(v) for v in value)
    return str(value)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        _print(text)


def _print(text: str) -> None:
    """Print text on stdout.  A reader that closes the pipe early (`| head`)
    ends the output, not the command, whose exit code stays its verdict:
    the rest is dropped, and stdout is pointed at os.devnull so that the
    flush at exit stays silent."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# subcommands: each returns its report and whether every check passed
# ---------------------------------------------------------------------------


def _cmd_snumbers(args) -> tuple[list, bool]:
    from . import stong

    # row d prints s = -2 * multinomial(2d + 2; dims): refuse at the first d
    # whose s has more than MAX_DIGITS digits, before any row is built
    for d, counts in stong.factor_counts(args.prime, args.max_d):
        ln_s = math.log(2) + math.lgamma(2 * d + 3) - sum(a * math.lgamma(n + 1) for n, a in counts)
        if ln_s >= MAX_DIGITS * math.log(10):
            raise ValueError(f"--max-d {args.max_d}: row d = {d} would print over {MAX_DIGITS} digits")
    rows = snumbers_rows(args.prime, args.max_d)
    return rows, all(r["match"] for r in rows)


def verdict_json(v: criterion.GeneratorVerdict) -> list[dict]:
    """The rows of a verdict, as the single-prime and sweep reports print them."""
    rows = []
    for r in v.rows:
        row = {"d": r.d, "required": r.required, "observed": r.observed, "pass": r.passed}
        if r.reason:
            row["reason"] = r.reason
        rows.append(row)
    return rows


def _cmd_verify_generators(args) -> tuple[dict, bool]:
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
        excluded = [2] if args.exclude is None else sorted(args.exclude)
        verdicts = criterion.global_criterion(fam, args.all_primes_up_to, d_max, excluded)
        ok = criterion.aggregate_passed(verdicts)
        rows = [{"prime": ell, "pass": v.passed, "rows": verdict_json(v)} for ell, v in verdicts.items()]
        report = {
            "kind": "msp", "prime_bound": args.all_primes_up_to, "excluded": excluded,
            "primes": list(verdicts), "max_d": d_max, "pass": ok, "verdicts": rows,
        }
    return report, ok


def _cmd_steenrod(args) -> tuple[list, bool]:
    from . import steenrod
    from .symfun import BPoly

    m = re.fullmatch(r"P(-?[0-9]+)", args.op)
    if not m:
        raise ValueError(f"cannot parse operation {args.op!r}, expected like P2")
    i, f = int(m.group(1)), BPoly(parse_b_class(args.cls), args.prime)
    power_op = steenrod.power_op_untwisted if args.untwisted else steenrod.power_op
    return bpoly_to_json(power_op(i, f, args.prime)), True


def _cmd_decomp_check(args) -> tuple[list, bool]:
    from . import adams

    report = adams.decomposition_check(args.max_weight, args.prime)
    rows = [
        {"weight": r.weight, "even_partitions": r.even_partition_count, "module_side": r.module_count,
         "equal": r.equal}
        for r in report.rows
    ]
    return rows, report.all_equal


def _cmd_ranks(args) -> tuple[list, bool]:
    from . import adams

    ranks = adams.e2_ranks(args.max_d)
    by_generators = adams.e2_ranks_from_generators(args.max_d, args.prime)
    rows = [
        {"d": d, "rank": rank, "by_generators": by_gens, "equal": rank == by_gens}
        for d, (rank, by_gens) in enumerate(zip(ranks, by_generators), 1)
    ]
    return rows, all(r["equal"] for r in rows)


def _parse_parts(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII digits, blanks allowed around each part; empty
    text is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    parts = [x.strip() for x in text.split(",")]
    for x in parts:
        if not re.fullmatch(r"[0-9]+", x):
            raise ValueError(f"cannot parse part {x!r}, expected a nonnegative integer")
    return tuple(int(x) for x in parts)


def _cmd_partition_tools(args) -> tuple[object, bool]:
    from . import partitions

    # argparse admits exactly one of --weight, --is-even and --is-ladic; the
    # parts are parsed before an option the mode does not read is refused
    if args.weight is None:
        p = partitions.Partition(_parse_parts(args.is_ladic if args.is_even is None else args.is_even))
    if args.predicate is not None and args.weight is None:
        raise ValueError("--predicate applies only to --weight")
    if args.prime is not None and args.is_ladic is None and args.predicate != "even-non-ladic":
        raise ValueError("--prime applies only to --is-ladic and --predicate even-non-ladic")
    if args.is_even is not None:
        return {"partition": list(p), "is_even": p.is_even()}, True
    ell = 3 if args.prime is None else args.prime
    if args.is_ladic is not None:
        return {"partition": list(p), "prime": ell, "is_ladic": p.is_ladic(ell)}, True
    # the even predicates enumerate the partitions of weight / 2 and double them
    w = args.weight
    predicate = "all" if args.predicate is None else args.predicate
    n = w if predicate == "all" else (w // 2 if w % 2 == 0 else 0)
    from . import adams

    # p increases, and p(100) is far above the limit, so counting stops there
    if adams._partition_numbers(min(n, 100))[-1] > MAX_PARTITIONS:
        raise ValueError(f"--weight {w} would list more than {MAX_PARTITIONS} partitions")
    return [list(p) for p in partitions.enumerate_partitions(w, predicate, ell)], True


def _cmd_u_to_b(args) -> tuple[list, bool]:
    from . import symfun

    return bpoly_to_json(symfun.u_to_b(_parse_parts(args.partition), modulus=args.modulus)), True


def _cmd_chow(args) -> tuple[dict, bool]:
    from . import chow

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
    value = eval_chow_expr(space, payload["expr"])
    return {"space": list(space.dims), **chow_result_to_json(value)}, True


def _cmd_self_test(args) -> tuple[str, bool]:
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
        pairs = [(d, ell) for d in range(1, 16) for ell in (3, 5, 7)]
        return all(adams.e2_rank(d) == adams.e2_rank_from_generators(d, ell) for d, ell in pairs)

    def anchor_holds() -> bool:
        anchor = BPoly({((1, 3),): 2, ((1, 1), (2, 1)): 1}, 3)
        return steenrod.power_op(2, BPoly.generator(1, 3), 3) == anchor

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


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .partitions import PREDICATES

    parser = argparse.ArgumentParser(
        prog="cobcalc",
        description="Exact calculator for characteristic numbers, valuations, "
        "power operations, and generator criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, render=lambda report, _format: json_text(report), output=True):
        """A subcommand: main renders what func returns as render(report, format).
        A table renderer brings --format; output=False drops --output."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, render=render, format=None, output=None)
        if render is render_table:
            p.add_argument("--format", choices=("json", "md", "csv"), default="json")
        if output:
            p.add_argument("--output", "-o", help="write the report to a file instead of stdout")
        return p

    p = command("snumbers", _cmd_snumbers, "characteristic-number valuation table", render_table)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--max-d", type=int, required=True)

    p = command("verify-generators", _cmd_verify_generators, "run the generator criterion")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--prime", type=int)
    g.add_argument("--all-primes-up-to", type=int)
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--family", help="JSON family file; default: the construction")
    p.add_argument(
        "--exclude", type=int, nargs="*", help="primes excluded from the all-primes sweep (default: 2)"
    )

    p = command("steenrod", _cmd_steenrod, "apply a power operation to a b-monomial")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--op", required=True, help="operation, e.g. P2")
    p.add_argument("--class", dest="cls", required=True, help='e.g. "b1^2*b2"')
    p.add_argument(
        "--untwisted", action="store_true",
        help="classifying-space action instead of the rank-twisted one",
    )

    p = command("decomp-check", _cmd_decomp_check, "graded-dimension decomposition identity",
                render_table)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)

    p = command("ranks", _cmd_ranks, "per-degree diagonal ranks, two ways", render_table)
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--prime", type=int, default=3, help="prime for the generator route")

    p = command("partition-tools", _cmd_partition_tools, "partition enumeration and predicates")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weight", type=int)
    mode.add_argument("--is-even", metavar="PARTS", help='e.g. "4,2"')
    mode.add_argument("--is-ladic", metavar="PARTS", help='e.g. "8,4"')
    p.add_argument("--predicate", choices=PREDICATES, help="with --weight; default: all")
    p.add_argument("--prime", type=int, help="with --is-ladic or even-non-ladic; default: 3")

    p = command("u-to-b", _cmd_u_to_b, "b-polynomial of an even partition")
    p.add_argument("--partition", required=True, help='e.g. "4,2"; empty for ()')
    p.add_argument("--modulus", type=int, default=None)

    p = command("chow", _cmd_chow, "evaluate a degree/class expression")
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")

    command("self-test", _cmd_self_test, "run the built-in invariant suite",
            render=lambda text, _format: text, output=False)

    return parser


# CPython 3.11 can lose a MemoryError raised inside a C call once the address
# space runs out, and raise a SystemError with one of these messages instead
_LOST_MEMORY_ERROR = ("returned NULL without setting an exception", "error return without exception set")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, ok = args.func(args)
        _emit(args.render(report, args.format), args.output)
        return 0 if ok else 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a deeply nested payload exhausts the stack of the JSON decoder
        # or of the recursive evaluators
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a failed internal check, such as a Conner-Floyd coefficient that
        # is not integral or an oracle's divisibility or symmetry check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        message = "out of memory"
    except Exception as exc:
        # any other failure is still reported on one line, with exit 2
        message = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        if isinstance(exc, SystemError) and str(exc).endswith(_LOST_MEMORY_ERROR):
            message = "out of memory"
    # printed outside the handler, once the frames its traceback held, and
    # the memory they hold, are released
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
