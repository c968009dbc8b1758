"""Command-line front end.

All reports go to standard output as JSON (or Markdown/CSV where a table
format is offered); diagnostics go to standard error.  Output is
byte-stable for fixed inputs: fixed key order, decimal strings for big
integers, no timestamps.  Exit codes: 0 success (and all checks passed),
1 a check failed, 2 usage error.

This module holds what every command runs: the parser, the dispatch and
the renderers.  Each group of commands that drive the same library has its
own private module (`_cmd_stong`, `_cmd_chow`, `_cmd_symfun`,
`_cmd_counting`, `_cmd_self_test`), which `main` imports only once argparse
has chosen a command, so a process compiles only its command's code.  A
command `name` runs as `run_name` of its module, with dashes as
underscores, and returns its report and whether every check passed.  No
`_cmd_*` module imports this one: under `python -m cobcalc.cli` this module
runs as `__main__`, and importing it again would compile and run it twice.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module


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

    def command(name, module, help, render=lambda report, _format: json_text(report), output=True):
        """A subcommand run by module: main renders what it returns as
        render(report, format).  A table renderer brings --format;
        output=False drops --output."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(module=module, render=render, format=None, output=None)
        if render is render_table:
            p.add_argument("--format", choices=("json", "md", "csv"), default="json")
        if output:
            p.add_argument("--output", "-o", help="write the report to a file instead of stdout")
        return p

    p = command("snumbers", "_cmd_stong", "characteristic-number valuation table", render_table)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--max-d", type=int, required=True)

    p = command("verify-generators", "_cmd_stong", "run the generator criterion")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--prime", type=int)
    g.add_argument("--all-primes-up-to", type=int)
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--family", help="JSON family file; default: the construction")
    p.add_argument(
        "--exclude", type=int, nargs="*", help="primes excluded from the all-primes sweep (default: 2)"
    )

    p = command("steenrod", "_cmd_symfun", "apply a power operation to a b-monomial")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--op", required=True, help="operation, e.g. P2")
    p.add_argument("--class", dest="cls", required=True, help='e.g. "b1^2*b2"')
    p.add_argument(
        "--untwisted", action="store_true",
        help="classifying-space action instead of the rank-twisted one",
    )

    p = command("decomp-check", "_cmd_counting", "graded-dimension decomposition identity",
                render_table)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)

    p = command("ranks", "_cmd_counting", "per-degree diagonal ranks, two ways", render_table)
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--prime", type=int, default=3, help="prime for the generator route")

    p = command("partition-tools", "_cmd_counting", "partition enumeration and predicates")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weight", type=int)
    mode.add_argument("--is-even", metavar="PARTS", help='e.g. "4,2"')
    mode.add_argument("--is-ladic", metavar="PARTS", help='e.g. "8,4"')
    p.add_argument("--predicate", choices=PREDICATES, help="with --weight; default: all")
    p.add_argument("--prime", type=int, help="with --is-ladic or even-non-ladic; default: 3")

    p = command("u-to-b", "_cmd_symfun", "b-polynomial of an even partition")
    p.add_argument("--partition", required=True, help='e.g. "4,2"; empty for ()')
    p.add_argument("--modulus", type=int, default=None)

    p = command("chow", "_cmd_chow", "evaluate a degree/class expression")
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")

    command("self-test", "_cmd_self_test", "run the built-in invariant suite",
            render=lambda text, _format: text, output=False)

    return parser


# CPython 3.11 can lose a MemoryError raised inside a C call once the address
# space runs out, and raise a SystemError with one of these messages instead
_LOST_MEMORY_ERROR = ("returned NULL without setting an exception", "error return without exception set")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        module = import_module(f"{__package__}.{args.module}")
        report, ok = getattr(module, "run_" + args.command.replace("-", "_"))(args)
        _emit(args.render(report, args.format), args.output)
        return 0 if ok else 1
    except (ValueError, OSError, KeyError) as exc:
        message = str(exc)
        if message.startswith("Exceeds the limit ("):
            # Python's int-to-string refusal, whose advice the command line cannot follow
            message = f"a number has over {sys.get_int_max_str_digits()} digits"
        print(f"error: {message}", file=sys.stderr)
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
