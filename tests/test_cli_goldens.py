"""Byte-stability of CLI reports: every README CLI example, plus two
desk-scale queries, must print exactly the stdout recorded in
goldens/cli_readme.json (SHA-256 and length)."""

import hashlib
import json
from pathlib import Path

import pytest

from cobcalc import cli

GOLDENS = json.loads((Path(__file__).parent / "goldens" / "cli_readme.json").read_text())

# the README's sample family covers d <= 3 only; this one covers --max-d 4
FAMILY = {"kind": "msp", "entries": {"1": "48", "2": "1440", "3": "672", "4": "504"}}
CHOW_EXPR = {"space": [1, 1, 1, 1], "expr": {"op": "deg", "of": {"op": "pow", "base": "alpha", "n": 4}}}

COMMANDS = {
    "snumbers-md": ("snumbers", "--prime", "3", "--max-d", "10", "--format", "md"),
    "verify-p3": ("verify-generators", "--prime", "3", "--max-d", "20"),
    "verify-all-7": ("verify-generators", "--all-primes-up-to", "7", "--max-d", "10"),
    "verify-family": ("verify-generators", "--prime", "5", "--max-d", "4", "--family", "{family}"),
    "steenrod-b1": ("steenrod", "--prime", "3", "--op", "P2", "--class", "b1"),
    "steenrod-untwisted": ("steenrod", "--prime", "3", "--op", "P2", "--class", "b1^2*b2", "--untwisted"),
    "decomp-60": ("decomp-check", "--prime", "3", "--max-weight", "60"),
    "ranks-30": ("ranks", "--max-d", "30"),
    "partitions-8": ("partition-tools", "--weight", "8", "--predicate", "even-non-ladic", "--prime", "3"),
    "is-ladic": ("partition-tools", "--is-ladic", "8,4", "--prime", "3"),
    "u-to-b-4-2": ("u-to-b", "--partition", "4,2"),
    "chow-readme": ("chow", "--input", "{chow}"),
    "self-test": ("self-test",),
    "u-to-b-12-12-8-4": ("u-to-b", "--partition", "12,12,8,4"),
    "steenrod-p5-b4": ("steenrod", "--prime", "5", "--op", "P2", "--class", "b4"),
}


def digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_command(name, tmp_path, capsys) -> str:
    files = {"family": FAMILY, "chow": CHOW_EXPR}
    for key, payload in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(payload))
    argv = [a.format(**{k: str(tmp_path / f"{k}.json") for k in files}) for a in COMMANDS[name]]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_goldens_cover_every_command():
    assert set(GOLDENS) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, tmp_path, capsys):
    assert digest(run_command(name, tmp_path, capsys)) == GOLDENS[name]
