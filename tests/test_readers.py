"""Every function, class and method in src/cobcalc has a reader outside the
tests: a command, a check, a benchmark op or a public export.  A name that
only tests read is code no user reaches; it moves to the tests that read it.

A name is read when a NAME token equal to it (comments and strings do not
count) stands anywhere but after its own `def` or `class` in src/cobcalc,
bench/*.py or tests/test_acceptance.py; when a word equal to it appears in
README.md or a CI workflow; or when cobcalc exports it.  Dunders are exempt,
and so are the `run_*` commands, which `cli.main` reaches through getattr.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import cobcalc

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cobcalc").glob("*.py"))
CODE_READERS = [*SOURCES, *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
TEXT_READERS = [ROOT / "README.md", *sorted((ROOT / ".github" / "workflows").glob("*.yml"))]


def defined_names(sources=SOURCES) -> dict:
    """name -> the places it is defined, as 'file:line'."""
    out: dict = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    return out


def read_names(readers=CODE_READERS) -> set:
    """The NAME tokens of the code readers, less each defined name itself."""
    out: set = set()
    for path in readers:
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                out.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return out


def test_every_name_in_src_has_a_reader_outside_the_tests():
    words = set()
    for path in TEXT_READERS:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    read = read_names() | words | set(cobcalc.__all__)
    unread = {
        name: places
        for name, places in defined_names().items()
        if name not in read
        and not (name.startswith("__") and name.endswith("__"))
        and not name.startswith("run_")
    }
    assert unread == {}, "read by no command, check, benchmark op or export: " + ", ".join(
        f"{name} ({', '.join(places)})" for name, places in sorted(unread.items())
    )


def test_the_guard_sees_a_name_only_a_test_reads(tmp_path):
    # a name in a comment, a string or its own def line is not read
    module = tmp_path / "m.py"
    module.write_text(
        "def used():  # unused\n"
        "    return 'unused'\n"
        "\n"
        "def unused():\n"
        "    return used()\n"
    )
    assert defined_names([module]) == {"used": ["m.py:1"], "unused": ["m.py:4"]}
    read = read_names([module])
    assert "used" in read and "unused" not in read
