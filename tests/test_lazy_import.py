"""`import cobcalc` loads no submodule, and each command loads only the
modules it runs.  Each load check runs in a fresh interpreter, since this
process has imported everything already."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cobcalc

SRC = Path(__file__).resolve().parent.parent / "src"
# modules that none of the counting commands need
HEAVY = {"cobcalc.symfun", "cobcalc.chow", "cobcalc.steenrod", "cobcalc.stong"}


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def loaded_by(code: str) -> set[str]:
    """The cobcalc submodules a fresh interpreter holds after running code."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cobcalc.'))))"
    )
    proc = run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_by_main(argv: list[str]) -> set[str]:
    """The cobcalc submodules loaded by cli.main(argv), which must exit 0."""
    return loaded_by(f"from cobcalc import cli\nassert cli.main({argv!r}) == 0")


def test_import_loads_no_submodule():
    assert loaded_by("import cobcalc") == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["decomp-check", "--prime", "3", "--max-weight", "20"],
        ["ranks", "--max-d", "10"],
        ["partition-tools", "--is-ladic", "8,4", "--prime", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_counting_commands_skip_the_rings(argv):
    assert not loaded_by_main(argv) & HEAVY


def test_cf_skips_symmetric_functions(tmp_path):
    # a Conner-Floyd class comes from its generating function, not from m_I in power sums
    cf = {"op": "cf", "bundle": "tangent", "partition": [2, 1, 1]}
    (tmp_path / "cf.json").write_text(json.dumps({"space": [2, 2], "expr": cf}))
    loaded = loaded_by_main(["chow", "--input", str(tmp_path / "cf.json")])
    assert "cobcalc.chow" in loaded and "cobcalc.symfun" not in loaded


def test_snumbers_skips_symmetric_functions():
    loaded = loaded_by_main(["snumbers", "--prime", "3", "--max-d", "5"])
    assert "cobcalc.stong" in loaded and "cobcalc.symfun" not in loaded


def test_module_entry_point_loads_only_its_command():
    # -X importtime reports every module the process imports, on stderr
    proc = run_fresh("-X", "importtime", "-m", "cobcalc.cli", "ranks", "--max-d", "30")
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "cobcalc.adams" in imported
    assert not imported & {"cobcalc.symfun", "cobcalc.chow", "cobcalc.steenrod"}


def imported_modules(*args: str, stdin: str | None = None) -> set[str]:
    """Every module a fresh interpreter imports running args, read from the
    -X importtime report on stderr; the process must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


README_CHOW = '{"space": [1,1,1,1], "expr": {"op": "deg", "of": {"op": "pow", "base": "alpha", "n": 4}}}'


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["ranks", "--max-d", "30"], None),
        (["snumbers", "--prime", "3", "--max-d", "5"], None),
        (["steenrod", "--prime", "3", "--op", "P2", "--class", "b1"], None),
        (["chow", "--input", "-"], README_CHOW),
        (["self-test"], None),
    ],
    ids=["ranks", "snumbers", "steenrod", "chow", "self-test"],
)
def test_commands_load_neither_dataclasses_nor_inspect(argv, stdin):
    # site may import modules before any command runs: those are not the
    # command's doing, so a bare interpreter's imports are subtracted
    bare = imported_modules("-c", "pass")
    loaded = imported_modules("-m", "cobcalc.cli", *argv, stdin=stdin) - bare
    assert "cobcalc.partitions" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_chow_loads_neither_array_nor_typing():
    # without site, which may import typing before any module runs
    bare = imported_modules("-S", "-c", "pass")
    loaded = imported_modules("-S", "-c", "import cobcalc.chow") - bare
    assert "cobcalc.chow" in loaded
    assert not loaded & {"array", "typing"}


@pytest.mark.parametrize("name", cobcalc.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(cobcalc, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("cobcalc.")
    assert getattr(home, name) is obj


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cobcalc import *", namespace)
    for name in cobcalc.__all__:
        assert namespace[name] is getattr(cobcalc, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cobcalc.no_such_name
    assert not hasattr(cobcalc, "no_such_name")


def test_dir_lists_the_public_names():
    assert set(cobcalc.__all__) <= set(dir(cobcalc))


CMD_MODULES = {"cobcalc._cmd_chow", "cobcalc._cmd_counting", "cobcalc._cmd_self_test",
               "cobcalc._cmd_stong", "cobcalc._cmd_symfun"}
RING = {"cobcalc.chow", "cobcalc._sparse"}
# one run of each command, with its own command module and the library
# modules it must not load; a "chow.json" argument names README_CHOW
COMMANDS = {
    "snumbers": (["snumbers", "--prime", "3", "--max-d", "5"], "_cmd_stong", RING | {"cobcalc.criterion"}),
    "verify-generators": (["verify-generators", "--prime", "3", "--max-d", "5"], "_cmd_stong", RING),
    "steenrod": (["steenrod", "--prime", "3", "--op", "P2", "--class", "b1"], "_cmd_symfun",
                 {"cobcalc.chow", "cobcalc.stong"}),
    "u-to-b": (["u-to-b", "--partition", "4,2"], "_cmd_symfun", {"cobcalc.steenrod", "cobcalc.chow"}),
    "decomp-check": (["decomp-check", "--prime", "3", "--max-weight", "20"], "_cmd_counting", HEAVY),
    "ranks": (["ranks", "--max-d", "10"], "_cmd_counting", HEAVY),
    "partition-tools": (["partition-tools", "--weight", "8"], "_cmd_counting", HEAVY | {"cobcalc.adams"}),
    "chow": (["chow", "--input", "chow.json"], "_cmd_chow", {"cobcalc.stong", "cobcalc.symfun"}),
    "self-test": (["self-test"], "_cmd_self_test", set()),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_own_command_module(command, tmp_path):
    argv, own, skipped = COMMANDS[command]
    (tmp_path / "chow.json").write_text(README_CHOW)
    argv = [str(tmp_path / a) if a == "chow.json" else a for a in argv]
    loaded = loaded_by_main(argv)
    assert loaded & CMD_MODULES == {f"cobcalc.{own}"}
    assert not loaded & skipped


def test_library_imports_load_no_command_module():
    paths = (SRC / "cobcalc").glob("*.py")
    libraries = [p.stem for p in paths if not p.stem.startswith(("_cmd_", "cli", "__init__"))]
    loaded = loaded_by("\n".join(f"import cobcalc.{name}" for name in libraries))
    assert "cobcalc.criterion" in loaded and not loaded & CMD_MODULES


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["snumbers", "--prime", "3", "--max-d", "5"], None),
        (["u-to-b", "--partition", "4,2"], None),
        (["partition-tools", "--weight", "8"], None),
        (["chow", "--input", "-"], README_CHOW),
        (["self-test"], None),
    ],
    ids=["_cmd_stong", "_cmd_symfun", "_cmd_counting", "_cmd_chow", "_cmd_self_test"],
)
def test_module_entry_point_imports_cli_once(argv, stdin):
    # run as `python -m cobcalc.cli`, the front end is __main__; a command
    # module that imported cobcalc.cli would compile and run it again
    loaded = imported_modules("-m", "cobcalc.cli", *argv, stdin=stdin)
    assert "cobcalc.partitions" in loaded and "cobcalc.cli" not in loaded


def test_proj_product_is_one_class():
    from cobcalc import chow, space

    assert chow.ProjProduct is cobcalc.ProjProduct is space.ProjProduct


def test_table_rows_pickle_compare_and_print_without_the_ring():
    loaded = loaded_by(
        "import pickle\n"
        "from cobcalc import stong\n"
        "row, X = stong.valuation_table(3, 4)[-1], stong.build_X(4, 3)\n"
        "for obj in (row, row.factors, X):\n"
        "    back = pickle.loads(pickle.dumps(obj))\n"
        "    assert type(back) is type(obj) and back == obj and hash(back) == hash(obj)\n"
        "    assert repr(back) == repr(obj)\n"
        "assert row.factors == X and repr(row) == ("
        "'StongDatum(d=4, factors=ProjProduct(1, 3, 3, 3), s_number=-33600, '"
        "'valuation=1, expected=1)')"
    )
    assert "cobcalc.stong" in loaded and not loaded & RING
