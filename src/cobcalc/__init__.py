"""cobcalc: exact-arithmetic characteristic numbers, l-adic valuations,
power operations, and polynomial-generator criteria.

`import cobcalc` loads no submodule.  Each public name below is imported
from its home module on first access (PEP 562), so `cobcalc.build_X` loads
`stong` and what it needs, and `from cobcalc import *` loads everything.
The command line likewise imports only what the command runs: `cli` holds
the parser, dispatch and renderers, and each group of commands has its own
private module `_cmd_*`, which no library module imports.
"""

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "valuation": ("LadicDigits", "ladic_digits", "multinomial", "nu", "nu_factorial", "nu_multinomial"),
    "partitions": ("Partition", "concat", "enumerate_partitions"),
    "symfun": (
        "BPoly", "SymFn", "ZClass", "convert", "diagonal", "expand_in_vars", "pair", "u_to_b", "z_mul",
    ),
    "space": ("ProjProduct",),
    "chow": (
        "ChowClass", "LineTerm", "VirtualBundle",
        "alpha", "cf_chern", "deg", "newton_class", "tangent_bundle",
    ),
    "stong": (
        "StongDatum", "build_X", "congruence_check", "s_number",
        "s_number_bruteforce", "signed_char_number", "valuation_table",
    ),
    "steenrod": ("power_op", "power_op_oracle", "power_op_untwisted", "total_power_on_monomial"),
    "adams": ("decomposition_check", "e2_rank", "e2_rank_from_generators"),
    "criterion": (
        "CandidateFamily", "GeneratorVerdict", "global_criterion",
        "mgl_criterion", "msp_criterion", "stong_family",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
