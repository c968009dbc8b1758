"""Per-layer tracing installed from outside the package.

Every public function (no leading underscore) defined in a layer module,
plus `ChowClass.__pow__`, is replaced by a wrapper that opens a span on
entry and closes it on return or raise.  The replacement is made in the
globals of every loaded `cobcalc` module that binds the same function
object, so calls between layers (such as steenrod's own binding of
`symfn_to_bpoly`) are seen without editing the package.  Only public names
are touched.

The hot arithmetic dunders `BPoly.__mul__`, `ChowClass.__mul__` and
`Partition.__new__` stay unwrapped: their time counts toward the layer of
the function that called them.

A span's self time is its duration minus the time covered by its direct
child spans; summed over a layer this is the layer's span time minus the
nested spans of other layers.  Span totals are kept in memory and written
once when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "valuation",
    "partitions",
    "symfun",
    "chow",
    "stong",
    "steenrod",
    "adams",
    "criterion",
    "cli",
)
UNWRAPPED = ("BPoly.__mul__", "ChowClass.__mul__", "Partition.__new__")
TERM_LAYERS = ("symfun", "steenrod", "chow")


def output_size(result) -> int:
    """Terms in a sparse result (its coeffs dict), or items in a
    collection; 0 for anything else."""
    coeffs = getattr(result, "coeffs", None)
    if isinstance(coeffs, dict):
        return len(coeffs)
    if isinstance(result, (dict, list, tuple)):
        return len(result)
    return 0


class Spans:
    """Span accounting per layer.  `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.stack: list[list] = []  # [layer, is_oracle, start, child_time]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.out = dict.fromkeys(LAYERS, 0)
        self.oracle_self_s = 0.0

    def enter(self, layer: str, func: str) -> None:
        self.stack.append([layer, "oracle" in func, self.clock(), 0.0])

    def exit(self, result=None, error: bool = False) -> None:
        layer, is_oracle, start, child = self.stack.pop()
        duration = self.clock() - start
        own = duration - child
        self.self_s[layer] += own
        if is_oracle:
            self.oracle_self_s += own
        if self.stack:
            self.stack[-1][3] += duration
        self.calls[layer] += 1
        if error:
            self.errors[layer] += 1
        elif layer in TERM_LAYERS or layer == "partitions":
            self.out[layer] += output_size(result)

    def reset_stack(self) -> None:
        """Drop spans left open by an op cut off mid-call."""
        self.stack.clear()

    def snapshot(self) -> dict:
        """Per-layer totals under the names BENCHMARK.json uses."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for layer in TERM_LAYERS:
            out[f"{layer}.terms_out"] = self.out[layer]
        out["partitions.items_out"] = self.out["partitions"]
        out["steenrod.oracle_self_s"] = self.oracle_self_s
        out["steenrod.fast_self_s"] = self.self_s["steenrod"] - self.oracle_self_s
        return out


def _wrap(spans: Spans, layer: str, fn):
    name = fn.__name__

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not spans.enabled:
            return fn(*args, **kwargs)
        spans.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans.exit(error=True)
            raise
        spans.exit(result)
        return result

    return traced


def install(spans: Spans) -> None:
    """Wrap the layer functions and rebind them wherever they are bound."""
    importlib.import_module("cobcalc")
    originals: dict[int, tuple] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cobcalc.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                originals[id(obj)] = (obj, _wrap(spans, layer, obj))
    for modname, module in list(sys.modules.items()):
        if modname != "cobcalc" and not modname.startswith("cobcalc."):
            continue
        namespace = vars(module)
        for name, value in list(namespace.items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[name] = hit[1]
    chow = sys.modules["cobcalc.chow"]
    chow.ChowClass.__pow__ = _wrap(spans, "chow", chow.ChowClass.__pow__)
