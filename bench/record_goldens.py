"""Record the benchmark's goldens from the current source tree.

    python3 bench/record_goldens.py [--cli] [--power]

--cli   writes goldens/cli.json: SHA-256 and length of the stdout of every
        CLI op whose expectation is "golden", after checking it exits 0.
--power writes goldens/power_ops.json: for every (prime, index, monomial)
        of the power-operation pool, the twisted answer from the literal
        root-expansion oracle at its stability bound, and the untwisted
        answer derived from oracle values alone:
            untw(2t, f) = oracle(2t, f) - sum_{a<t} untw(2a, f) * oracle(2(t-a), 1)
        since the twisted action of index 2t is the sum over a+b=t of the
        untwisted index-2a action times the twist, and the twist of index
        2b is the twisted action on the unit.

The committed goldens were recorded from the seed commit; re-record only
when the expected answers change on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import worker  # noqa: E402


def record_cli() -> None:
    goldens = {}
    for op in ops.CLI_OPS:
        if op.expect != "golden":
            continue
        argv = ops.GOLDEN_SOURCES.get(op.name, op.argv)
        stdin = None
        if op.stdin:
            with open(os.path.join(ROOT, op.stdin), "rb") as fh:
                stdin = fh.read()
        proc = subprocess.run([sys.executable, "-m", "cobcalc.cli", *argv], input=stdin,
                              capture_output=True, env=worker.child_env(), cwd=ROOT, timeout=300)
        if proc.returncode != 0:
            raise SystemExit(f"{op.name}: exit {proc.returncode}\n{proc.stderr.decode()}")
        goldens[op.name] = ops.digest(proc.stdout)
        print(f"{op.name}: {len(proc.stdout)} bytes")
    with open(ops.CLI_GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_power() -> None:
    from cobcalc.steenrod import power_op_oracle, stability_bound
    from cobcalc.symfun import BPoly

    def oracle(i, f, ell):
        return power_op_oracle(i, f, ell, stability_bound(f, i, ell))

    twisted, untwisted = {}, {}
    for ell, i, mono in ops.power_pool():
        f = BPoly({mono: 1}, ell)
        one = BPoly.one(ell)
        untw = [f]
        for t in range(1, i // 2 + 1):
            acc = oracle(2 * t, f, ell)
            for a in range(t):
                acc = acc + untw[a] * oracle(2 * (t - a), one, ell).scale(-1)
            untw.append(acc)
        key = ops.power_key(ell, i, mono)
        twisted[key] = ops.bpoly_rows(oracle(i, f, ell))
        untwisted[key] = ops.bpoly_rows(untw[-1])
        print(key, len(twisted[key]), len(untwisted[key]), flush=True)
    with open(os.path.join(ops.GOLDENS, "power_ops.json"), "w", encoding="utf-8") as fh:
        json.dump({"twisted": twisted, "untwisted": untwisted}, fh, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", action="store_true")
    parser.add_argument("--power", action="store_true")
    args = parser.parse_args()
    if args.cli:
        record_cli()
    if args.power:
        record_power()
    return 0


if __name__ == "__main__":
    sys.exit(main())
