"""The counting commands: `decomp-check` and `ranks`, which run `adams`,
and `partition-tools`, which runs `partitions` alone.

`cli.main` imports this module once argparse has chosen one of the three
commands.  `adams` is imported where its commands run, so
`partition-tools` compiles neither it nor any ring.
"""

from __future__ import annotations

from .partitions import Partition, _parse_parts, _partition_numbers, enumerate_partitions

# partitions `partition-tools` lists at most: the 89134 partitions of 45,
# the most it lists, take about 0.75 s as a command, 0.12 s of it to
# enumerate them and about 0.3 s to render the JSON list
MAX_PARTITIONS = 10**5


def run_decomp_check(args) -> tuple[list, bool]:
    from . import adams

    report = adams.decomposition_check(args.max_weight, args.prime)
    rows = [
        {"weight": r.weight, "even_partitions": r.even_partition_count, "module_side": r.module_count,
         "equal": r.equal}
        for r in report.rows
    ]
    return rows, report.all_equal


def run_ranks(args) -> tuple[list, bool]:
    from . import adams

    ranks = adams.e2_ranks(args.max_d)
    by_generators = adams.e2_ranks_from_generators(args.max_d, args.prime)
    rows = [
        {"d": d, "rank": rank, "by_generators": by_gens, "equal": rank == by_gens}
        for d, (rank, by_gens) in enumerate(zip(ranks, by_generators), 1)
    ]
    return rows, all(r["equal"] for r in rows)


def run_partition_tools(args) -> tuple[object, bool]:
    # argparse admits exactly one of --weight, --is-even and --is-ladic; the
    # parts are parsed before an option the mode does not read is refused
    if args.weight is None:
        p = Partition(_parse_parts(args.is_ladic if args.is_even is None else args.is_even))
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
    # p increases, and p(100) is far above the limit, so counting stops there
    if _partition_numbers(min(n, 100))[-1] > MAX_PARTITIONS:
        raise ValueError(f"--weight {w} would list more than {MAX_PARTITIONS} partitions")
    return [list(p) for p in enumerate_partitions(w, predicate, ell)], True
