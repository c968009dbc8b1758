"""cobcalc benchmark: one client, one op at a time, in fresh interpreters.

    python3 bench/run.py --workload {cli,algebra,geometry} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`.  A run is a number of passes, each a fresh interpreter that sets up
the workload's seeded op list, times every op, then checks every answer by
an independent route (see ops.py); later passes must give the same
answers as the first, checked one.  The pass count is `--seconds` divided by
the workload's nominal pass time, so the op count is fixed for a given
`--seconds` and the run lasts about that long at the seed.

Every time is CPU time (user plus system) of the process doing the work,
not wall-clock time: on a shared host the wall clock also counts the spells
when the host runs other tenants, which moved medians of wall-clock runs of
the same code by a third.  Ops are single-threaded and do not wait on I/O,
so on an idle machine the two agree.  CPU time still swings by a quarter
within seconds on a shared host, so op times are scaled to the speed of a
fixed reference loop timed between the ops (worker.SpeedProbe).
The report gives each pass's wall-clock time and median reference time.

With `--trace 0` the last stdout line holds the end-to-end metrics
(setup_s, wall_s, op_p50_ms, op_tail_ms, peak_rss_mb, error_rate; see
`summarize`).  With `--trace 1` half the passes run untraced and half
traced, alternating, and the last line holds the per-layer metrics, medians
over traced passes, plus trace.overhead_ratio.  The line before it is a report
with provenance, the tail percentile and its sample count, and every
failed op.  The exit code is nonzero, with no result line, when the
checkout has no package source or a pass crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

# nominal seconds per pass at the seed (2-core x86, Python 3.11); only the
# pass count depends on it
PASS_SECONDS = {"cli": 10.0, "algebra": 7.5, "geometry": 5.5}
PASS_LIMIT_S = 170.0
# extra set-ups after each untraced pass of an in-process workload, so the
# set-up samples spread over the run (cli measures its own)
SETUP_PROBES = 2
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for name in tracer.Spans().snapshot():
        units[name] = "s" if name.endswith("_s") else "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def nearest_rank(sorted_values: list, pct: float):
    # ceil(pct/100 * n) in integers; the ladder has one decimal place
    k = max(1, -(-round(pct * 10) * len(sorted_values) // 1000))
    return sorted_values[k - 1], len(sorted_values) - k


def tail_percentile(values: list) -> tuple[float, float, int]:
    """Highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples above its nearest rank: (percentile, value, samples beyond).
    Falls back to the median when there are too few samples."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    value, beyond = nearest_rank(ordered, 50.0)
    return 50.0, value, beyond


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def run_pass(workload: str, seed: int, trace: bool, checked: dict | None = None,
             setup_only: bool = False) -> dict:
    """One pass in a fresh worker.  With `checked` (an earlier, fully
    checked pass of the same op list) the worker skips the checks, and
    each op takes the verdict of the checked pass when its answer digest
    is the same; a different answer fails."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "pass", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--check", str(int(checked is None))]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=PASS_LIMIT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"pass of {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    if checked is not None and not setup_only:
        for record, reference in zip(result["ops"], checked["ops"]):
            if record[2] is None and record[4] is not None:
                same = record[4] == reference[4]
                record[2] = reference[2] if same else "answer differs from the checked pass"
    return result


def summarize(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over passes, and report details.

    setup_s is the median of the set-up samples, times the median speed
    of the passes (REFERENCE_NOMINAL_S over the pass's median reference
    timing): set-up is process start, whose CPU time the reference tracks
    over minutes but not sample by sample.  Every pass runs the same
    op list, so op i has one time per pass.
    wall_s sums each op's median time over the passes and op_p50_ms is the
    median over ops of each op's median successful time: a slow spell of
    the machine during one pass moves neither.  op_tail_ms pools every
    successful sample."""
    ok_ms, per_op_ms, wall, attempted, failed, failures = [], [], 0.0, 0, 0, []
    for i in range(len(passes[0]["ops"])):
        records = [p["ops"][i] for p in passes]
        wall += statistics.median(r[1] for r in records)
        ok = [r[1] * 1000 for r in records if r[2] is None]
        ok_ms.extend(ok)
        if ok:
            per_op_ms.append(statistics.median(ok))
        for name, _, error, known, _ in records:
            attempted += 1
            if error is not None:
                failed += 1
                failures.append({"op": name, "error": error, "known_defect": known})
    pct, tail, beyond = tail_percentile(ok_ms)
    metrics = {
        "setup_s": statistics.median(setups) * statistics.median(p["speed"] for p in passes),
        "wall_s": wall,
        "op_p50_ms": statistics.median(per_op_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "error_rate": failed / attempted,
    }
    details = {
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": sum(1 for f in failures if not f["known_defect"]),
        "setup_samples": len(setups),
        "ops_per_pass": len(passes[0]["ops"]),
        "latency_samples": len(ok_ms),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "failures": _dedupe(failures),
    }
    return metrics, details


def _dedupe(failures: list[dict]) -> list[dict]:
    seen, out = set(), []
    for f in failures:
        key = (f["op"], f["error"])
        if key not in seen:
            seen.add(key)
            out.append(dict(f, count=sum(1 for g in failures if (g["op"], g["error"]) == key)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(PASS_SECONDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cobcalc", "__init__.py")):
        print(f"error: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    first = run_pass(args.workload, args.seed, False)
    untraced, traced, setups = [first], [], []
    if args.trace:
        for i in range(max(1, count // 2)):
            if i:
                untraced.append(run_pass(args.workload, args.seed, False, first))
            traced.append(run_pass(args.workload, args.seed, True, first))
    else:
        for i in range(count):
            if i:
                untraced.append(run_pass(args.workload, args.seed, False, first))
            if args.workload != "cli":
                for _ in range(SETUP_PROBES):
                    setups += run_pass(args.workload, args.seed, False, setup_only=True)["setup_s"]
    setups += [t for p in untraced for t in p["setup_s"]]
    metrics, details = summarize(untraced, setups)
    if traced:
        traced_metrics, traced_details = summarize(traced, setups)
        for key in ("attempted", "failed", "unexpected_failures"):
            details[key] += traced_details[key]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = traced_metrics["wall_s"] / metrics["wall_s"] - 1
        units = per_layer_units()
    else:
        values = metrics
        units = END_TO_END_UNITS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loop": "closed, one client, one op at a time",
        "clock": "CPU time of the process doing the work; op times scaled "
                 "to a reference speed",
        "wall_clock_s": [p["wall_clock_s"] for p in untraced + traced],
        "reference_ms": [p["reference_ms"] for p in untraced + traced],
        "unwrapped_when_traced": tracer.UNWRAPPED if traced else [],
        **details,
    }
    if traced:
        report["end_to_end_untraced"] = metrics
    print(json.dumps({"report": report}))
    result = {
        "correct": details["unexpected_failures"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
