"""One benchmark pass in a fresh interpreter, so the package's lru_cache
tables start empty as in a user's session.

    python3 bench/worker.py pass --workload W --seed S --trace 0|1
    python3 bench/worker.py cli-main --timeout S -- <cobcalc argv>

`pass` runs the workload's seeded op list once and prints one JSON line:
set-up times (CPU seconds of the worker from its start to the first op;
for cli, of fresh `import cobcalc` processes), one record per op (name, seconds,
failure reason or null, known defect, answer digest), the pass's
wall-clock time, median reference time and speed (REFERENCE_NOMINAL_S over
that median), peak RSS and, when traced, the per-layer span totals.

Times are CPU time (user plus system) of the process doing the work: the
worker itself for in-process ops, the reaped child for cli ops.  Every op is
single-threaded and computes without waiting on I/O, so on an idle machine
its CPU time is its latency; on a shared host CPU time leaves out the spells
when the host runs someone else (steal), which wall-clock time does not.
Op times are then scaled to a reference speed (see `SpeedProbe`).
Set-up times are not scaled here: process start dominates them, and
scaling each by the reference timings next to it widened their spread;
run.py scales their median by the run's median speed instead.
`cli-main` runs `cobcalc.cli.main(argv)` in-process with the tracer
installed; `run.py` starts it once per CLI op in traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
IMPORT_PROBES = 4
# The reference work's CPU time at the speed times are scaled to: about its
# median on the 2-core x86 host (Python 3.11) the bounds were set on.
REFERENCE_NOMINAL_S = 0.006
# op CPU time between two reference timings
REFERENCE_EVERY_S = 0.05

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import ops  # noqa: E402
import tracer  # noqa: E402


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def reference_s() -> float:
    """CPU seconds of a fixed piece of dict and integer work, about 5 ms,
    that uses no package code.  The cyclic GC is paused so the size of the
    program's heap does not change it."""
    gc.disable()
    start = time.process_time()
    a = {(i, j): 7 * i + j for i in range(12) for j in range(12)}
    b = {(i, j): i - 3 * j for i in range(12) for j in range(12)}
    out = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    elapsed = time.process_time() - start
    gc.enable()
    return elapsed


class SpeedProbe:
    """Scales CPU times to the speed at which the host ran the reference.

    On a shared host the CPU time of the same work swings by a quarter
    within seconds, as other tenants load the caches and cores this one
    shares.  The probe times `reference_s` before the first op, again
    whenever REFERENCE_EVERY_S of op time has passed, and after the last
    op.  An op's time is scaled by REFERENCE_NOMINAL_S over the mean of the
    reference timings just before and just after it.  The reference is
    fixed code outside the package, so a change to the package moves the
    scaled times as much as the raw ones.  `reference` is injectable for
    tests."""

    def __init__(self, reference=reference_s):
        self.reference = reference
        self.refs = [reference()]
        self.since = 0.0
        self.before: list[int] = []  # index of the last reference before each op

    def before_op(self) -> None:
        if self.since >= REFERENCE_EVERY_S:
            self.refs.append(self.reference())
            self.since = 0.0
        self.before.append(len(self.refs) - 1)

    def after_op(self, elapsed: float) -> None:
        self.since += elapsed

    def scaled(self, times: list[float]) -> list[float]:
        """The ops' times, in order, scaled; takes the closing reference."""
        self.refs.append(self.reference())
        return [t * 2 * REFERENCE_NOMINAL_S / (self.refs[i] + self.refs[i + 1])
                for t, i in zip(times, self.before)]


def children_cpu() -> float:
    """User plus system CPU seconds of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("COBCALC_BRUTEFORCE_CAP", None)
    return env


def import_package():
    import cobcalc

    if not os.path.abspath(cobcalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cobcalc imported from {cobcalc.__file__}, not from {SRC}")
    return cobcalc


def run_inprocess(workload: str, seed: int, trace: bool, setup_only: bool,
                  check: bool) -> dict:
    import_package()
    specs = ops.generate(workload, seed)
    calls = [ops.prepare(spec) for spec in specs]
    setup_s = [time.process_time()]
    if setup_only:
        return {"setup_s": setup_s}
    speed = SpeedProbe()
    spans = tracer.Spans() if trace else None
    if spans is not None:
        tracer.install(spans)
    signal.signal(signal.SIGALRM, _alarm)
    wall_start = time.perf_counter()
    outcomes = []
    for spec, call in zip(specs, calls):
        speed.before_op()
        error = None
        result = None
        if spans is not None:
            spans.enabled = True
        signal.setitimer(signal.ITIMER_REAL, ops.timeout_of(spec))
        start = time.process_time()
        try:
            result = call()
        except OpTimeout:
            error = f"timed out after {ops.timeout_of(spec)} s"
        except Exception as exc:  # an op's failure is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.process_time() - start
            speed.after_op(elapsed)
            signal.setitimer(signal.ITIMER_REAL, 0)
            if spans is not None:
                spans.enabled = False
                spans.reset_stack()
        outcomes.append((spec, elapsed, result, error))
    wall_clock_s = time.perf_counter() - wall_start
    scaled = speed.scaled([o[1] for o in outcomes])
    records = []
    verified = {}  # a repeated query with an identical answer is checked once
    for (spec, _, result, error), elapsed in zip(outcomes, scaled):
        digest = None
        if error is None:
            key = (spec, ops.fingerprint(result))
            digest = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
            if check and key not in verified:
                try:
                    verified[key] = ops.check(spec, result)
                except Exception as exc:  # a malformed answer fails its op
                    verified[key] = f"check raised {type(exc).__name__}: {exc}"
            error = verified.get(key)
        records.append([spec[0], elapsed, error, ops.is_known_defect(spec), digest])
    out = {
        "setup_s": setup_s,
        "ops": records,
        "wall_clock_s": wall_clock_s,
        "reference_ms": statistics.median(speed.refs) * 1000,
        "speed": REFERENCE_NOMINAL_S / statistics.median(speed.refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spans is not None:
        out["layers"] = spans.snapshot()
    return out


def run_cli(seed: int, trace: bool) -> dict:
    env = child_env()
    # The references run in this process and the ops in its children; on
    # one CPU they see the same host load.  Children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probes = []
    for _ in range(IMPORT_PROBES):
        start = children_cpu()
        subprocess.run([sys.executable, "-c", "import cobcalc"], env=env, cwd=ROOT, check=True)
        probes.append(children_cpu() - start)
    layers = dict.fromkeys(tracer.Spans().snapshot(), 0) if trace else None
    speed = SpeedProbe()
    records = []
    wall_start = time.perf_counter()
    for op in ops.cli_ops(seed):
        speed.before_op()
        if trace:
            argv = [sys.executable, os.path.join(HERE, "worker.py"), "cli-main",
                    "--timeout", str(op.timeout_s), "--", *op.argv]
            # the child stops itself at the op timeout; this is a backstop
            limit = op.timeout_s + 30
        else:
            argv = [sys.executable, "-m", "cobcalc.cli", *op.argv]
            limit = op.timeout_s
        stdin = None
        if op.stdin:
            with open(os.path.join(ROOT, op.stdin), "rb") as fh:
                stdin = fh.read()
        start = children_cpu()
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True, env=env,
                                  cwd=ROOT, timeout=limit)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = None, b"", b""
        elapsed = children_cpu() - start
        speed.after_op(elapsed)
        error = None
        if trace and code is not None:
            try:
                child = json.loads(stdout.decode("utf-8").splitlines()[-1])
            except (ValueError, IndexError):
                error = f"traced child exited {code} without a report"
            else:
                code = child["exit"]
                stdout = child["stdout"].encode("utf-8")
                stderr = child["stderr"].encode("utf-8")
                for name, value in child["layers"].items():
                    layers[name] += value
        if error is None:
            try:
                error = ops.check_cli(op, code, stdout, stderr)
            except ValueError as exc:  # output that is not the expected JSON
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append([op.name, elapsed, error, op.known_defect, None])
    wall_clock_s = time.perf_counter() - wall_start
    for record, elapsed in zip(records, speed.scaled([r[1] for r in records])):
        record[1] = elapsed
    out = {
        "setup_s": probes,
        "ops": records,
        "wall_clock_s": wall_clock_s,
        "reference_ms": statistics.median(speed.refs) * 1000,
        "speed": REFERENCE_NOMINAL_S / statistics.median(speed.refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if trace:
        out["layers"] = layers
    return out


def cli_main(argv: list[str], timeout_s: float) -> dict:
    """Traced `cobcalc.cli.main(argv)`: exit code as the shell would see
    it, captured stdout and stderr, and the span totals."""
    import_package()
    spans = tracer.Spans()
    tracer.install(spans)
    from cobcalc import cli

    signal.signal(signal.SIGALRM, _alarm)
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    spans.enabled = True
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except OpTimeout:
                raise
            except Exception:  # what the interpreter does with an uncaught error
                import traceback

                traceback.print_exc()
                code = 1
    except OpTimeout:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        spans.enabled = False
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "layers": spans.snapshot()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", choices=ops.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="stop before the first op")
    p.add_argument("--check", type=int, choices=(0, 1), default=1,
                   help="0: skip the answer checks, report answer digests only")
    p = sub.add_parser("cli-main")
    p.add_argument("--timeout", type=float, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli-main":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        out = cli_main(argv, args.timeout)
    elif args.workload == "cli":
        out = run_cli(args.seed, bool(args.trace))
    else:
        out = run_inprocess(args.workload, args.seed, bool(args.trace), args.setup_only,
                            bool(args.check))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
