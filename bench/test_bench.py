"""Self-tests of the benchmark: python3 -m pytest -q bench/test_bench.py"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["algebra", "geometry"])
def test_inputs_depend_only_on_the_seed(workload):
    assert ops.generate(workload, 7) == ops.generate(workload, 7)
    assert ops.generate(workload, 7) != ops.generate(workload, 8)


def test_cli_order_depends_only_on_the_seed():
    assert ops.cli_ops(3) == ops.cli_ops(3)
    assert ops.cli_ops(3) != ops.cli_ops(4)
    assert sorted(o.name for o in ops.cli_ops(3)) == sorted(o.name for o in ops.CLI_OPS)


def test_metric_names_and_units_match_benchmark_json():
    bench = load_benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.PASS_SECONDS)
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(20, 50.0, 10), (40, 75.0, 10), (100, 90.0, 10), (1000, 99.0, 10), (2000, 99.5, 10), (30000, 99.9, 30), (5, 50.0, 2)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct, beyond):
    values = list(range(n, 0, -1))
    got_pct, value, got_beyond = run.tail_percentile(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == n - beyond
    assert sum(1 for v in values if v > value) == beyond


def test_self_time_subtracts_nested_spans_of_other_layers():
    now = [0.0]
    spans = tracer.Spans(clock=lambda: now[0])
    spans.enter("symfun", "convert")        # t=0
    now[0] = 1.0
    spans.enter("symfun", "u_to_b")         # nested, same layer
    now[0] = 2.0
    spans.enter("valuation", "is_odd_prime")
    now[0] = 2.5
    spans.exit(True)                        # valuation 0.5
    now[0] = 4.0
    spans.exit(object())                    # u_to_b: 3.0 - 0.5
    now[0] = 5.0
    spans.enter("steenrod", "power_op_oracle")
    now[0] = 7.0
    spans.exit(error=True)                  # oracle 2.0
    now[0] = 8.0
    spans.exit(object())                    # convert: 8 - 3 - 2
    snap = spans.snapshot()
    assert snap["symfun.self_s"] == pytest.approx(8.0 - 0.5 - 2.0)
    assert snap["valuation.self_s"] == pytest.approx(0.5)
    assert snap["steenrod.self_s"] == pytest.approx(2.0)
    assert snap["steenrod.oracle_self_s"] == pytest.approx(2.0)
    assert snap["steenrod.fast_self_s"] == pytest.approx(0.0)
    assert snap["symfun.calls"] == 2 and snap["steenrod.errors"] == 1
    assert sum(v for k, v in snap.items() if k.endswith(".self_s")) == pytest.approx(8.0)


def test_tracer_sees_calls_between_layers():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import tracer\n"
        "from cobcalc import steenrod, symfun\n"
        "spans = tracer.Spans(); tracer.install(spans); spans.enabled = True\n"
        "steenrod.power_op(2, symfun.BPoly.generator(3, 5), 5)\n"
        "s = spans.snapshot()\n"
        "print(s['steenrod.calls'], s['symfun.calls'], s['symfun.terms_out'] > 0)\n"
    ) % (os.path.join(ROOT, "src"), HERE)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    steenrod_calls, symfun_calls, terms = out.stdout.split()
    assert int(steenrod_calls) >= 1
    assert int(symfun_calls) >= 1  # steenrod's own binding of symfn_to_bpoly
    assert terms == "True"


def test_own_construction_matches_the_package():
    from cobcalc import stong

    for ell in ops.GEOMETRY_PRIMES:
        for d in range(1, 60):
            assert ops.own_build_dims(d, ell) == tuple(sorted(stong.build_X(d, ell).dims, reverse=True))


def test_op_times_scale_by_the_references_around_each_op():
    refs = iter([0.004, 0.008, 0.012])
    speed = worker.SpeedProbe(reference=lambda: next(refs))  # 0.004 before all
    speed.before_op()
    speed.after_op(0.03)                    # below REFERENCE_EVERY_S
    speed.before_op()
    speed.after_op(0.03)
    speed.before_op()                       # 0.008 taken before this op
    speed.after_op(0.5)
    scaled = speed.scaled([0.03, 0.03, 0.5])  # 0.012 taken after the last
    nominal = worker.REFERENCE_NOMINAL_S
    assert scaled == pytest.approx([0.03 * nominal / 0.006, 0.03 * nominal / 0.006,
                                    0.5 * nominal / 0.010])


def test_checks_reject_wrong_answers():
    from cobcalc import chow

    assert ops.check(("s_number", (1, 1)), -4) is None
    assert ops.check(("s_number", (1, 1)), 4) is not None
    zero = chow.ChowClass.zero(chow.ProjProduct((1, 1)))
    assert ops.check(ops.DEFECT_POW, zero) is None
    assert ops.check(ops.DEFECT_POW, chow.alpha(chow.ProjProduct((1, 1)))) is not None
    op = next(o for o in ops.CLI_OPS if o.name == "u-to-b-4-2")
    assert ops.check_cli(op, 0, b"[]\n", b"") == "stdout differs from the golden"
    assert ops.check_cli(op, None, b"", b"").startswith("timed out")


def test_every_power_op_has_an_oracle_answer():
    goldens = ops.power_goldens()
    keys = {ops.power_key(*entry) for entry in ops.power_pool()}
    assert keys == set(goldens["twisted"]) == set(goldens["untwisted"])


def test_refuses_to_run_without_package_source(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for name in ("run.py", "tracer.py"):
        (bench_copy / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
