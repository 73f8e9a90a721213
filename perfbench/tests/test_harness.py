"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans_leaves_and_bookkeeping():
    clock = Clock()
    t = tracing.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        traced_leaf()
        clock.now += 3.0

    def outer():
        clock.now += 10.0
        traced_inner()
        traced_inner()
        clock.now += 5.0

    def bookkeeping(tracer, args, kwargs, out):
        clock.now += 100.0

    traced_leaf = t.leaf("m.leaf", leaf)
    traced_inner = t.span("m.inner", inner, bookkeeping)
    t.span("m.outer", outer)()

    times = t.layer_times()
    assert times["m.leaf"] == [2, 2.0, 2.0]
    assert times["m.inner"] == [2, 10.0, 12.0]
    assert times["m.outer"] == [1, 15.0, 227.0]  # inner's bookkeeping is covered, not outer's own
    parents = [s[3] for s in t.spans]
    assert parents == [-1, 0, 0]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import ced.cli
    import ced.contfrac
    import ced.decision

    originals = (ced.contfrac.below_witness, ced.decision.below_witness, ced.cli.critical_rho)
    assert originals[0] is originals[1]
    t = tracing.Tracer()
    t.install()
    try:
        assert ced.decision.below_witness is ced.contfrac.below_witness
        assert ced.decision.below_witness is not originals[0]
        assert ced.cli.critical_rho is ced.decision.critical_rho
    finally:
        t.uninstall()
    assert (ced.contfrac.below_witness, ced.decision.below_witness, ced.cli.critical_rho) == originals


def test_traced_decide_reports_its_layers():
    import ced.decision

    t = tracing.Tracer()
    t.install()
    try:
        ced.decision.critical_rho(3, Fraction(1), Fraction(1, 1 << 20))
    finally:
        t.uninstall()
    metrics = t.metrics()
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead"}
    assert metrics["decision.critical_rho.calls"] == 1
    assert metrics["contfrac.below_witness.calls"] >= metrics["contfrac.below_witness.hits"] > 0
    assert metrics["params.weight_b.calls"] > 0 and metrics["params.weight_b.self_s"] > 0


@pytest.mark.parametrize("n, index, pct", [(11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, index, pct):
    values = [float(i) for i in reversed(range(n))]
    value, percentile = run.tail(values)
    assert value == index
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(pct)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_always_yields_the_same_operations(workload):
    first = workloads.operations(workload, 7, 3)
    assert first == workloads.operations(workload, 7, 3)
    assert first != workloads.operations(workload, 8, 3)
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            f"print(json.dumps(workloads.operations({workload!r}, 7, 3)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert json.loads(out) == json.loads(json.dumps(first))


def test_certify_lambdas_lie_inside_the_window():
    for ops in workloads.operations("certify", 3, 4):
        for op in ops:
            d, lam = int(workloads.flag(op.argv, "--d")), Fraction(workloads.flag(op.argv, "--lambda"))
            assert workloads.inside_window(d, lam)


def test_modular_catalan_matches_the_brute_force_oracle():
    from ced.catalan import weighted_catalan_bruteforce
    from ced.params import ModelParams

    lam, rho, z = Fraction(3, 2), Fraction(5, 1 << 30), 3
    residues, series = workloads.catalan_mod(lam, rho, 8, z)
    exact = [weighted_catalan_bruteforce(ModelParams(2, lam, rho), k).value for k in range(9)]
    assert all(workloads.same_mod(c, r) for c, r in zip(exact, residues))
    assert workloads.same_mod(sum(c * z**k for k, c in enumerate(exact)), series)
    assert not workloads.same_mod(exact[5] * 2, residues[5])


def test_binomial_p_value_matches_a_direct_sum():
    from math import comb

    n, p = 60, 0.1
    pmf = [comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    for x in (0, 3, 6, 12, 25):
        direct = min(1.0, 2 * min(sum(pmf[: x + 1]), sum(pmf[x:])))
        assert workloads.binomial_p_value(x, n, p) == pytest.approx(direct, rel=1e-9)


def test_same_seed_replays_byte_identical_outputs():
    def digests():
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "montecarlo",
               "--seed", "5", "--blocks", "1"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
        return [r["digest"] for r in json.loads(out.strip().splitlines()[-1])["records"]]

    first = digests()
    assert len(first) == workloads.ops_per_block("montecarlo")
    assert first == digests()


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in bench["per_layer"]] == list(tracing.PER_LAYER.values())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb", "ok_frac"}
