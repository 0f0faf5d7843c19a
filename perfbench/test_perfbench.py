"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


class SmallOracle(workloads.OracleSearch):
    INSTANCES = 10


class SmallSplit(workloads.SplitStream):
    GRAPHS = 12


class SmallReduction(workloads.ReductionCli):
    FORMULAS = 3


def _build(cls, seed, tmp_path):
    if issubclass(cls, workloads.ReductionCli):
        return cls(seed, str(tmp_path / f"work-{seed}"))
    return cls(seed)


def _run_all(wl, run=None, traced=False):
    run = run or harness.Run()
    if traced:
        with wl.counting():
            harness.run_pass(wl, run, harness.Samples(), harness.Tracer())
    else:
        harness.run_pass(wl, run, harness.Samples())
    run.finish(wl)
    return run


@pytest.mark.parametrize("cls", [SmallOracle, SmallSplit, SmallReduction])
def test_same_seed_gives_same_inputs(cls, tmp_path):
    a, b, c = (_build(cls, seed, tmp_path) for seed in (7, 7, 8))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


@pytest.mark.parametrize("cls", [SmallOracle, SmallSplit, SmallReduction])
def test_correct_answers_pass_and_repeat(cls, tmp_path):
    wl = _build(cls, 3, tmp_path)
    run = _run_all(wl)
    counts = dict(wl.counts)
    _run_all(wl, run, traced=True)
    assert run.failures.count == 0, run.failures.examples
    assert run.ops == 2 * len(wl.items)
    assert wl.counts == counts  # only first runs feed the fingerprint


def test_checker_flags_wrong_oracle_answer():
    class Wrong(SmallOracle):
        def run(self, call, ctx, traced):
            out = super().run(call, ctx, traced)
            out["yes"] = not out["yes"]
            return out

    run = _run_all(Wrong(3))
    assert run.failures.count == Wrong.INSTANCES
    assert "decide=" in run.failures.examples[0]


def test_checker_flags_wrong_split_answer():
    class Wrong(SmallSplit):
        def run(self, call, ctx, traced):
            ctx, res = super().run(call, ctx, traced)
            res.reconfigurable = not res.reconfigurable
            return ctx, res

    wl = Wrong(3)
    run = _run_all(wl)
    assert run.failures.count == len(wl.items)
    assert "the oracle says" in run.failures.examples[0]


def test_checker_flags_nonzero_cli_exit(tmp_path):
    wl = SmallReduction(3, str(tmp_path / "work"))
    with open(os.path.join(wl.workdir, "phi-1.cnf"), "w") as fh:
        fh.write("p cnf 3 1\n1 2 0\n")  # two literals: reduce exits 2
    run = _run_all(wl)
    assert run.failures.count == 1
    assert "kjump reduce exited 2" in run.failures.examples[0]


def test_checker_flags_a_changed_repeat():
    class Drifting(SmallOracle):
        def summary(self, out):
            self.calls = getattr(self, "calls", 0) + 1
            return self.calls

    wl = Drifting(3)
    run = _run_all(wl)
    _run_all(wl, run)
    assert run.failures.count == Drifting.INSTANCES
    assert "differently on a repeat" in run.failures.examples[0]


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["op", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 20, 50, 0, 0],  # overlaps a: the union 10..50 counts once
        ["c", 60, 70, 0, 0],
        ["d", 95, 120, 0, 0],  # clipped to the parent at 100
        ["op", 200, 210, -1, 1],
    ]
    assert harness.self_times(spans) == [100 - 40 - 10 - 5, 20, 30, 10, 25, 10]
    busy, calls = harness.busy_by_name(spans)
    assert busy["op"] == pytest.approx((45 + 10) / 1e9)
    assert calls["op"] == 2


def test_percentile_refuses_a_tail_of_fewer_than_ten_samples():
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 0.9)
    assert harness.percentile(list(range(100)), 0.9) == 89
    assert harness.percentile(list(range(1000, 0, -1)), 0.9) == 900


def test_traced_metrics_cover_every_per_layer_name():
    wl = SmallSplit(3)
    with wl.counting():
        run, plain, traced, tracer = harness.measure_traced(wl, 0, 1)
    metrics = bench.per_layer(wl, run, plain, traced, tracer, 0.1)
    assert set(metrics) == set(bench.spec()["per_layer"])
    assert set(metrics) >= {f"{m}.share" for m in bench.MODULES}
    assert metrics["split2.decide2.calls"] == len(wl.items)
    assert metrics["graph.recognize_split.per_query"] >= SmallSplit.GRAPHS / len(wl.items)
    assert 0 < metrics["trace.coverage"] <= 1


def test_per_layer_counts_are_per_traced_pass():
    def traced_metrics(passes):
        wl = SmallOracle(3)
        with wl.counting():
            run, plain, traced, tracer = harness.measure_traced(wl, 0, passes)
        assert len(traced) == passes
        return bench.per_layer(wl, run, plain, traced, tracer, 0.1)

    one, two = traced_metrics(1), traced_metrics(2)
    assert one["engine.reachable_configs.calls"] == SmallOracle.INSTANCES
    for name in ("engine.reachable_configs.calls", "engine.states",
                 "engine.resource_exhausted", "simulate.expansion"):
        assert one[name] == two[name], name
    assert one["engine.states"] > 0


def test_checks_run_after_the_passes():
    wl = SmallSplit(3)
    run = harness.Run()
    harness.run_pass(wl, run, harness.Samples())
    assert run.failures.count == 0 and len(run.pending) == len(wl.items)
    assert wl.counts == {}
    run.finish(wl)
    assert run.pending == [] and wl.counts["queries"] == len(wl.items)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
