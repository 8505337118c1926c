"""Tests for the benchmark's own code: generator, tracing and smoke-size runs.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import engagement, harness, run, tracing
from perfbench.workloads import Baselines, Engagement, TightSample
from tightsample import ingest, sampler
from tightsample.oracle import GraphOracle

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# engagement-log generator


def test_generator_is_deterministic_per_seed(tmp_path):
    a = engagement.generate(tmp_path / "a", seed=7, block_size=40)
    b = engagement.generate(tmp_path / "b", seed=7, block_size=40)
    c = engagement.generate(tmp_path / "c", seed=8, block_size=40)
    for name in ("events", "seeds", "labels"):
        assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()
    assert a.events.read_bytes() != c.events.read_bytes()
    assert a.rows == b.rows > 0


def test_generator_network_is_explorable_past_one_hop(tmp_path):
    log = engagement.generate(tmp_path, seed=3, block_size=60)
    seeds = log.seeds.read_text().split()
    assert len(seeds) == 8
    oracle = GraphOracle.from_events(ingest.parse_events(log.events))
    state = sampler.init(seeds, oracle)
    first_hop = set(state.outsiders)
    trace = sampler.run(state, "MAS", steps=2 * len(first_hop))
    assert trace.reason == "budget"
    reached = set(state.insiders) | set(state.outsiders)
    assert reached - first_hop - set(state.seeds), "snowball stopped after one hop"


# ---------------------------------------------------------------------------
# tracing


def test_wrappers_restore_every_original():
    originals = [(owner, attr, tracing._raw(owner, attr))
                 for owner, attr, *_rest in tracing.TARGETS]
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.installed(tracing.Tracer()):
            for owner, attr, raw in originals:
                assert tracing._raw(owner, attr) is not raw
            raise RuntimeError("inside")
    for owner, attr, raw in originals:
        assert tracing._raw(owner, attr) is raw, f"{owner.__name__}.{attr}"


def test_self_time_on_a_hand_built_span_tree():
    ticks = iter([0, 10, 40, 50, 60, 70, 90, 100])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.open("cli.sample", "cli")             # 0 .. 100
    step = tracer.open("sampler.step", "sampler")       # 10 .. 40
    step.leaves["sampler.select"] = [3, 5]
    tracer.close(step)
    run_span = tracer.open("sampler.run", "sampler")    # 50 .. 90
    build = tracer.open("oracle.build", "oracle")       # 60 .. 70
    tracer.close(build)
    tracer.close(run_span)
    tracer.close(root)
    assert tracing.self_times(tracer.spans) == [30, 25, 30, 10]
    totals = tracing.span_totals(tracer.spans)
    assert totals["cli.self_s"] == pytest.approx(30e-9)
    assert totals["sampler.step_self_s"] == pytest.approx(25e-9)
    assert totals["sampler.self_s"] == pytest.approx(30e-9)
    assert totals["sampler.select_s"] == pytest.approx(5e-9)
    assert totals["sampler.select_calls"] == 3
    # a subtree keeps its own arithmetic
    assert tracing.self_times(tracer.spans[2:]) == [30, 10]


def test_spans_must_close_in_order():
    tracer = tracing.Tracer()
    outer = tracer.open("a", "cli")
    tracer.open("b", "cli")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# ---------------------------------------------------------------------------
# smoke-size runs

SMOKE = [TightSample(block_size=60), Baselines(block_size=40),
         Engagement(block_size=150, budget=100)]

# layers each workload loads, so a wrapper that stops intercepting reads 0
TOUCHED = {
    "tight-32k": ("oracle.queries", "graph.add_events_calls", "sampler.step_self_s",
                  "sbm.generate_calls"),
    "baselines-8k": ("sampler.select_calls", "sbm.generate_calls"),
    "engagement-4k": ("ingest.parse_calls", "interactions.event_weight_calls",
                      "interactions.calibrate_records_s",
                      "metrics.avg_shortest_path_s"),
}


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_smoke_run_has_no_errors(workload, tmp_path):
    ledger = harness.Ledger()
    series, iterations = run.measure(workload, 5, 0.0, tmp_path, ledger)
    assert ledger.failures == []
    assert ledger.attempted > 0 and iterations == 1
    assert len(series.values["setup_s"]) == run.MIN_SETUPS
    for metric in SPEC["end_to_end"]:
        assert series.medians()[metric["name"]] > 0


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_smoke_traced_run_reports_every_layer_metric(workload, tmp_path):
    ledger = harness.Ledger()
    layer = run.traced(workload, 5, tmp_path, ledger)
    assert ledger.failures == []
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layer)
    for name in TOUCHED[workload.name] + ("oracle.build_calls", "cli.self_s"):
        assert layer[name] > 0, name


def test_traced_command_crash_is_a_failed_operation(tmp_path, monkeypatch):
    from tightsample import cli

    def crash(argv):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "main", crash)
    log = tmp_path / "crash.log"
    code = run.run_in_process(tracing.Tracer(), harness.Command("sample", ()), log)
    assert code != 0
    assert "ValueError: boom" in log.read_text()


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tight-32k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
