"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import gc
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pfgraph as pf  # noqa: E402
from harness import (  # noqa: E402
    Calibration,
    Span,
    Tracer,
    kernel,
    percentile,
    self_times,
    tail_percentile,
)
from worker import Runner, per_layer_metrics, trace_targets  # noqa: E402
from workloads import SmallBatch  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 75.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    values = list(range(1, 101))
    p90 = percentile(values, 90.0)
    assert p90 == 90
    assert sum(1 for v in values if v > p90) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, -1, 0, 1.0),
        Span("a", 1.0, 6.0, 0, 0, 1.0),
        Span("b", 2.0, 4.0, 1, 0, 1.0),
        Span("c", 7.0, 8.5, 0, 0, 1.0),
        Span("op", 11.0, 12.0, -1, 1, 1.0),
    ]
    assert self_times(spans) == [3.5, 3.0, 2.0, 1.5, 1.0]


def test_kernel_allocates_no_gc_tracked_objects():
    kernel(1000)  # warm the function's specialised bytecode
    before = gc.get_count()
    kernel()
    assert gc.get_count() == before


def test_tracer_sees_calls_between_package_modules():
    calibration = Calibration()
    calibration.prime(1)
    tracer = Tracer(calibration)
    original = pf.complement
    tracer.install("pfgraph", trace_targets())
    try:
        g = pf.generate(pf.GenConfig(seed=3, n_vertices=5, family="half_strong"))
        tracer.recording = True
        assert pf.is_self_complementary(g).found
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert pf.complement is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "classify.is_self_complementary"
    assert "algebra.complement" in names and "morphism.find_morphism" in names
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert tracer.counts["morphism.attempts"] == 5


def small_runner(count: int = 12) -> Runner:
    with open(os.path.join(BENCH, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)["pins"]["small-batch"]
    workload = SmallBatch(7, ROOT)
    workload.items = dict(list(workload.items.items())[:count])
    calibration = Calibration()
    calibration.prime(3)
    return Runner(workload, pins, calibration, None)


def test_seed_code_passes_the_gate():
    runner = small_runner()
    records = runner.run_round(0)
    assert len(records) == 12
    assert not any(failed for *_, failed in records), runner.failures


def test_wrong_answer_counts_as_failure(monkeypatch):
    runner = small_runner()
    original = pf.complement

    def wrong(g):  # the right complement with its first vertex dropped
        right = original(g)
        keep = sorted(right.vertices)[1:]
        return pf.PFGraph({v: right.vertices[v] for v in keep},
                          {k: d for k, d in right.edges.items() if k.lo in keep and k.hi in keep})

    monkeypatch.setattr(pf, "complement", wrong)
    records = runner.run_round(0)
    assert len(records) == 12
    assert all(failed for *_, failed in records)
    assert any("differs from pinned" in f for f in runner.failures)


def test_exception_counts_as_failure_and_run_goes_on(monkeypatch):
    runner = small_runner()
    calls = []

    def broken(g):
        calls.append(g)
        raise RuntimeError("boom")

    monkeypatch.setattr(pf, "classify", broken)
    records = runner.run_round(0)
    assert len(calls) == len(records) == 12
    assert all(failed for *_, failed in records)


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_ref", "op_ref_p50", "op_ref_p90", "peak_rss_mb"}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_clique_attempts_match_pinned_baseline(n):
    with open(os.path.join(BENCH, "pins.json"), encoding="utf-8") as handle:
        attempts = json.load(handle)["attempts"]["search-hard"]
    assert attempts[f"K{n}->K{n - 1}"] == {5: 260, 6: 1630, 7: 11742, 8: 95900}[n]
