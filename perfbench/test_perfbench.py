"""Self-tests of the benchmark at smoke sizes (seconds, not the runner).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import subprocess
import sys

from perfbench import common
from perfbench.common import Report
from perfbench.probe import NOMINAL_RATE, HostProbe, nominal_seconds
from perfbench.run import execute, result_line
from perfbench.tracing import CALLS, Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sim(seed: int, trace: bool) -> Report:
    return execute("sim-three-cost", seed, 0.3, trace, "smoke")


def test_sim_quality_and_heap_counts_repeat_exactly_for_a_seed():
    first, second = _sim(3, False), _sim(3, False)
    for name in ("miss_rate", "cost_miss_ratio"):
        assert first.notes[name] == second.notes[name]
    for name in ("hit_rate", "cost_hit_ratio"):
        assert first.metrics[name]["value"] == second.metrics[name]["value"]
    traced = [_sim(3, True), _sim(3, True)]
    updates = [r.metrics["camp.heap_updates_per_req"]["value"]
               for r in traced]
    assert updates[0] == updates[1] > 0
    assert all(r.correct for r in [first, second] + traced)
    other = _sim(4, False)
    assert other.notes["cost_miss_ratio"] != first.notes["cost_miss_ratio"]


def test_traced_sim_passes_the_accounting_check():
    report = _sim(5, True)
    assert report.correct, report.problems
    accounting = report.notes["accounting"]
    assert accounting["store.access"][0] > 0
    assert all(recorded == implied
               for recorded, implied in accounting.values())
    assert report.metrics["trace.overhead_ratio"]["value"] > 0


def test_accounting_flags_a_layer_reached_through_a_prebound_method():
    class Layer:
        def work(self):
            return 1

    layer = Layer()
    prebound = layer.work            # bound before the span is installed
    tracer = Tracer()
    undo = tracer.install(Layer, "work", "layer.work")
    try:
        layer.work()
        prebound()
    finally:
        undo()
    report = Report("toy", 0, True, attempted=2)
    report.expect_calls("layer.work", tracer.spans["layer.work"][CALLS], 2)
    assert not report.correct
    assert "layer.work recorded 1 calls" in report.problems[0]


def test_async_child_spans_are_subtracted_from_the_parent():
    class Child:
        async def call(self):
            await asyncio.sleep(0.02)

    class Parent:
        async def call(self):
            await asyncio.gather(Child().call(), Child().call())

    tracer = Tracer()
    undos = [tracer.install(Child, "call", "child"),
             tracer.install(Parent, "call", "parent")]
    try:
        asyncio.run(Parent().call())
    finally:
        for undo in undos:
            undo()
    parent = tracer.spans["parent"]
    assert tracer.spans["child"][CALLS] == 2
    # the two children overlap: the parent's child time is their union
    assert 0 <= parent[1] - parent[2] < 0.01e9
    assert parent[2] < 0.035e9


def test_wrong_bytes_and_wrong_costs_count_as_failed():
    from perfbench.served import Load
    from repro.twemcache.client import _Value
    report = Report("served-churn", 0, False)
    tape = [("a", 4, 100), ("b", 4, 1), ("c", 4, 1)]
    load = Load(tape, common.payloads_for(tape), must_hit=False,
                dedup=False, report=report)
    found = {"a": _Value(common.payload("a", 4), 0, 100),
             "b": _Value(b"oops", 0, 1),
             "c": _Value(common.payload("c", 4), 0, 7)}
    assert load.account(tape, found) == []
    assert report.failed == 2 and report.attempted == 3


def test_arrivals_come_from_the_seed_and_a_late_generator_voids_latency():
    assert common.arrival_offsets(1, 1000, 1) == \
        common.arrival_offsets(1, 1000, 1)
    assert common.arrival_offsets(1, 1000, 1) != \
        common.arrival_offsets(2, 1000, 1)
    report = Report("served-hot-get", 0, False)
    common.put_open_loop(report, [0.001] * 100, [0.005] * 100)
    assert not report.valid
    assert "p50_ms" not in report.metrics and not report.problems


def test_throughput_is_scaled_by_the_probe_beside_each_unit():
    probe = HostProbe()
    probe.start()
    probe.unit(1000)
    assert probe.units == 1 and probe.probe_rates[0] > 0
    # a unit that ran at half the probe's speed reads half the nominal
    # rate, whatever speed the host ran at
    probe.unit_rates = [100.0, 50.0, 200.0]
    probe.probe_rates = [200.0, 100.0, 400.0]
    assert probe.work_rate() == NOMINAL_RATE / 2
    # a set-up timed while the probe ran at half the nominal rate took
    # half as long on the nominal host
    assert len(probe.burst()) > 1
    assert nominal_seconds(1.0, [NOMINAL_RATE / 2] * 3) == 0.5


def test_served_hot_get_prints_every_end_to_end_metric():
    report = execute("served-hot-get", 1, 1.0, False, "smoke")
    assert report.correct, report.problems
    line = result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(common.END_TO_END)
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert report.notes["stats"]["server_hits"] == \
        report.notes["stats"]["client_hits"]


def test_traced_cluster_reports_every_layer_and_passes_accounting():
    report = execute("cluster-replicated", 2, 1.0, True, "smoke")
    assert report.correct, report.problems
    assert list(result_line(report)["metrics"]) == list(common.PER_LAYER)
    for name in ("engine.get_self_us", "protocol.receive_self_us_per_cmd",
                 "client.get_many_us", "cluster.self_us_per_req",
                 "camp.on_hit_us"):
        assert report.metrics[name]["value"] > 0, name
    assert report.metrics["cluster.fanout_per_batch"]["value"] >= 1


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(common.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(common.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == common.UNIT_OF[metric["name"]]
    from perfbench.run import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_without_the_source_tree_the_runner_fails_without_a_result(
        tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-three-cost",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
