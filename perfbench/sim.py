"""``sim-three-cost``: the paper's own experiment, in process.

``repro.sim.simulate`` drives the three-cost trace through
``Store.access_outcome`` → ``KVS`` → ``CampPolicy(precision=5)`` with the
cache at 0.1 of the trace's unique bytes.  No serving layer runs.

A run first simulates the whole trace once on a fresh store: its
metrics are the quality figures and its outcome tallies the reference.
It then repeats passes on fresh stores for most of its time, each pass
feeding the trace to ``simulate`` in consecutive units of
``Size.unit_requests`` requests on the same store, with the host probe
(:mod:`perfbench.probe`) run after each unit; ``req_per_s`` is the
median unit rate scaled to the nominal host.  Finally it replays the
trace against the last pass's warm store as an open loop of single
``access_outcome`` calls arriving on a seeded Poisson schedule, each
timed from its due time (``p50_ms`` / ``p99_ms``).
"""

from __future__ import annotations

import gc
import time
from typing import List

from perfbench import common
from perfbench.common import Report, Size
from perfbench.probe import HostProbe, nominal_seconds
from perfbench.tracing import CALLS, TOTAL_NS, Tracer, self_ns

__all__ = ["run"]

WORKLOAD = "sim-three-cost"
#: share of the run spent on timed passes (the rest is the open loop)
PASS_SHARE = 0.7


def _setup(size: Size, seed: int):
    started = time.perf_counter()
    trace = common.three_cost(size, seed)
    trace.tape()
    capacity = trace.capacity_for_ratio(common.SIM_CACHE_RATIO)
    return time.perf_counter() - started, trace, capacity


class _Passes:
    """Simulation passes and their output checks."""

    def __init__(self, trace, capacity: int, size: Size, report: Report,
                 probe: HostProbe) -> None:
        from repro.workloads.trace import Trace
        self.trace = trace
        self.capacity = capacity
        self.report = report
        records = trace.records
        step = size.unit_requests
        self.units = [Trace(records[i:i + step])
                      for i in range(0, len(records), step)]
        for unit in self.units:
            unit.tape()
        #: (outcome tallies, evictions) every pass must repeat
        self.reference = None
        #: per finished pass: its policy ``stats()`` and outcome tallies
        self.done: List[tuple] = []
        self.probe = probe
        self.store = None

    def _store(self, stats: bool):
        from repro.cache.kvs import KVS
        from repro.cache.store import Store
        from repro.core.camp import CampPolicy
        return Store(KVS(self.capacity, CampPolicy(precision=5,
                                                   stats=stats)))

    def whole(self):
        """The whole trace in one ``simulate`` call: the reference
        tallies and the quality metrics (cold requests excluded)."""
        from repro.sim import simulate
        store = self._store(stats=False)
        result = simulate(store, self.trace)
        self.reference = (result.outcomes, result.evictions)
        self._check(store, result.outcomes, result.evictions)
        metrics = result.metrics
        if (metrics.hits + metrics.misses + metrics.cold_requests
                != len(self.trace)):
            self.report.problem("sim pass: hits + misses + cold != "
                                "requests")
        return result

    def one(self, stats: bool) -> None:
        """One pass in timed units, each followed by a probe run."""
        from repro.sim import simulate
        store = self._store(stats)
        probe = self.probe
        outcomes: dict = {}
        result = None
        for unit in self.units:
            probe.start()
            result = simulate(store, unit)
            probe.unit(len(unit))
            for name, count in result.outcomes.items():
                outcomes[name] = outcomes.get(name, 0) + count
        self._check(store, outcomes, result.evictions)
        self.done.append((result.policy_stats, outcomes))
        self.store = store

    def _check(self, store, outcomes: dict, evictions: int) -> None:
        from repro.errors import ReproError
        report = self.report
        requests = len(self.trace)
        report.attempted += requests
        broken = []
        if sum(outcomes.values()) != requests:
            broken.append("outcome tallies do not add up to the requests")
        try:
            store.check_consistency()
            store.kvs.policy.check_invariants()
        except (AssertionError, ReproError) as exc:
            broken.append(f"consistency: {exc!r}")
        if (outcomes, evictions) != self.reference:
            broken.append("a pass did not repeat the whole-trace outcomes")
        if broken:
            report.failed += requests
            for text in broken:
                report.problem(f"sim pass: {text}")

    def run_for(self, seconds: float, stats: bool) -> None:
        """Passes until ``seconds`` are used (at least one)."""
        deadline = time.perf_counter() + seconds
        self.one(stats)
        while time.perf_counter() < deadline:
            self.one(stats)


def _open_loop(store, tape, offsets, report: Report):
    """Single in-process requests on a schedule, timed from due time."""
    from repro.cache.outcomes import Outcome
    access = store.access_outcome
    served = (Outcome.HIT, Outcome.MISS_INSERTED)
    clock = time.perf_counter
    latencies = []
    lateness = []
    n = len(tape)
    start = clock() + 0.001
    for i, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        while now < due:
            now = clock()
        lateness.append(now - due)
        key, size, cost = tape[i % n]
        outcome = access(key, size, cost)
        latencies.append(clock() - due)
        if outcome not in served:
            report.failed += 1
    report.attempted += len(offsets)
    return latencies, lateness


def run(size: Size, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(WORKLOAD, seed, trace)
    probe = HostProbe()
    setups, raw_setups = [], []
    for _ in range(size.setup_repeats):
        rates = probe.burst()
        elapsed, trace_obj, capacity = _setup(size, seed)
        setups.append(nominal_seconds(elapsed, rates + probe.burst()))
        raw_setups.append(elapsed)
    # the trace is the benchmark's input, not the store's state: keep
    # the collector from re-walking it during the measurement
    gc.collect()
    gc.freeze()
    passes = _Passes(trace_obj, capacity, size, report, probe)
    try:
        quality = passes.whole().metrics
        if trace:
            _traced(passes, seconds, report)
        else:
            _measure(passes, size, seed, seconds, report)
    finally:
        gc.unfreeze()
    if not trace:
        common.put_quality(report, quality)
        report.put("setup_s", common.median(setups), len(setups))
        report.notes["setup_s_raw"] = common.median(raw_setups)
    return report


def _measure(passes: _Passes, size: Size, seed: int, seconds: float,
             report: Report) -> None:
    trace_obj = passes.trace
    passes.run_for(seconds * PASS_SHARE, stats=False)
    offsets = common.arrival_offsets(seed, size.sim_rate,
                                     seconds * (1 - PASS_SHARE))
    latencies, lateness = _open_loop(passes.store, trace_obj.tape(),
                                     offsets, report)
    common.put_open_loop(report, latencies, lateness)
    report.put("req_per_s", passes.probe.work_rate(), passes.probe.units)
    report.notes["host"] = passes.probe.notes()
    report.put("peak_rss_mb", common.peak_rss_mb_self(), 1)


def _traced(passes: _Passes, seconds: float, report: Report) -> None:
    """Untraced passes, then traced ones on a ``stats=True`` policy."""
    from perfbench import layers
    passes.run_for(seconds * 0.3, stats=False)
    untraced_rate = passes.probe.work_rate()
    passes.probe = HostProbe()
    passes.done = []
    tracer = Tracer()
    undo = layers.install_sim(tracer)
    try:
        passes.run_for(seconds * 0.5, stats=True)
    finally:
        undo()
    traced_rate = passes.probe.work_rate()
    spans = tracer.spans
    done = passes.done
    requests = len(passes.trace) * len(done)
    hits = sum(outcomes.get("hit", 0) for _, outcomes in done)
    inserted = sum(outcomes.get("miss_inserted", 0) for _, outcomes in done)
    evictions = passes.reference[1] * len(done)
    report.expect_calls("store.access", spans["store.access"][CALLS],
                        requests)
    report.expect_calls("kvs.lookup", spans["kvs.lookup"][CALLS], requests)
    report.expect_calls("kvs.insert", spans["kvs.insert"][CALLS],
                        requests - hits)
    report.expect_calls("camp.on_hit", spans["camp.on_hit"][CALLS], hits)
    report.expect_calls("camp.on_insert", spans["camp.on_insert"][CALLS],
                        inserted)
    report.expect_calls("camp.pop_victim", spans["camp.pop_victim"][CALLS],
                        evictions)
    for name in ("on_hit", "on_insert", "pop_victim"):
        report.put(f"camp.{name}_us", _mean_us(spans[f"camp.{name}"]),
                   spans[f"camp.{name}"][CALLS])
    report.put("camp.heap_updates_per_req",
               sum(stats["heap_updates"] for stats, _ in done) / requests,
               requests)
    report.put("camp.heap_node_visits_per_req",
               sum(stats["heap_node_visits"] for stats, _ in done)
               / requests, requests)
    report.put("camp.queue_count",
               common.median([stats["queue_count"] for stats, _ in done]),
               len(done))
    access = spans["store.access"]
    report.put("store.self_us", self_ns(access) / access[CALLS] / 1e3,
               access[CALLS])
    lookup, insert = spans["kvs.lookup"], spans["kvs.insert"]
    kvs_calls = lookup[CALLS] + insert[CALLS]
    report.put("kvs.self_us",
               (self_ns(lookup) + self_ns(insert)) / kvs_calls / 1e3,
               kvs_calls)
    report.put("kvs.evictions_per_insert", evictions / insert[CALLS],
               insert[CALLS])
    report.put("trace.overhead_ratio", untraced_rate / traced_rate,
               passes.probe.units)
    report.notes["req_per_s_untraced"] = untraced_rate
    report.notes["req_per_s_traced"] = traced_rate
    report.notes["self_us"] = {name: self_ns(agg) / max(1, agg[CALLS]) / 1e3
                               for name, agg in spans.items()}


def _mean_us(aggregate) -> float:
    calls = aggregate[CALLS]
    return aggregate[TOTAL_NS] / calls / 1e3 if calls else 0.0
