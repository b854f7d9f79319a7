"""Served workloads: node processes driven by one client process.

``served-hot-get``
    One CAMP node (``python -m repro.cluster.node``) whose memory
    exceeds the working set; every key is preloaded, so every get hits.
``served-churn``
    The same node at 0.1 of the sim trace's unique bytes, driven by the
    sim trace: each request is a ``gets``, and a miss is followed by a
    recompute-``set`` carrying the trace cost (iqget/iqset).
``cluster-replicated``
    Two nodes behind one ``ClusterClient`` (replicas=2, one pooled
    connection per node), each at 0.5 of the unique bytes.

Each run has two phases on the same connections.  The closed loop sends
pipelined batches — a multi-get of ``batch`` keys, then one
``set_many`` of the misses — one batch in flight at a time — timed in
units of ``Size.unit_requests`` requests, each followed by a run of the
host probe (:mod:`perfbench.probe`); ``req_per_s`` is the median unit
rate scaled to the nominal host, the first unit dropped as warm-up.
The open loop then sends single
requests on a seeded Poisson schedule at a fixed rate well below
saturation, each timed from its due time (``p50_ms`` / ``p99_ms``), and
reports how late the generator ran.  ``hit_rate`` and ``cost_hit_ratio``
cover the first pass over the trace, whatever the throughput.

Every hit is checked byte for byte against the key's payload and its
``gets`` cost against the trace cost; the nodes' ``stats`` hit counters
must equal the hits the client saw.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from perfbench import common
from perfbench.common import Report, Size
from perfbench.probe import HostProbe, nominal_seconds
from perfbench.tracing import (AUX, CALLS, TOTAL_NS, UNITS, Tracer, delta,
                               self_ns)

__all__ = ["run", "WORKLOADS"]

WORKLOADS = ("served-hot-get", "served-churn", "cluster-replicated")
#: share of the measured time spent in the closed loop (rest: open loop)
CLOSED_SHARE = 0.65
_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 15.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# node processes
# ----------------------------------------------------------------------
class Node:
    """One spawned ``repro.cluster.node`` process."""

    def __init__(self, memory: int, trace_out: Optional[str]) -> None:
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cluster.node"]
        else:
            command = [sys.executable,
                       str(common.ROOT / "perfbench" / "traced_node.py"),
                       "--perfbench-out", trace_out]
        command += ["--memory-bytes", str(memory), "--port", "0"]
        self.trace_out = trace_out
        self.peak_rss_mb = 0.0
        self.address = None
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     env=common.child_env(),
                                     cwd=str(common.ROOT))

    def wait_ready(self) -> None:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        stdout = self.proc.stdout
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("node did not report READY")
            readable, _, _ = select.select([stdout], [], [], left)
            if readable:
                line = stdout.readline().decode().split()
                if not line:
                    raise RuntimeError("node exited before READY")
                if line[0] == "READY":
                    self.address = (line[1], int(line[2]))
                    return

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        # utime and stime: fields 14 and 15 of proc(5), counted from 1
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def _read_peak_rss(self) -> None:
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass

    def stop(self) -> None:
        if self.proc.poll() is None:
            self._read_peak_rss()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def trace_dump(self) -> List[dict]:
        with open(self.trace_out, encoding="utf-8") as handle:
            return json.load(handle)


def spawn(memories: Sequence[int],
          trace_outs: Optional[Sequence[str]] = None) -> List[Node]:
    nodes: List[Node] = []
    try:
        for i, memory in enumerate(memories):
            nodes.append(Node(memory, trace_outs[i] if trace_outs else None))
        for node in nodes:
            node.wait_ready()
    except BaseException:
        stop_all(nodes)
        raise
    return nodes


def stop_all(nodes: Sequence[Node]) -> None:
    for node in nodes:
        node.stop()


# ----------------------------------------------------------------------
# load generation and output checks
# ----------------------------------------------------------------------
class Load:
    """The request stream, its output checks and quality counters."""

    def __init__(self, tape: Sequence[tuple], payloads: Dict[str, bytes],
                 must_hit: bool, dedup: bool, report: Report) -> None:
        from repro.cache.metrics import SimulationMetrics
        self.tape = tape
        self.payloads = payloads
        self.must_hit = must_hit
        # the cluster client fetches a key once per batch; the socket
        # client sends one get per batch entry, duplicates included
        self.dedup = dedup
        self.report = report
        #: quality over the first pass of the trace only, so a faster
        #: (or slower) program does not move it by replaying more of it
        self.quality = SimulationMetrics()
        self.cursor = 0
        #: hits the nodes should have counted (their ``stats`` verb)
        self.server_hits = 0
        self.batches = 0
        self.set_batches = 0

    def take(self, count: int) -> List[tuple]:
        tape = self.tape
        start = self.cursor % len(tape)
        batch = list(tape[start:start + count])
        if len(batch) < count:
            batch += tape[:count - len(batch)]
        self.cursor += count
        return batch

    def account(self, batch: Sequence[tuple], found: dict) -> List[tuple]:
        """Check a get reply; return the recompute-set rows of its misses."""
        report = self.report
        payloads = self.payloads
        quality = self.quality
        first_pass = len(self.tape)
        rows: Dict[str, tuple] = {}
        report.attempted += len(batch)
        hits = 0
        for key, size, cost in batch:
            value = found.get(key)
            if quality.requests < first_pass:
                quality.record(key, size, cost, value is not None)
            if value is None:
                if self.must_hit:
                    report.failed += 1
                elif key not in rows:
                    rows[key] = (key, payloads[key], 0, 0, cost)
                continue
            if value.value != payloads[key] or value.cost != cost:
                report.failed += 1
            hits += 1
        self.server_hits += len(found) if self.dedup else hits
        return list(rows.values())

    def stored(self, rows: Sequence[tuple], replies: Sequence[bool]) -> None:
        if len(replies) != len(rows):
            self.report.failed += len(rows)
            return
        self.report.failed += sum(1 for ok in replies if not ok)


class Target:
    """The load client: one node's socket client, or the cluster client."""

    def __init__(self, nodes: Sequence[Node], cluster: bool) -> None:
        from repro.cluster.client import ClusterClient
        from repro.twemcache.async_client import AsyncSocketClient
        self.cluster = cluster
        # load uses at most nproc connections: one per node for the
        # cluster, a pool of min(2, nproc) for a single node
        if cluster:
            self.client = ClusterClient(
                {f"n{i}": node.address for i, node in enumerate(nodes)},
                replicas=2, pool_size=1)
        else:
            self.client = AsyncSocketClient(
                nodes[0].address, pool_size=min(2, os.cpu_count() or 1))

    async def get_many(self, keys: List[str]) -> dict:
        if self.cluster:
            return await self.client.get_many(keys)
        return await self.client.get_many(keys, with_cost=True)

    async def set_many(self, rows: List[tuple]) -> List[bool]:
        return await self.client.set_many(rows)

    async def close(self) -> None:
        await self.client.close()


async def _request(target: Target, load: Load, batch: List[tuple]) -> None:
    found = await target.get_many([key for key, _, _ in batch])
    rows = load.account(batch, found)
    load.batches += 1
    if rows:
        load.set_batches += 1
        load.stored(rows, await target.set_many(rows))


async def closed_loop(target: Target, load: Load, seconds: float,
                      size: Size) -> dict:
    """One pipelined batch in flight, timed in units of
    ``size.unit_requests`` requests with the host probe run after each;
    the first unit is warm-up and not counted."""
    clock = time.perf_counter
    probe = HostProbe()
    per_unit = max(1, size.unit_requests // size.batch)
    unit = per_unit * size.batch
    requests = 0
    cpu_start = time.process_time()
    start = clock()
    while requests < 2 * unit or clock() - start < seconds:
        probe.start()
        for _ in range(per_unit):
            await _request(target, load, load.take(size.batch))
        if requests:
            probe.unit(unit)
        requests += unit
    return {"probe": probe, "requests": requests,
            "client_cpu": (time.process_time() - cpu_start
                           - probe.cpu_seconds)}


async def open_loop(target: Target, load: Load, offsets: Sequence[float]):
    """Single requests launched at their due times; latency from due."""
    from repro.errors import ProtocolError
    clock = time.perf_counter
    latencies: List[Optional[float]] = [None] * len(offsets)
    lateness: List[float] = []
    pending = set()

    async def one(index: int, item: tuple, due: float) -> None:
        try:
            await _request(target, load, [item])
        except (ProtocolError, OSError, asyncio.TimeoutError):
            load.report.attempted += 1
            load.report.failed += 1
            return
        latencies[index] = clock() - due

    start = clock() + 0.005
    for index, offset in enumerate(offsets):
        due = start + offset
        while True:
            now = clock()
            gap = due - now
            if gap <= 0:
                break
            # the loop's timers have millisecond granularity: sleep the
            # bulk, then yield until due so replies keep being processed
            await asyncio.sleep(gap - 0.0015 if gap > 0.002 else 0)
        lateness.append(now - due)
        task = asyncio.ensure_future(one(index, load.take(1)[0], due))
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        await asyncio.gather(*pending)
    return [value for value in latencies if value is not None], lateness


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------
class _Setup:
    """Trace, payloads, spawned nodes and (hot-get) preload."""

    def __init__(self, workload: str, size: Size, seed: int) -> None:
        self.workload = workload
        self.size = size
        self.seed = seed

    def inputs(self):
        hot = self.workload == "served-hot-get"
        trace = common.three_cost(self.size, self.seed,
                                  n_keys=self.size.hot_keys if hot else None)
        tape = trace.tape()
        payloads = common.payloads_for(tape)
        unique = trace.unique_bytes
        if hot:
            memories = [self.size.hot_memory]
        elif self.workload == "served-churn":
            memories = [int(unique * common.CHURN_MEMORY_RATIO)]
        else:
            memories = [int(unique * common.CLUSTER_NODE_MEMORY_RATIO)] * 2
        # room for one 1 MiB slab per size class of the trace (smoke sizes)
        memories = [max(memory, 8 << 20) for memory in memories]
        return tape, payloads, memories, unique

    async def once(self, report: Report, trace_outs=None):
        started = time.perf_counter()
        tape, payloads, memories, unique = self.inputs()
        nodes = spawn(memories, trace_outs)
        try:
            target = Target(nodes, self.workload == "cluster-replicated")
            if self.workload == "served-hot-get":
                if self.size.hot_memory <= unique:
                    report.problem("hot-get memory does not exceed the "
                                   "working set")
                await _preload(target, tape, payloads, report)
        except BaseException:
            stop_all(nodes)
            raise
        return time.perf_counter() - started, tape, payloads, nodes, target


def _load(workload: str, tape, payloads, report: Report) -> Load:
    return Load(tape, payloads, must_hit=workload == "served-hot-get",
                dedup=workload == "cluster-replicated", report=report)


async def _preload(target: Target, tape, payloads, report: Report) -> None:
    costs = {}
    for key, _size, cost in tape:
        costs.setdefault(key, cost)
    rows = [(key, payloads[key], 0, 0, cost) for key, cost in costs.items()]
    for i in range(0, len(rows), 500):
        replies = await target.set_many(rows[i:i + 500])
        if not all(replies):
            report.problem("preload: a set was not stored")
            return


def _control_clients(nodes: Sequence[Node]):
    """One extra connection per node for ``stats`` and phase markers;
    it carries no load."""
    from repro.twemcache.async_client import AsyncSocketClient
    return [AsyncSocketClient(node.address, pool_size=1) for node in nodes]


async def _check_stats(nodes, load: Load, report: Report) -> dict:
    """The engines' own hit counters must match what the client saw."""
    controls = _control_clients(nodes)
    try:
        stats = [await control.stats() for control in controls]
    finally:
        for control in controls:
            await control.close()
    server_hits = sum(int(s["hits"]) for s in stats)
    if server_hits != load.server_hits:
        report.problem(f"stats verb: nodes counted {server_hits} hits, "
                       f"the client saw {load.server_hits}")
    return {"server_hits": server_hits, "client_hits": load.server_hits,
            "evictions": sum(int(s["evictions"]) for s in stats),
            "slab_reassignments": sum(int(s["slab_reassignments"])
                                      for s in stats)}


async def _measure(workload: str, size: Size, seed: int, seconds: float,
                   report: Report) -> None:
    setup = _Setup(workload, size, seed)
    probe = HostProbe()
    times, raw_times = [], []
    nodes: List[Node] = []
    target = None
    try:
        for i in range(size.setup_repeats):
            rates = probe.burst()
            elapsed, tape, payloads, nodes, target = await setup.once(report)
            times.append(nominal_seconds(elapsed, rates + probe.burst()))
            raw_times.append(elapsed)
            if i < size.setup_repeats - 1:
                await target.close()
                stop_all(nodes)
        # trace and payloads are the generator's input: keep the
        # collector from re-walking them between requests
        gc.collect()
        gc.freeze()
        load = _load(workload, tape, payloads, report)
        cpu_before = [node.cpu_seconds() for node in nodes]
        closed = await closed_loop(target, load, seconds * CLOSED_SHARE,
                                   size)
        server_cpu = sum(node.cpu_seconds() - before
                         for node, before in zip(nodes, cpu_before))
        offsets = common.arrival_offsets(seed, _rate(workload, size),
                                         seconds * (1 - CLOSED_SHARE))
        latencies, lateness = await open_loop(target, load, offsets)
        report.notes["stats"] = await _check_stats(nodes, load, report)
        if target.cluster:
            report.notes["cluster_counters"] = dict(target.client.counters)
        await target.close()
        target = None
    finally:
        if target is not None:
            await target.close()
        stop_all(nodes)
    requests = closed["requests"]
    report.put("req_per_s", closed["probe"].work_rate(),
               closed["probe"].units)
    report.put("setup_s", common.median(times), len(times))
    report.notes["setup_s_raw"] = common.median(raw_times)
    report.notes["host"] = closed["probe"].notes()
    common.put_open_loop(report, latencies, lateness)
    common.put_quality(report, load.quality)
    report.put("peak_rss_mb", sum(node.peak_rss_mb for node in nodes),
               len(nodes))
    report.notes["server.cpu_us_per_req"] = server_cpu / requests * 1e6
    report.notes["client.cpu_us_per_req"] = \
        closed["client_cpu"] / requests * 1e6


def _rate(workload: str, size: Size) -> float:
    """Open-loop arrival rate: well below single-request saturation."""
    return {"served-hot-get": size.hot_rate,
            "served-churn": size.churn_rate,
            "cluster-replicated": size.cluster_rate}[workload]


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
async def _marker(controls) -> None:
    for control in controls:
        await control.version()


async def _traced(workload: str, size: Size, seed: int, seconds: float,
                  report: Report) -> None:
    """An untraced closed loop for the overhead baseline, then traced
    nodes and a traced client for the per-layer numbers."""
    from perfbench import layers
    setup = _Setup(workload, size, seed)
    cluster = workload == "cluster-replicated"
    _, tape, payloads, nodes, target = await setup.once(report)
    try:
        load = _load(workload, tape, payloads, report)
        untraced = await closed_loop(target, load, seconds * 0.3, size)
        await target.close()
    finally:
        stop_all(nodes)
    common.OUT_DIR.mkdir(exist_ok=True)
    outs = [str(common.OUT_DIR / f"node-{os.getpid()}-{i}.json")
            for i in range(2 if cluster else 1)]
    _, tape, payloads, nodes, target = await setup.once(report, outs)
    tracer = Tracer()
    undo = layers.install_client(tracer, cluster)
    controls = _control_clients(nodes)
    try:
        load = _load(workload, tape, payloads, report)
        counters_before = (dict(target.client.counters) if cluster
                           else None)
        await _marker(controls)
        spans_before = tracer.snapshot()
        hits_before = load.server_hits
        batches_before = (load.batches, load.set_batches)
        cpu_before = [node.cpu_seconds() for node in nodes]
        closed = await closed_loop(target, load, seconds * 0.4, size)
        server_cpu = sum(node.cpu_seconds() - before
                         for node, before in zip(nodes, cpu_before))
        client_spans = delta(tracer.snapshot(), spans_before)
        hits = load.server_hits - hits_before
        batches = (load.batches - batches_before[0],
                   load.set_batches - batches_before[1])
        counters = ({name: value - counters_before[name]
                     for name, value in target.client.counters.items()}
                    if cluster else None)
        await _marker(controls)
        offsets = common.arrival_offsets(seed, _rate(workload, size),
                                         seconds * 0.3)
        _, lateness = await open_loop(target, load, offsets)
        await target.close()
        target = None
    finally:
        undo()
        for control in controls:
            await control.close()
        if target is not None:
            await target.close()
        stop_all(nodes)
    dumps = [node.trace_dump() for node in nodes]
    for out in outs:
        os.unlink(out)
    requests = closed["requests"]
    untraced_rate = untraced["probe"].work_rate()
    traced_rate = closed["probe"].work_rate()
    report.put("trace.overhead_ratio", untraced_rate / traced_rate,
               closed["probe"].units)
    report.notes["req_per_s_untraced"] = untraced_rate
    report.notes["req_per_s_traced"] = traced_rate
    report.put("client.late_ms_p99",
               common.quantile(lateness, 0.99) * 1e3, len(lateness))
    server = _server_phase(dumps)
    _server_metrics(report, server, requests, server_cpu)
    _client_metrics(report, client_spans, requests, server_cpu,
                    closed["client_cpu"], cluster)
    if cluster:
        _cluster_metrics(report, client_spans, counters, requests)
    _accounting(report, server, client_spans, hits, batches, cluster)


def _server_phase(dumps: List[List[dict]]) -> dict:
    """Closed-loop phase of every node, summed: spans, CAMP and engine
    counter deltas, and the engines' footprint at the phase end."""
    spans: Dict[str, List[int]] = {}
    camp: Dict[str, float] = {}
    engine: Dict[str, float] = {}
    for snapshots in dumps:
        before, after = snapshots[0], snapshots[1]
        for name, values in delta(after["spans"], before["spans"]).items():
            total = spans.setdefault(name, [0] * 5)
            for i, value in enumerate(values):
                total[i] += value
        for name in ("heap_updates", "heap_node_visits"):
            camp[name] = camp.get(name, 0) + (after["camp"][name]
                                              - before["camp"][name])
        camp["queue_count"] = camp.get("queue_count", 0) \
            + after["camp"]["queue_count"] / len(dumps)
        for name in ("hits", "evictions", "slab_reassignments"):
            engine[name] = engine.get(name, 0) + (after["engine"][name]
                                                  - before["engine"][name])
        for name in ("allocated_bytes", "user_bytes"):
            engine[name] = engine.get(name, 0) + after["engine"][name]
    return {"spans": spans, "camp": camp, "engine": engine}


def _agg(spans, name) -> List[int]:
    return spans.get(name, [0] * 5)


def _per_call_us(ns: float, calls: int) -> float:
    return ns / calls / 1e3 if calls else 0.0


def _server_metrics(report: Report, server: dict, requests: int,
                    server_cpu: float) -> None:
    spans, camp, engine = server["spans"], server["camp"], server["engine"]
    for name in ("on_hit", "on_insert", "pop_victim"):
        agg = _agg(spans, f"camp.{name}")
        report.put(f"camp.{name}_us",
                   _per_call_us(agg[TOTAL_NS], agg[CALLS]), agg[CALLS])
    report.put("camp.heap_updates_per_req", camp["heap_updates"] / requests,
               requests)
    report.put("camp.heap_node_visits_per_req",
               camp["heap_node_visits"] / requests, requests)
    report.put("camp.queue_count", camp["queue_count"], 1)
    store = [_agg(spans, n) for n in ("store.get", "store.put_outcome")]
    report.put("store.self_us",
               _per_call_us(sum(self_ns(a) for a in store),
                            sum(a[CALLS] for a in store)),
               sum(a[CALLS] for a in store))
    get, lookup = _agg(spans, "engine.get"), _agg(spans,
                                                  "engine.backend_lookup")
    put, insert = _agg(spans, "engine.set"), _agg(spans,
                                                  "engine.backend_insert")
    report.put("engine.get_self_us",
               _per_call_us(self_ns(get) + self_ns(lookup), get[CALLS]),
               get[CALLS])
    report.put("engine.set_self_us",
               _per_call_us(self_ns(put) + self_ns(insert), put[CALLS]),
               put[CALLS])
    report.put("engine.evictions_per_set",
               engine["evictions"] / put[CALLS] if put[CALLS] else 0.0,
               put[CALLS])
    report.put("engine.slab_reassignments", engine["slab_reassignments"], 1)
    report.put("engine.bytes_per_user_byte",
               engine["allocated_bytes"] / max(1, engine["user_bytes"]), 1)
    receive = _agg(spans, "protocol.receive")
    command = _agg(spans, "protocol.command")
    report.put("protocol.receive_self_us_per_cmd",
               _per_call_us(self_ns(receive) + self_ns(command),
                            command[CALLS]), command[CALLS])
    report.put("protocol.cmds_per_receive",
               command[CALLS] / max(1, receive[CALLS]), receive[CALLS])
    report.put("protocol.bytes_in_per_req", receive[UNITS] / requests,
               requests)
    report.put("protocol.bytes_out_per_req", receive[AUX] / requests,
               requests)
    report.put("server.cpu_us_per_req", server_cpu / requests * 1e6,
               requests)
    report.put("server.loop_us_per_req",
               (server_cpu * 1e9 - receive[TOTAL_NS]) / requests / 1e3,
               requests)


def _client_metrics(report: Report, spans, requests: int,
                    server_cpu: float, client_cpu: float,
                    cluster: bool) -> None:
    get, put = _agg(spans, "client.get_many"), _agg(spans, "client.set_many")
    report.put("client.cpu_us_per_req", client_cpu / requests * 1e6,
               requests)
    report.put("client.get_many_us", _per_call_us(get[TOTAL_NS], get[CALLS]),
               get[CALLS])
    report.put("client.set_many_us", _per_call_us(put[TOTAL_NS], put[CALLS]),
               put[CALLS])
    top = ("cluster.get_many", "cluster.set_many") if cluster \
        else ("client.get_many", "client.set_many")
    waited = sum(_agg(spans, name)[TOTAL_NS] for name in top)
    report.put("net.wait_us_per_req",
               (waited - server_cpu * 1e9) / requests / 1e3, requests)


def _cluster_metrics(report: Report, spans, counters: dict,
                     requests: int) -> None:
    tops = [_agg(spans, "cluster.get_many"), _agg(spans, "cluster.set_many")]
    children = [_agg(spans, "client.get_many"),
                _agg(spans, "client.set_many")]
    report.put("cluster.self_us_per_req",
               sum(self_ns(a) for a in tops) / requests / 1e3, requests)
    report.put("cluster.fanout_per_batch",
               sum(a[CALLS] for a in children)
               / max(1, sum(a[CALLS] for a in tops)),
               sum(a[CALLS] for a in tops))
    report.put("cluster.replica_hits_per_req",
               counters["replica_hits"] / requests, requests)
    for name in ("read_repairs", "failovers", "deadline_expirations"):
        report.put(f"cluster.{name}", counters[name], 1)


def _accounting(report: Report, server: dict, client_spans, hits: int,
                batches: tuple, cluster: bool) -> None:
    """Each wrapped boundary saw the calls the closed loop implies."""
    spans = server["spans"]

    def calls(name: str) -> int:
        return _agg(spans, name)[CALLS]
    keys_got = _agg(client_spans, "client.get_many")[UNITS]
    rows_set = _agg(client_spans, "client.set_many")[UNITS]
    report.expect_calls("engine.get", calls("engine.get"), keys_got)
    report.expect_calls("engine.set", calls("engine.set"), rows_set)
    report.expect_calls("store.get", calls("store.get"), calls("engine.get"))
    report.expect_calls("store.put_outcome", calls("store.put_outcome"),
                        calls("engine.set"))
    report.expect_calls("engine.backend_lookup",
                        calls("engine.backend_lookup"), calls("store.get"))
    report.expect_calls("engine.backend_insert",
                        calls("engine.backend_insert"),
                        calls("store.put_outcome"))
    report.expect_calls("protocol.command", calls("protocol.command"),
                        keys_got + rows_set)
    report.expect_calls("camp.on_hit", calls("camp.on_hit"), hits)
    report.expect_calls("engine hits", server["engine"]["hits"], hits)
    report.expect_calls("camp.on_insert", calls("camp.on_insert"), rows_set)
    top = "cluster" if cluster else "client"
    report.expect_calls(f"{top}.get_many",
                        _agg(client_spans, f"{top}.get_many")[CALLS],
                        batches[0])
    report.expect_calls(f"{top}.set_many",
                        _agg(client_spans, f"{top}.set_many")[CALLS],
                        batches[1])
    if batches[0] == 0:
        report.problem("accounting: the closed loop sent no batch")


def run(workload: str, size: Size, seed: int, seconds: float,
        trace: bool) -> Report:
    report = Report(workload, seed, trace)
    try:
        if trace:
            asyncio.run(_traced(workload, size, seed, seconds, report))
        else:
            asyncio.run(_measure(workload, size, seed, seconds, report))
    finally:
        gc.unfreeze()
    return report
