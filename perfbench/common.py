"""Inputs, sizes and result plumbing shared by every workload."""

from __future__ import annotations

import json
import os
import pathlib
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for node trace dumps and the run trajectory (ignored by git)
OUT_DIR = ROOT / ".perfbench"

UNIT_OF = {
    # end to end
    "setup_s": "s", "req_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms",
    "hit_rate": "ratio", "cost_hit_ratio": "ratio",
    "success_rate": "ratio", "peak_rss_mb": "MB",
    # repro.core
    "camp.on_hit_us": "us", "camp.on_insert_us": "us",
    "camp.pop_victim_us": "us", "camp.heap_updates_per_req": "count",
    "camp.heap_node_visits_per_req": "count", "camp.queue_count": "count",
    # repro.cache
    "store.self_us": "us", "kvs.self_us": "us",
    "kvs.evictions_per_insert": "count",
    # repro.twemcache.engine
    "engine.get_self_us": "us", "engine.set_self_us": "us",
    "engine.evictions_per_set": "count", "engine.slab_reassignments": "count",
    "engine.bytes_per_user_byte": "ratio",
    # repro.twemcache.protocol
    "protocol.receive_self_us_per_cmd": "us",
    "protocol.cmds_per_receive": "count",
    "protocol.bytes_in_per_req": "bytes", "protocol.bytes_out_per_req": "bytes",
    # asyncio server and client
    "server.cpu_us_per_req": "us", "server.loop_us_per_req": "us",
    "client.cpu_us_per_req": "us", "client.get_many_us": "us",
    "client.set_many_us": "us", "net.wait_us_per_req": "us",
    "client.late_ms_p99": "ms",
    # repro.cluster.client
    "cluster.self_us_per_req": "us", "cluster.fanout_per_batch": "count",
    "cluster.replica_hits_per_req": "count", "cluster.read_repairs": "count",
    "cluster.failovers": "count", "cluster.deadline_expirations": "count",
    # the tracer itself
    "trace.overhead_ratio": "ratio",
}

#: the end-to-end metrics BENCHMARK.json bounds
END_TO_END = ("setup_s", "req_per_s", "hit_rate", "cost_hit_ratio",
              "success_rate", "peak_rss_mb")
#: open-loop latency: printed and recorded by every untraced run but not
#: bounded, because on a shared virtual machine host stalls move it by
#: more than any bound allows from one run to the next
OPEN_LOOP = ("p50_ms", "p99_ms")
PER_LAYER = tuple(name for name in UNIT_OF
                  if name not in END_TO_END + OPEN_LOOP)


@dataclass(frozen=True)
class Size:
    """Every size knob of one benchmark scale."""

    trace_keys: int          # key universe of the three-cost trace
    trace_requests: int      # trace length (served loops replay it cyclically)
    hot_keys: int            # served-hot-get working set
    hot_memory: int          # served-hot-get node memory (> working set)
    batch: int               # closed loop: keys per pipelined batch
    sim_rate: float          # open loop arrivals/s, in-process store
    hot_rate: float          # open loop arrivals/s, served-hot-get
    churn_rate: float        # open loop arrivals/s, served-churn
    cluster_rate: float      # open loop arrivals/s, cluster-replicated
    setup_repeats: int       # set-ups per run; setup_s is their median
    unit_requests: int       # requests per timed unit (a probe follows each)


FULL = Size(trace_keys=20_000, trace_requests=150_000, hot_keys=5_000,
            hot_memory=64 << 20, batch=100, sim_rate=20_000.0,
            hot_rate=1_500.0, churn_rate=1_000.0, cluster_rate=600.0,
            setup_repeats=3, unit_requests=2000)
#: seconds-fast inputs for the self-tests
SMOKE = Size(trace_keys=400, trace_requests=3_000, hot_keys=200,
             hot_memory=16 << 20, batch=50, sim_rate=5_000.0,
             hot_rate=500.0, churn_rate=500.0, cluster_rate=300.0,
             setup_repeats=1, unit_requests=500)
SIZES = {"full": FULL, "smoke": SMOKE}

#: cache sizes as shares of the trace's unique bytes
SIM_CACHE_RATIO = 0.1
CHURN_MEMORY_RATIO = 0.1
CLUSTER_NODE_MEMORY_RATIO = 0.5
#: the open-loop generator counts as fallen behind (latency invalid) when
#: a tenth of its arrivals went out later than this; a brief host stall
#: delays a few arrivals, a generator that cannot keep up delays most
MAX_LATE_P90_S = 0.001
#: open-loop latency percentiles are taken per this many consecutive
#: arrivals, so p99 has at least ten samples beyond it
LATENCY_CHUNK = 1000


def child_env() -> Dict[str, str]:
    """Environment for spawned node processes (same source tree)."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def three_cost(size: Size, seed: int, n_keys: Optional[int] = None):
    """The paper's three-cost trace: Zipf keys, costs {1, 100, 10K},
    sizes 512-8192 B, everything drawn from ``seed``."""
    from repro.workloads.synthetic import three_cost_trace
    return three_cost_trace(n_keys=n_keys or size.trace_keys,
                            n_requests=size.trace_requests, seed=seed)


def payload(key: str, size: int) -> bytes:
    """The deterministic value bytes of ``key`` (``size`` long)."""
    unit = f"{key}:".encode()
    return (unit * (size // len(unit) + 1))[:size]


def payloads_for(tape: Sequence[tuple]) -> Dict[str, bytes]:
    values: Dict[str, bytes] = {}
    for key, size, _cost in tape:
        if key not in values:
            values[key] = payload(key, size)
    return values


def arrival_offsets(seed: int, rate: float, seconds: float) -> List[float]:
    """Poisson arrival times (s from phase start) drawn from ``seed``."""
    rng = random.Random(seed * 7919 + 17)
    offsets = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
    return ordered[index]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


@dataclass
class Report:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    valid: bool = True
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int,
            unit: Optional[str] = None) -> None:
        self.metrics[name] = {"value": float(value),
                              "unit": unit or UNIT_OF[name],
                              "samples": int(samples)}

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def expect_calls(self, boundary: str, recorded: int,
                     implied: int) -> None:
        """Accounting check: a wrapped boundary saw the calls the
        workload implies (a prebound method would silently show 0)."""
        self.notes.setdefault("accounting", {})[boundary] = \
            [recorded, implied]
        if recorded != implied:
            self.problem(f"accounting: {boundary} recorded {recorded} "
                         f"calls, the workload implies {implied}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0


def put_open_loop(report: Report, latencies: Sequence[float],
                  lateness: Sequence[float]) -> None:
    """``p50_ms`` / ``p99_ms`` of open-loop latencies (seconds, in
    arrival order).  When the generator fell behind they are not
    reported and the record is marked invalid: the latency would be the
    generator's.  The closed-loop and quality figures stand either way.

    Percentiles are taken per :data:`LATENCY_CHUNK` arrivals and the
    lower quartile over those chunks is reported (a shorter sample is
    one chunk): a stolen vCPU only ever adds latency, in bursts, so the
    quieter chunks are the ones the code decides.  The whole-sample
    percentiles go into the record's notes.
    """
    late_p90 = quantile(lateness, 0.90) if lateness else 0.0
    report.notes["generator_late_ms_p90"] = late_p90 * 1e3
    report.notes["generator_late_ms_p99"] = \
        quantile(lateness, 0.99) * 1e3 if lateness else 0.0
    if not latencies:
        report.problem("open loop completed no request")
        return
    chunks = [latencies[i:i + LATENCY_CHUNK]
              for i in range(0, len(latencies), LATENCY_CHUNK)]
    if len(chunks) > 1 and len(chunks[-1]) < LATENCY_CHUNK:
        chunks.pop()
    if late_p90 > MAX_LATE_P90_S:
        report.valid = False
        return
    for name, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
        per_chunk = [quantile(chunk, q) for chunk in chunks]
        report.put(name, quantile(per_chunk, 0.25) * 1e3, len(latencies))
        report.notes[f"{name}_whole_sample"] = quantile(latencies, q) * 1e3


def put_quality(report: Report, quality) -> None:
    """The paper's quality metrics from a ``SimulationMetrics`` (cold
    requests excluded), and the share of operations that passed their
    output checks.  Bounded as hit shares, which are never 0; the miss
    shares stay in the notes."""
    counted = quality.counted_requests
    report.put("hit_rate", quality.hits / counted, counted)
    report.put("cost_hit_ratio",
               1.0 - quality.cost_missed / quality.cost_total, counted)
    report.notes["miss_rate"] = quality.miss_rate
    report.notes["cost_miss_ratio"] = quality.cost_miss_ratio
    report.put("success_rate", 1.0 - report.failed / report.attempted,
               report.attempted)


def cpu_ticks() -> List[int]:
    """The host-wide ``/proc/stat`` CPU counters (user ... steal)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests."""
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / max(1, sum(spent))


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record_of(report: Report, seconds: float) -> dict:
    """The machine-readable record of one run (the perf trajectory)."""
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": report.workload,
        "seed": report.seed,
        "seconds": seconds,
        "trace": report.trace,
        "valid": report.valid,
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems,
        "metrics": report.metrics,
        "notes": report.notes,
        "unix_time": time.time(),
    }


def append_record(record: dict) -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "records.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path
