"""Run one benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` gives the reason for each):

``sim-three-cost``
    ``repro.sim.simulate`` in process: ``Store`` → ``KVS`` → CAMP on the
    paper's three-cost trace; no serving layer runs.
``served-hot-get``
    One node process, preloaded, memory above the working set: all gets
    hit, so protocol, transport and client dominate.
``served-churn``
    One node at 0.1 of the trace's unique bytes: gets, and a
    recompute-``set`` with the trace cost on every miss.
``cluster-replicated``
    Two nodes behind ``ClusterClient`` (replicas=2): routing, fan-out,
    replica reads and read-repair.

The seed draws every input (trace, costs, sizes, arrival schedule).  A
run prints a table of every metric with its unit and sample count, a
``RECORD`` line holding the machine-readable record (git sha, nproc,
Python version, workload, seed, metrics) — also appended to
``.perfbench/records.jsonl`` — and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs with
per-layer spans and reports the per-layer metrics, the call-count
accounting check and the tracing overhead.  ``req_per_s`` and
``setup_s`` are scaled to a nominal host by a probe run beside the
workload (:mod:`perfbench.probe`); the raw figures are in the record.

Exit codes: 0 when every output check passed, 1 when one failed (the
result line says ``"correct": false``), 2 when the source tree is
missing.  When the open-loop generator fell behind, ``p50_ms`` and
``p99_ms`` are not reported (0 with no samples) and the record says
``"valid": false``; they are not among the bounded metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOADS = ("sim-three-cost", "served-hot-get", "served-churn",
             "cluster-replicated")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def execute(workload: str, seed: int, seconds: float, trace: bool,
            size_name: str = "full"):
    """Run one workload; returns its :class:`~perfbench.common.Report`
    with every metric of the requested kind filled in (0 with no samples
    for a layer the workload does not exercise).  ``size_name="smoke"``
    runs the self-tests' seconds-fast inputs."""
    from perfbench import common, served, sim
    size = common.SIZES[size_name]
    if workload == "sim-three-cost":
        report = sim.run(size, seed, seconds, trace)
    else:
        report = served.run(workload, size, seed, seconds, trace)
    expected = (common.PER_LAYER if trace
                else common.END_TO_END + common.OPEN_LOOP)
    for name in expected:
        if name not in report.metrics:
            report.put(name, 0.0, 0)
    return report


def result_line(report) -> dict:
    from perfbench import common
    names = common.PER_LAYER if report.trace else common.END_TO_END
    return {"correct": report.correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {name: {"value": report.metrics[name]["value"],
                               "unit": report.metrics[name]["unit"]}
                        for name in names}}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (_ROOT / "src" / "repro").is_dir():
        print("perfbench: no repro source tree (src/repro) beside "
              "perfbench/", file=sys.stderr)
        return 2
    # import repro and perfbench as packages from this checkout, never
    # perfbench's own modules as top-level ones
    sys.path[:] = [str(_ROOT / "src"), str(_ROOT)] + [
        path for path in sys.path if path != str(_ROOT / "perfbench")]
    # SIGTERM unwinds like an exception, so spawned nodes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from perfbench import common
    ticks = common.cpu_ticks()
    report = execute(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    report.notes["host_steal_share"] = common.steal_share(
        ticks, common.cpu_ticks())
    for name, metric in report.metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"n={metric['samples']}")
    for text in report.problems:
        print(f"PROBLEM {text}")
    record = common.record_of(report, args.seconds)
    common.append_record(record)
    print("RECORD " + json.dumps(record, sort_keys=True))
    if not report.valid:
        print("perfbench: the open-loop generator fell behind (p90 "
              f"lateness {report.notes['generator_late_ms_p90']:.3f} ms); "
              "open-loop latency is not reported", file=sys.stderr)
    print(json.dumps(result_line(report)))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
