"""A cluster node with per-layer spans installed.

    python perfbench/traced_node.py --perfbench-out PATH [node options]

Installs the server-side spans of :func:`perfbench.layers.install_server`,
turns CAMP's ``stats`` accounting on in every per-class policy the
engine creates, then runs ``repro.cluster.node.main`` with the remaining
options.  A connection that sends a lone ``version`` command marks a
phase boundary: the node snapshots its span aggregates, CAMP counters
and engine counters, and answers without touching any traced layer.
On exit (SIGTERM, as for any node) the snapshots — one per marker plus
a final one — are written to ``PATH`` as JSON.
"""

from __future__ import annotations

import json
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _engine_state(engines) -> dict:
    state = {"hits": 0, "evictions": 0, "slab_reassignments": 0,
             "allocated_bytes": 0, "user_bytes": 0}
    for engine in engines:
        stats = engine.stats()
        for name in ("hits", "evictions", "slab_reassignments"):
            state[name] += stats[name]
        state["allocated_bytes"] += (stats["allocated_slabs"]
                                     * engine.allocator._slab_size)
        state["user_bytes"] += sum(len(key) + len(item.value)
                                   for key, item in engine._items.items())
    return state


def _camp_state(policies) -> dict:
    state = {"heap_updates": 0, "heap_node_visits": 0, "queue_count": 0}
    for policy in policies:
        stats = policy.stats()
        for name in state:
            state[name] += stats[name]
    return state


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    at = argv.index("--perfbench-out")
    out = argv[at + 1]
    del argv[at:at + 2]
    sys.path[:] = [str(_ROOT / "src"), str(_ROOT)] + [
        path for path in sys.path if path != str(_ROOT / "perfbench")]

    from perfbench import layers
    from perfbench.tracing import Tracer
    from repro.cluster import node
    from repro.twemcache import engine as engine_module
    from repro.twemcache.protocol import ServerSession

    policies = []
    engines = []

    class CountingCamp(engine_module.CampPolicy):
        """The engine's CAMP with measurement accounting on."""

        def __init__(self, *args, **kwargs) -> None:
            kwargs["stats"] = True
            super().__init__(*args, **kwargs)
            policies.append(self)

    engine_module.CampPolicy = CountingCamp
    engine_init = engine_module.TwemcacheEngine.__init__

    def register_engine(self, *args, **kwargs) -> None:
        engine_init(self, *args, **kwargs)
        engines.append(self)

    engine_module.TwemcacheEngine.__init__ = register_engine

    tracer = Tracer()
    layers.install_server(tracer)
    snapshots = []

    def snapshot() -> None:
        snapshots.append({"spans": tracer.snapshot(),
                          "camp": _camp_state(policies),
                          "engine": _engine_state(engines)})

    traced_receive = ServerSession.receive

    def receive(self, data: bytes):
        if data == layers.MARKER:
            snapshot()
            return b"VERSION perfbench-marker\r\n", False
        return traced_receive(self, data)

    ServerSession.receive = receive
    code = node.main(argv)
    snapshot()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(snapshots, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
