"""Where the spans go: the public boundary of each layer.

Each ``install_*`` wraps one process's layers in a :class:`Tracer` and
returns the undo.  Span names are ``<layer>.<method>``; the workload
modules (:mod:`perfbench.sim`, :mod:`perfbench.served`) derive the
per-layer metrics from them.

===================  ==============================================
span                 wrapped boundary
===================  ==============================================
camp.*               ``CampPolicy.on_hit / on_insert / pop_victim``
store.*              ``Store.access_outcome / get / put_outcome``
kvs.*                ``KVS.lookup / insert``
engine.get / set     ``TwemcacheEngine.get / set``
engine.backend_*     the engine's slab backend ``lookup / insert``
protocol.receive     ``ServerSession.receive`` (bytes in, bytes out)
protocol.command     ``execute_command`` (one per protocol command)
client.*             ``AsyncSocketClient.get_many / set_many`` (keys)
cluster.*            ``ClusterClient.get_many / set_many`` (keys)
===================  ==============================================
"""

from __future__ import annotations

from typing import Callable, List

from perfbench.tracing import Tracer

__all__ = ["install_policy", "install_sim", "install_server",
           "install_client", "MARKER"]

#: a lone ``version`` command marks a phase boundary in a traced node
MARKER = b"version\r\n"


def _undo_all(undos: List[Callable[[], None]]) -> Callable[[], None]:
    def undo() -> None:
        for step in reversed(undos):
            step()
    return undo


def install_policy(tracer: Tracer) -> List[Callable[[], None]]:
    from repro.core.camp import CampPolicy
    return [tracer.install(CampPolicy, "on_hit", "camp.on_hit"),
            tracer.install(CampPolicy, "on_insert", "camp.on_insert"),
            tracer.install(CampPolicy, "pop_victim", "camp.pop_victim")]


def install_sim(tracer: Tracer) -> Callable[[], None]:
    """``simulate`` → ``Store.access_outcome`` → ``KVS`` → CAMP."""
    from repro.cache.kvs import KVS
    from repro.cache.store import Store
    undos = install_policy(tracer)
    undos += [tracer.install(Store, "access_outcome", "store.access"),
              tracer.install(KVS, "lookup", "kvs.lookup"),
              tracer.install(KVS, "insert", "kvs.insert")]
    return _undo_all(undos)


def _receive_bytes(args, result):
    return len(args[1]), (len(result[0]) if result is not None else 0)


def install_server(tracer: Tracer) -> Callable[[], None]:
    """Protocol → engine → slab backend → ``Store`` → CAMP, in a node."""
    from repro.cache.store import Store
    from repro.twemcache import engine as engine_module
    from repro.twemcache import protocol
    undos = install_policy(tracer)
    undos += [
        tracer.install(Store, "get", "store.get"),
        tracer.install(Store, "put_outcome", "store.put_outcome"),
        tracer.install(engine_module._SlabBackend, "lookup",
                       "engine.backend_lookup"),
        tracer.install(engine_module._SlabBackend, "insert",
                       "engine.backend_insert"),
        tracer.install(engine_module.TwemcacheEngine, "get", "engine.get"),
        tracer.install(engine_module.TwemcacheEngine, "set", "engine.set"),
        tracer.install(protocol, "execute_command", "protocol.command"),
        tracer.install(protocol.ServerSession, "receive",
                       "protocol.receive", measure=_receive_bytes),
    ]
    return _undo_all(undos)


def _keys(args, _result):
    return len(args[1]), 0


def install_client(tracer: Tracer, cluster: bool) -> Callable[[], None]:
    """The benchmark process's side: socket client, and the cluster
    client above it when ``cluster``."""
    from repro.twemcache.async_client import AsyncSocketClient
    undos = [
        tracer.install(AsyncSocketClient, "get_many", "client.get_many",
                       measure=_keys),
        tracer.install(AsyncSocketClient, "set_many", "client.set_many",
                       measure=_keys),
    ]
    if cluster:
        from repro.cluster.client import ClusterClient
        undos += [
            tracer.install(ClusterClient, "get_many", "cluster.get_many",
                           measure=_keys),
            tracer.install(ClusterClient, "set_many", "cluster.set_many",
                           measure=_keys),
        ]
    return _undo_all(undos)
