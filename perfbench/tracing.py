"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` replaces a public method (or module function) with a
wrapper that times each call and files it under a span name.  Spans are
aggregated in memory as they close — per name: calls, total time, the
part of that time covered by child spans, and two free counters that a
``measure`` callback fills (keys in a batch, bytes in and out) — so a
layer's *self time* is ``total - child`` without keeping millions of
span records around.

Synchronous spans nest through a stack (one thread per process is
traced).  Asynchronous spans find their parent through a context
variable, which asyncio copies into every task a span spawns, so a
``gather`` fan-out files each child interval under the coroutine that
started it; the parent's child time is the *union* of those intervals.

Every wrapper is undoable: ``install`` returns a callable that puts the
original attribute back, so a traced phase can follow an untraced one in
the same process.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "CALLS", "TOTAL_NS", "CHILD_NS", "UNITS", "AUX",
           "self_ns", "delta"]

#: positions in a span aggregate
CALLS, TOTAL_NS, CHILD_NS, UNITS, AUX = range(5)

_now = time.perf_counter_ns
#: the open async span of the running task: a list its children append
#: their ``(start, end)`` intervals to
_open_async: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_open_span", default=None)


def _covered(intervals: List[tuple], start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of intervals."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_ns(aggregate: List[int]) -> int:
    return aggregate[TOTAL_NS] - aggregate[CHILD_NS]


def delta(after: Dict[str, List[int]],
          before: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Span aggregates accumulated between two snapshots."""
    out = {}
    for name, values in after.items():
        base = before.get(name, [0] * 5)
        out[name] = [a - b for a, b in zip(values, base)]
    return out


class Tracer:
    """Aggregated spans for the layers of one process."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[int]] = {}
        self._stack: List[int] = []

    def aggregate(self, name: str) -> List[int]:
        return self.spans.setdefault(name, [0, 0, 0, 0, 0])

    def snapshot(self) -> Dict[str, List[int]]:
        return {name: list(values) for name, values in self.spans.items()}

    def install(self, owner: object, attr: str, name: str,
                measure: Optional[Callable] = None) -> Callable[[], None]:
        """Wrap ``owner.attr`` (a class or module) in a span; returns the
        undo.  ``measure(args, result)`` returns ``(units, aux)`` added
        to the aggregate's free counters."""
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        stat = self.aggregate(name)
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, stat, measure)
        else:
            wrapper = self._sync_wrapper(original, stat, measure)
        setattr(owner, attr, wrapper)

        def undo() -> None:
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return undo

    def _sync_wrapper(self, fn, stat, measure):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = _now() - start
                child = stack.pop()
                stat[CALLS] += 1
                stat[TOTAL_NS] += elapsed
                stat[CHILD_NS] += child
                if stack:
                    stack[-1] += elapsed
                if measure is not None:
                    units, aux = measure(args, result)
                    stat[UNITS] += units
                    stat[AUX] += aux
        return wrapper

    @staticmethod
    def _async_wrapper(fn, stat, measure):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = _open_async.get()
            children: List[tuple] = []
            token = _open_async.set(children)
            start = _now()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                _open_async.reset(token)
                stat[CALLS] += 1
                stat[TOTAL_NS] += end - start
                stat[CHILD_NS] += _covered(children, start, end)
                if parent is not None:
                    parent.append((start, end))
                if measure is not None:
                    units, aux = measure(args, result)
                    stat[UNITS] += units
                    stat[AUX] += aux
        return wrapper
