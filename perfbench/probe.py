"""Host-speed probe: throughput figures scaled to a nominal host.

On a virtual machine sharing its host with other tenants, the same code
runs at speeds up to 2x apart from one minute to the next, often with
no steal time to show for it, and in other stretches the hypervisor
steals a tenth of the VM's CPU time or more (both measured on 2-vCPU
Xeon guests).  So every timed unit of a workload is followed by one run
of a fixed probe: a pure-Python LRU cache loop over a fixed request
tape.  The probe's work depends neither on the program under test nor
on the workload seed, so its speed is the host's speed at that moment.

A throughput is reported as ``NOMINAL_RATE`` × the median over units of
unit rate (stolen time left out, see :class:`HostProbe`) / the probe
rate right after it: requests per second on a host where the probe runs
``NOMINAL_RATE`` accesses per second.  A set-up, which has no units, is
timed between two bursts of probe runs and scaled by their median rate.
The raw figures stay in the run's record.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import List, Sequence

__all__ = ["HostProbe", "NOMINAL_RATE", "nominal_seconds"]

#: probe accesses per second of the nominal host the figures are scaled
#: to (about the probe's median speed on a quiet 2 GHz Xeon vCPU)
NOMINAL_RATE = 6.0e6
_TAPE_LENGTH = 20000
_KEYS = 3000
_CAPACITY = 1 << 21
#: probe runs on each side of a set-up
_BURST = 10
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class _Slot:
    __slots__ = ("key", "size", "prev", "next")


def _probe_tape() -> List[tuple]:
    """Skewed keys and 512-8192 B sizes, from a fixed seed."""
    rng = random.Random(20140101)
    return [(f"probe:{int(rng.paretovariate(1.0)) % _KEYS}",
             rng.randint(512, 8192)) for _ in range(_TAPE_LENGTH)]


def _lru_pass(tape: Sequence[tuple]) -> int:
    """One pass of a byte-capacity LRU over ``tape``; returns the hits."""
    head = _Slot()
    head.prev = head.next = head
    slots = {}
    used = hits = 0
    for key, size in tape:
        slot = slots.get(key)
        if slot is not None:
            hits += 1
            slot.prev.next = slot.next
            slot.next.prev = slot.prev
        else:
            while used + size > _CAPACITY:
                victim = head.next
                victim.prev.next = victim.next
                victim.next.prev = victim.prev
                del slots[victim.key]
                used -= victim.size
            slot = _Slot()
            slot.key = key
            slot.size = size
            slots[key] = slot
            used += size
        slot.prev = head.prev
        slot.next = head
        head.prev.next = slot
        head.prev = slot
    return hits


class HostProbe:
    """Times the units of a workload, runs the probe after each and
    keeps both rates.

    A unit's time leaves out the CPU time the hypervisor stole from the
    VM meanwhile: the workload's processes take turns (one batch in
    flight), so stolen time is time the unit waited for a vCPU.  The
    steal counter moves in clock ticks, so at most half a unit's time is
    taken off.
    """

    def __init__(self) -> None:
        self._tape = _probe_tape()
        self._hits = _lru_pass(self._tape)
        self.unit_rates: List[float] = []
        self.probe_rates: List[float] = []
        #: time taken off the units as stolen (s)
        self.stolen_seconds = 0.0
        #: CPU time the probe itself used (kept out of CPU accounting)
        self.cpu_seconds = 0.0
        self._started = 0.0
        self._steal = 0

    def _run(self) -> float:
        clock = time.perf_counter
        cpu_started = time.process_time()
        started = clock()
        hits = _lru_pass(self._tape)
        rate = len(self._tape) / (clock() - started)
        self.cpu_seconds += time.process_time() - cpu_started
        if hits != self._hits:
            raise AssertionError("the host probe is not deterministic")
        return rate

    def start(self) -> None:
        """A unit starts now."""
        self._steal = _steal_ticks()
        self._started = time.perf_counter()

    def unit(self, work: int) -> None:
        """The unit started last did ``work`` requests and ends now;
        probe the host right after it."""
        elapsed = time.perf_counter() - self._started
        stolen = min(elapsed / 2,
                     (_steal_ticks() - self._steal) / _CLOCK_TICKS)
        self.stolen_seconds += stolen
        self.unit_rates.append(work / (elapsed - stolen))
        self.probe_rates.append(self._run())

    @property
    def units(self) -> int:
        return len(self.unit_rates)

    def work_rate(self) -> float:
        """Median over units of unit rate / adjacent probe rate, on the
        nominal host (requests/s)."""
        return NOMINAL_RATE * statistics.median(
            work / host for work, host in zip(self.unit_rates,
                                              self.probe_rates))

    def burst(self) -> List[float]:
        """Probe rates of back-to-back runs, taken on each side of a
        set-up (which has no units to put probe runs between)."""
        return [self._run() for _ in range(_BURST)]

    def notes(self) -> dict:
        """The raw figures behind the scaled ones, for the record."""
        return {"units": self.units, "stolen_s": self.stolen_seconds,
                "unit_rate_median": statistics.median(self.unit_rates),
                "probe_rate_median": statistics.median(self.probe_rates),
                "nominal_probe_rate": NOMINAL_RATE}


def _steal_ticks() -> int:
    """The VM's stolen CPU time so far, in clock ticks (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8])


def nominal_seconds(seconds: float, rates: Sequence[float]) -> float:
    """A duration measured between probe runs at ``rates``, on the
    nominal host."""
    return seconds * statistics.median(rates) / NOMINAL_RATE
