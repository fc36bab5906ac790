"""Microbenchmark scenarios exercising the simulator's hot paths.

Each scenario is a pure function of its ``scale`` knob: the simulated
work is fully deterministic (fixed seeds, no wall-clock input), so
``dispatched_events`` is byte-stable run to run and machine to machine —
only the wall time varies.  That split is what makes the committed
baseline gate workable: dispatched counts are compared exactly (a drift
means the simulation changed), events/sec within a generous band (CI
runners are noisy).

Scenario catalogue:

* ``event_churn`` — raw heap throughput: a flat batch of pre-scheduled
  events plus a long chain of immediate re-schedules.
* ``timer_restart_storm`` — the view-change pattern that motivated the
  lazy-deadline timer: a bank of progress timers restarted ten times
  per period.
* ``net_multicast`` — the network fan-out path: metering, per-link
  latency sampling and delivery scheduling.
* ``fig2_slice`` — a saturated paxos replica from the paper's Figure 2
  (150 clients), the end-to-end composition of all of the above.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable

from repro.sim.loop import EventLoop
from repro.sim.timers import RestartableTimer


@dataclass(frozen=True)
class PerfResult:
    """One scenario measurement."""

    scenario: str
    wall_seconds: float
    dispatched_events: int
    events_per_sec: float
    peak_heap: int
    drained_tombstones: int

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.scenario,
            "wall_seconds": self.wall_seconds,
            "dispatched_events": self.dispatched_events,
            "events_per_sec": self.events_per_sec,
            "peak_heap": self.peak_heap,
            "drained_tombstones": self.drained_tombstones,
        }


def _measure(scenario: str, loop: EventLoop, run: Callable[[], None]) -> PerfResult:
    """Time ``run()`` and package the loop's counters."""
    # A gen-2 collection pausing mid-measurement swings short (few-ms)
    # samples far beyond the baseline band, so the timed region runs
    # with the collector held off, like timeit does.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        run()
        wall_seconds = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    dispatched = loop.dispatched_events
    return PerfResult(
        scenario=scenario,
        wall_seconds=wall_seconds,
        dispatched_events=dispatched,
        events_per_sec=dispatched / wall_seconds if wall_seconds > 0 else 0.0,
        peak_heap=loop.peak_heap,
        drained_tombstones=loop.drained_tombstones,
    )


def _nothing() -> None:
    pass


def event_churn(scale: float = 1.0) -> PerfResult:
    """Raw dispatch throughput: pre-scheduled batch + immediate chain."""
    loop = EventLoop()
    total = max(2, int(200_000 * scale))

    def chain(k: int) -> None:
        if k:
            loop.call_after(1e-6, chain, k - 1)

    def run() -> None:
        for i in range(total // 2):
            loop.call_at(i * 1e-6, _nothing)
        loop.call_after(0.0, chain, total // 2)
        loop.run()

    return _measure("event_churn", loop, run)


def timer_restart_storm(scale: float = 1.0) -> PerfResult:
    """A bank of progress timers restarted 10x per period (view-change load)."""
    loop = EventLoop()
    period = 1e-3
    fired = [0]
    timers = [
        RestartableTimer(loop, period, fired.__setitem__, 0, 0) for _ in range(16)
    ]
    rounds = max(1, int(40_000 * scale))

    def tick(k: int) -> None:
        for timer in timers:
            timer.restart()
        if k:
            loop.call_after(period / 10, tick, k - 1)

    def run() -> None:
        for timer in timers:
            timer.start()
        loop.call_after(0.0, tick, rounds)
        loop.run()

    return _measure("timer_restart_storm", loop, run)


def net_multicast(scale: float = 1.0) -> PerfResult:
    """Network fan-out: metering + latency sampling + delivery scheduling."""
    from repro.net.addresses import replica_address
    from repro.net.message import Message
    from repro.net.network import Network, NetworkNode
    from repro.sim.rng import RngRegistry

    class Sink(NetworkNode):
        def __init__(self, address):
            self.address = address

        def deliver(self, src, message):
            pass

    class Probe(Message):
        __slots__ = ()

    loop = EventLoop()
    net = Network(loop, RngRegistry(1))
    nodes = [Sink(replica_address(i)) for i in range(5)]
    for node in nodes:
        net.attach(node)
    message = Probe()
    src = nodes[0].address
    dsts = [node.address for node in nodes[1:]]
    rounds = max(1, int(30_000 * scale))

    def run() -> None:
        for round_ in range(rounds):
            net.multicast(src, dsts, message)
            if round_ % 100 == 0:
                loop.run_until(loop.now + 1e-3)
        loop.run()

    return _measure("net_multicast", loop, run)


def fig2_slice(scale: float = 1.0) -> PerfResult:
    """A saturated paxos replica: 150 clients from the Figure 2 sweep."""
    from repro.cluster.builder import build_cluster

    stop_time = 0.3 * scale
    started = time.perf_counter()
    cluster = build_cluster("paxos", 150, seed=1, stop_time=stop_time)
    cluster.run_until(stop_time)
    wall_seconds = time.perf_counter() - started
    loop = cluster.loop
    dispatched = loop.dispatched_events
    return PerfResult(
        scenario="fig2_slice",
        wall_seconds=wall_seconds,
        dispatched_events=dispatched,
        events_per_sec=dispatched / wall_seconds if wall_seconds > 0 else 0.0,
        peak_heap=loop.peak_heap,
        drained_tombstones=loop.drained_tombstones,
    )
