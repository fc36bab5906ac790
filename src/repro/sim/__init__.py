"""Discrete-event simulation kernel.

This package provides the deterministic substrate on which every
replicated system in this repository runs: a single-threaded event loop
with a simulated clock (:class:`EventLoop`), cancellable timers
(:class:`Timer`, :class:`RestartableTimer`), named pseudo-random number
streams for reproducibility (:class:`RngRegistry`), serial CPU service
stations that create realistic queueing behaviour under load
(:class:`Processor`), and measurement helpers (:mod:`repro.sim.monitor`).

All simulated time is expressed in seconds as floats.
"""

from repro.sim.errors import SimulationError, StoppedError
from repro.sim.loop import EventLoop, Event
from repro.sim.monitor import (
    CounterSeries,
    IntervalRecorder,
    LatencyRecorder,
    SummaryStats,
)
from repro.sim.processor import Processor
from repro.sim.rng import RngRegistry
from repro.sim.timers import RestartableTimer, Timer

__all__ = [
    "CounterSeries",
    "Event",
    "EventLoop",
    "IntervalRecorder",
    "LatencyRecorder",
    "Processor",
    "RestartableTimer",
    "RngRegistry",
    "SimulationError",
    "StoppedError",
    "SummaryStats",
    "Timer",
]
