"""The time-series flight recorder: bounded per-(node, series) history.

The probe layer (:mod:`repro.obs.probes`) samples protocol internals on
the hub's sim-time cadence and records each value here.  A series keeps
its newest :data:`DEFAULT_MAXLEN` samples verbatim, in time order;
older ones are dropped.  Summaries of a series are the science path's
exact :class:`~repro.sim.monitor.SummaryStats` over its retained values.

Like everything in ``repro.obs`` the recorder is observer-pure: it only
ever *reads* simulation state handed to it and appends to its own
buffers — no RNG, no scheduling, no protocol mutation.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator, Optional

#: Samples retained per (node, series): 40.96 s at the 10 ms cadence.
DEFAULT_MAXLEN = 4096


class Series:
    """One (time, value) history: the newest samples, oldest first."""

    __slots__ = ("node", "name", "_times", "_values", "count")

    def __init__(self, node: str, name: str):
        self.node = node
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        self.count = 0  # lifetime samples (retained + evicted)

    def record(self, time: float, value: float) -> None:
        """Append one sample (dropping the oldest past the capacity).

        Samples arrive in time order, which keeps ``_times`` sorted for
        :meth:`value_at`.
        """
        self._times.append(time)
        self._values.append(value)
        if len(self._times) > DEFAULT_MAXLEN:
            del self._times[0]
            del self._values[0]
        self.count += 1

    def __len__(self) -> int:
        return len(self._times)

    @property
    def evicted(self) -> int:
        """Samples dropped to keep the capacity."""
        return self.count - len(self._times)

    @property
    def last_time(self) -> float:
        return self._times[-1] if self._times else math.nan

    @property
    def last_value(self) -> float:
        return self._values[-1] if self._values else math.nan

    def samples(self) -> Iterator[tuple[float, float]]:
        """Retained samples, oldest first."""
        return zip(self._times, self._values)

    def times(self) -> list[float]:
        return list(self._times)

    def values(self) -> list[float]:
        return list(self._values)

    def value_at(self, time: float) -> float:
        """The last retained value recorded at or before ``time``.

        NaN when ``time`` predates every retained sample.
        """
        index = bisect.bisect_right(self._times, time)
        return self._values[index - 1] if index else math.nan


class FlightRecorder:
    """All probe series of one run, keyed by ``(node, series name)``.

    Iteration orders are sorted everywhere, so renders, exports and the
    drift detector built on top are independent of insertion order and
    of ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, str], Series] = {}
        # Annotation marks (fault windows): dicts with time/end/label.
        self.marks: list[dict] = []
        self.samples_recorded = 0

    def record(self, time: float, node: str, name: str, value: float) -> None:
        """Record one sample for series ``name`` of ``node``."""
        key = (node, name)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Series(node, name)
        series.record(time, value)
        self.samples_recorded += 1

    def mark(self, time: float, end: float, label: str) -> None:
        """Annotate a sim-time window (e.g. a fault) on the recording."""
        self.marks.append({"time": time, "end": end, "label": label})

    # -- lookup --------------------------------------------------------

    def series(self, node: str, name: str) -> Optional[Series]:
        return self._series.get((node, name))

    def nodes(self) -> list[str]:
        return sorted({node for node, _ in self._series})

    def names(self, node: str) -> list[str]:
        return sorted(name for n, name in self._series if n == node)

    def items(self) -> list[tuple[tuple[str, str], Series]]:
        """All series, sorted by (node, name)."""
        return sorted(self._series.items())

    def __len__(self) -> int:
        return len(self._series)
