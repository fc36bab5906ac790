"""Measurement primitives used by the experiment harness.

These classes record what the paper's evaluation plots: latency samples
with mean/std/percentile summaries (:class:`LatencyRecorder`), bucketed
event counts for crash timelines (:class:`CounterSeries`), and
windowed interval statistics (:class:`IntervalRecorder`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a sample: count, mean, standard deviation, percentiles."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    # The 99.9th percentile: the paper targets tail latency, and at
    # experiment sample sizes p99 alone under-resolves the tail.
    p999: float = 0.0

    @staticmethod
    def empty() -> "SummaryStats":
        """The summary of an empty sample (all statistics are zero)."""
        return SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def of(samples: list[float]) -> "SummaryStats":
        """Compute the summary of ``samples`` (which is not modified)."""
        if not samples:
            return SummaryStats.empty()
        ordered = sorted(samples)
        n = len(ordered)
        mean = sum(ordered) / n
        variance = sum((x - mean) ** 2 for x in ordered) / n
        return SummaryStats(
            count=n,
            mean=mean,
            std=math.sqrt(variance),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 0.50),
            p90=percentile(ordered, 0.90),
            p99=percentile(ordered, 0.99),
            p999=percentile(ordered, 0.999),
        )


def _bucket_index(time: float, width: float) -> int:
    """Bucket index of ``time``, robust to float division noise."""
    return int(time / width + 1e-9)


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    lo = ordered[low]
    # lo + f*(hi-lo) rather than lo*(1-f) + hi*f: the latter underflows
    # to 0.0 for denormal samples (0.5 * 5e-324 rounds to zero), which
    # can report a percentile below the sample minimum.  This form
    # returns lo exactly when lo == hi.
    return lo + fraction * (ordered[high] - lo)


class LatencyRecorder:
    """Collects latency samples, optionally restricted to a measurement window.

    Samples recorded before ``window_start`` or after ``window_end`` are
    discarded, which is how experiments exclude warm-up and cool-down.
    """

    def __init__(self, window_start: float = 0.0, window_end: float = math.inf):
        self.window_start = window_start
        self.window_end = window_end
        self.samples: list[float] = []

    def record(self, time: float, latency: float) -> None:
        """Record one latency sample taken at simulated time ``time``."""
        if self.window_start <= time <= self.window_end:
            self.samples.append(latency)

    def summary(self) -> SummaryStats:
        """Summarise the collected samples."""
        return SummaryStats.of(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


class CounterSeries:
    """Counts events into fixed-width time buckets (e.g. completions per 100 ms)."""

    def __init__(self, bucket_width: float = 0.1):
        if bucket_width <= 0:
            raise ValueError(f"bucket width must be positive, got {bucket_width}")
        self.bucket_width = bucket_width
        self._buckets: dict[int, int] = {}

    def record(self, time: float, count: int = 1) -> None:
        """Add ``count`` events at simulated time ``time``."""
        index = int(time / self.bucket_width)
        self._buckets[index] = self._buckets.get(index, 0) + count

    def total(self) -> int:
        """Total number of events recorded."""
        return sum(self._buckets.values())

    def count_in_bucket(self, index: int) -> int:
        """Number of events recorded in bucket ``index``."""
        return self._buckets.get(index, 0)

    def series(self) -> list[tuple[float, float]]:
        """Return ``(bucket_start_time, events_per_second)`` pairs in time order."""
        if not self._buckets:
            return []
        first = min(self._buckets)
        last = max(self._buckets)
        return [
            (index * self.bucket_width, self._buckets.get(index, 0) / self.bucket_width)
            for index in range(first, last + 1)
        ]

    def rate_between(self, start: float, end: float) -> float:
        """Average events per second over ``[start, end)``."""
        if end <= start:
            return 0.0
        first = _bucket_index(start, self.bucket_width)
        last = _bucket_index(end, self.bucket_width)
        total = sum(
            self._buckets.get(index, 0) for index in range(first, last)
        )
        return total / (end - start) if last > first else 0.0


@dataclass
class IntervalRecorder:
    """Tracks gaps between consecutive occurrences of an event.

    Used to measure e.g. the longest period without any rejection being
    delivered (the "reject downtime" of Figure 3 / Figure 10d).

    Occurrence times must be non-decreasing.  Only the gaps that no
    later gap has matched or beaten are kept: ``_ends`` increasing and
    ``_gaps`` strictly decreasing, so memory is O(record-setting gaps),
    not O(occurrences).  Both queries stay exact: the longest gap ending
    at or after ``start`` is the last occurrence of that maximum, which
    no later gap matches, so it is kept, and it is the first kept gap
    ending at or after ``start``.
    """

    last_time: float | None = None
    _ends: list[float] = field(default_factory=list)
    _gaps: list[float] = field(default_factory=list)

    def record(self, time: float) -> None:
        """Record an occurrence at simulated time ``time``."""
        if self.last_time is not None:
            gap = time - self.last_time
            while self._gaps and self._gaps[-1] <= gap:
                del self._gaps[-1], self._ends[-1]
            self._gaps.append(gap)
            self._ends.append(time)
        self.last_time = time

    def longest_gap(self, until: float | None = None) -> float:
        """The longest observed gap; optionally extends to a final time ``until``."""
        return self.longest_gap_overlapping(-math.inf, until)

    def longest_gap_overlapping(self, start: float, until: float | None = None) -> float:
        """The longest gap that overlaps ``[start, ...]`` (e.g. after a crash)."""
        index = bisect_left(self._ends, start)
        longest = self._gaps[index] if index < len(self._gaps) else 0.0
        if until is not None and self.last_time is not None and until >= start:
            longest = max(longest, until - self.last_time)
        return longest
