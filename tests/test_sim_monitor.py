"""Unit tests for the measurement primitives."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.monitor import (
    CounterSeries,
    IntervalRecorder,
    LatencyRecorder,
    SummaryStats,
)


class TestSummaryStats:
    def test_empty_sample(self):
        stats = SummaryStats.of([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_single_sample(self):
        stats = SummaryStats.of([2.5])
        assert stats.count == 1
        assert stats.mean == 2.5
        assert stats.std == 0.0
        assert stats.p50 == 2.5
        assert stats.p99 == 2.5

    def test_known_values(self):
        stats = SummaryStats.of([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == pytest.approx(2.5)

    def test_std_of_constant_sample_is_zero(self):
        assert SummaryStats.of([3.0] * 10).std == 0.0

    def test_does_not_mutate_input(self):
        samples = [3.0, 1.0, 2.0]
        SummaryStats.of(samples)
        assert samples == [3.0, 1.0, 2.0]

    def test_p999_resolves_deeper_than_p99(self):
        # 20 stragglers in 10k samples sit beyond the 99th percentile
        # but within the 99.9th: p99 misses them, p999 lands on them.
        samples = [1.0] * 9980 + [100.0] * 20
        stats = SummaryStats.of(samples)
        assert stats.p99 < 2.0
        assert stats.p999 > 90.0

    def test_percentile_never_undershoots_the_minimum(self):
        # 0.5 * 5e-324 rounds to 0.0, so a lo*(1-f) + hi*f interpolation
        # would report a median below the minimum.
        stats = SummaryStats.of([5e-324, 5e-324])
        assert stats.p50 == 5e-324
        assert stats.p50 >= stats.minimum

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_are_ordered_and_bounded(self, samples):
        stats = SummaryStats.of(samples)
        tolerance = 1e-6 * max(1.0, abs(stats.maximum))
        assert stats.minimum <= stats.p50 <= stats.p90 + tolerance
        assert stats.p90 <= stats.p99 + tolerance <= stats.maximum + 2 * tolerance
        assert stats.p99 <= stats.p999 + tolerance <= stats.maximum + 2 * tolerance
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=100))
    def test_std_nonnegative(self, samples):
        assert SummaryStats.of(samples).std >= 0.0


class TestLatencyRecorder:
    def test_records_within_window(self):
        recorder = LatencyRecorder(window_start=1.0, window_end=2.0)
        recorder.record(0.5, 10.0)  # before window
        recorder.record(1.5, 20.0)  # inside
        recorder.record(2.5, 30.0)  # after
        assert recorder.samples == [20.0]
        assert len(recorder) == 1

    def test_window_edges_inclusive(self):
        recorder = LatencyRecorder(1.0, 2.0)
        recorder.record(1.0, 1.0)
        recorder.record(2.0, 2.0)
        assert len(recorder) == 2

    def test_summary(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0):
            recorder.record(0.5, value)
        assert recorder.summary().mean == pytest.approx(2.0)


class TestCounterSeries:
    def test_total(self):
        series = CounterSeries(0.1)
        series.record(0.05)
        series.record(0.15, count=3)
        assert series.total() == 4

    def test_series_rates(self):
        series = CounterSeries(0.5)
        series.record(0.1)
        series.record(0.2)
        series.record(0.7)
        assert series.series() == [(0.0, 4.0), (0.5, 2.0)]

    def test_rate_between(self):
        series = CounterSeries(0.1)
        for t in (0.05, 0.15, 0.25, 0.35):
            series.record(t)
        assert series.rate_between(0.0, 0.4) == pytest.approx(10.0)
        assert series.rate_between(0.1, 0.3) == pytest.approx(10.0)

    def test_rate_between_empty_interval(self):
        series = CounterSeries(0.1)
        assert series.rate_between(1.0, 1.0) == 0.0

    def test_count_in_bucket(self):
        series = CounterSeries(1.0)
        series.record(3.5, count=2)
        assert series.count_in_bucket(3) == 2
        assert series.count_in_bucket(4) == 0

    def test_invalid_bucket_width(self):
        with pytest.raises(ValueError):
            CounterSeries(0.0)


class _EveryGap:
    """Reference recorder: keeps every gap and scans them all."""

    def __init__(self, times):
        self.last_time = times[-1] if times else None
        self.gaps = [(b - a, b) for a, b in zip(times, times[1:])]

    def longest_gap(self, until=None):
        longest = max((gap for gap, _ in self.gaps), default=0.0)
        if until is not None and self.last_time is not None:
            longest = max(longest, until - self.last_time)
        return longest

    def longest_gap_overlapping(self, start, until=None):
        longest = 0.0
        for gap, end in self.gaps:
            if end >= start:
                longest = max(longest, gap)
        if until is not None and self.last_time is not None and until >= start:
            longest = max(longest, until - self.last_time)
        return longest


_steps = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))
_instants = st.floats(min_value=-1.0, max_value=60.0)


class TestIntervalRecorder:
    def test_gaps(self):
        recorder = IntervalRecorder()
        for t in (1.0, 2.0, 4.5):
            recorder.record(t)
        assert recorder.longest_gap() == 2.5
        assert recorder.longest_gap_overlapping(0.0) == 2.5
        assert recorder.longest_gap_overlapping(2.0) == 2.5
        assert recorder.longest_gap_overlapping(4.6) == 0.0

    def test_keeps_only_record_setting_gaps(self):
        recorder = IntervalRecorder()
        for t in (0.0, 3.0, 4.0, 4.5, 6.5, 7.0, 7.5):
            recorder.record(t)
        # Gaps 3, 1, 0.5, 2, 0.5, 0.5: the 1 and the first 0.5 are
        # beaten by the later 2, the second 0.5 is matched by the third,
        # and the 2 is what every start in (3, 6.5] sees.
        assert recorder._gaps == [3.0, 2.0, 0.5]
        assert recorder._ends == [3.0, 6.5, 7.5]
        assert recorder.longest_gap_overlapping(3.5) == 2.0

    @given(st.lists(_steps, max_size=40), st.data())
    def test_queries_equal_a_recorder_that_keeps_every_gap(self, steps, data):
        times = list(itertools.accumulate(steps))
        # Starts on a recorded time probe the boundary (end >= start).
        instants = st.one_of(_instants, st.sampled_from(times)) if times else _instants
        start = data.draw(instants)
        until = data.draw(st.one_of(st.none(), instants))
        recorder = IntervalRecorder()
        for time in times:
            recorder.record(time)
        reference = _EveryGap(times)
        assert recorder.longest_gap(until) == reference.longest_gap(until)
        assert recorder.longest_gap_overlapping(
            start, until
        ) == reference.longest_gap_overlapping(start, until)

    def test_longest_gap(self):
        recorder = IntervalRecorder()
        recorder.record(1.0)
        recorder.record(2.0)
        assert recorder.longest_gap() == 1.0

    def test_longest_gap_extends_to_until(self):
        recorder = IntervalRecorder()
        recorder.record(1.0)
        assert recorder.longest_gap(until=5.0) == 4.0

    def test_longest_gap_empty(self):
        assert IntervalRecorder().longest_gap() == 0.0
        assert IntervalRecorder().longest_gap(until=10.0) == 0.0

    def test_longest_gap_overlapping(self):
        recorder = IntervalRecorder()
        for t in (1.0, 4.0, 4.5):
            recorder.record(t)
        # The 3-second gap ended at t=4.0, so it overlaps a crash at 2.0
        # but not one at 5.0.
        assert recorder.longest_gap_overlapping(2.0) == 3.0
        assert recorder.longest_gap_overlapping(5.0, until=6.0) == pytest.approx(1.5)
