"""Unit tests for the event loop."""

import pytest

from repro.sim.errors import SchedulingError, StoppedError
from repro.sim.loop import EventLoop


def test_clock_starts_at_zero():
    assert EventLoop().now == 0.0


def test_clock_starts_at_given_time():
    assert EventLoop(start_time=5.0).now == 5.0


def test_call_after_fires_at_the_right_time():
    loop = EventLoop()
    seen = []
    loop.call_after(1.5, lambda: seen.append(loop.now))
    loop.run_until(2.0)
    assert seen == [1.5]


def test_call_at_fires_at_absolute_time():
    loop = EventLoop()
    seen = []
    loop.call_at(0.25, lambda: seen.append(loop.now))
    loop.run_until(1.0)
    assert seen == [0.25]


def test_events_fire_in_time_order():
    loop = EventLoop()
    seen = []
    loop.call_after(0.3, seen.append, "c")
    loop.call_after(0.1, seen.append, "a")
    loop.call_after(0.2, seen.append, "b")
    loop.run_until(1.0)
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    loop = EventLoop()
    seen = []
    for label in range(10):
        loop.call_at(0.5, seen.append, label)
    loop.run_until(1.0)
    assert seen == list(range(10))


def test_run_until_advances_clock_to_horizon_without_events():
    loop = EventLoop()
    loop.run_until(3.0)
    assert loop.now == 3.0


def test_events_beyond_horizon_do_not_fire():
    loop = EventLoop()
    seen = []
    loop.call_after(5.0, seen.append, "late")
    loop.run_until(1.0)
    assert seen == []
    assert loop.pending_events == 1


def test_back_to_back_run_until_behaves_like_one_run():
    loop = EventLoop()
    seen = []
    loop.call_after(0.5, seen.append, "a")
    loop.call_after(1.5, seen.append, "b")
    loop.run_until(1.0)
    loop.run_until(2.0)
    assert seen == ["a", "b"]


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    seen = []
    event = loop.call_after(0.5, seen.append, "x")
    event.cancel()
    loop.run_until(1.0)
    assert seen == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.call_after(0.5, lambda: None)
    event.cancel()
    event.cancel()
    loop.run_until(1.0)


def test_events_scheduled_during_dispatch_run_in_the_same_pass():
    loop = EventLoop()
    seen = []

    def first():
        seen.append("first")
        loop.call_after(0.1, seen.append, "second")

    loop.call_after(0.1, first)
    loop.run_until(1.0)
    assert seen == ["first", "second"]


def test_zero_delay_event_fires_at_current_time():
    loop = EventLoop()
    seen = []
    loop.call_after(0.5, lambda: loop.call_after(0.0, seen.append, loop.now))
    loop.run_until(1.0)
    assert seen == [0.5]


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.run_until(1.0)
    with pytest.raises(SchedulingError):
        loop.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(SchedulingError):
        loop.call_after(-0.1, lambda: None)


def test_stop_halts_dispatch():
    loop = EventLoop()
    seen = []
    loop.call_after(0.1, seen.append, "a")
    loop.call_after(0.2, lambda: loop.stop())
    loop.call_after(0.3, seen.append, "b")
    loop.run_until(1.0)
    assert seen == ["a"]


def test_stopped_loop_rejects_new_events():
    loop = EventLoop()
    loop.stop()
    with pytest.raises(StoppedError):
        loop.call_after(0.1, lambda: None)
    # call_after inlines call_at's body, so each carries its own guard.
    with pytest.raises(StoppedError):
        loop.call_at(0.5, lambda: None)


def test_run_drains_all_events():
    loop = EventLoop()
    seen = []
    loop.call_after(10.0, seen.append, "far")
    loop.run()
    assert seen == ["far"]
    assert loop.now == 10.0


def test_dispatched_event_count():
    loop = EventLoop()
    for _ in range(5):
        loop.call_after(0.1, lambda: None)
    loop.run_until(1.0)
    assert loop.dispatched_events == 5


def test_drain_cancelled_removes_only_cancelled_events():
    loop = EventLoop()
    keep = loop.call_after(1.0, lambda: None)
    gone = loop.call_after(1.0, lambda: None)
    gone.cancel()
    removed = loop.drain_cancelled()
    assert removed == 1
    assert loop.pending_events == 1
    assert not keep.cancelled


# -- stop/resume clock contract -----------------------------------------


def test_stopped_loop_rejects_run_until():
    loop = EventLoop()
    loop.call_after(0.2, loop.stop)
    loop.run_until(1.0)
    assert loop.stopped
    with pytest.raises(StoppedError):
        loop.run_until(2.0)
    with pytest.raises(StoppedError):
        loop.run()


def test_stop_leaves_clock_at_last_dispatched_event():
    loop = EventLoop()
    loop.call_after(0.2, loop.stop)
    loop.run_until(1.0)
    # Deliberately short of the horizon: the stop froze the clock.
    assert loop.now == 0.2


def test_resume_continues_monotonically_without_time_travel():
    loop = EventLoop()
    seen = []
    loop.call_after(0.2, loop.stop)
    loop.call_after(0.6, seen.append, "late")
    loop.run_until(1.0)
    assert loop.now == 0.2 and seen == []
    loop.resume()
    assert not loop.stopped
    # Scheduling works again, the pending event survives, and the clock
    # moves forward only — never back past the stop point.
    loop.call_after(0.1, seen.append, "early")
    loop.run_until(1.0)
    assert seen == ["early", "late"]
    assert loop.now == 1.0


def test_resumed_loop_rejects_scheduling_before_stop_point():
    loop = EventLoop()
    loop.call_after(0.5, loop.stop)
    loop.run_until(1.0)
    loop.resume()
    with pytest.raises(SchedulingError):
        loop.call_at(0.25, lambda: None)


# -- tombstone accounting and auto-drain --------------------------------


def test_cancelled_pending_counter_tracks_tombstones():
    loop = EventLoop(auto_drain=False)
    events = [loop.call_after(1.0, lambda: None) for _ in range(5)]
    for event in events[:3]:
        event.cancel()
    assert loop.cancelled_pending == 3
    assert loop.pending_events == 5
    assert loop.drain_cancelled() == 3
    assert loop.cancelled_pending == 0
    assert loop.drained_tombstones == 3


def test_dispatching_a_tombstone_decrements_the_counter():
    loop = EventLoop(auto_drain=False)
    loop.call_after(0.1, lambda: None).cancel()
    loop.run_until(1.0)
    assert loop.cancelled_pending == 0
    assert loop.dispatched_events == 0


def test_auto_drain_triggers_past_both_thresholds():
    from repro.sim.loop import DRAIN_MIN_TOMBSTONES

    loop = EventLoop(auto_drain=True)
    events = [loop.call_after(1.0, lambda: None) for _ in range(DRAIN_MIN_TOMBSTONES)]
    for event in events[:-1]:
        event.cancel()
    # One shy of the minimum: nothing drained yet.
    assert loop.drained_tombstones == 0
    events[-1].cancel()
    assert loop.drained_tombstones == DRAIN_MIN_TOMBSTONES
    assert loop.pending_events == 0
    assert loop.cancelled_pending == 0


def test_auto_drain_default_follows_the_module_flag(monkeypatch):
    import repro.sim.loop as loop_module

    monkeypatch.setattr(loop_module, "AUTO_DRAIN_DEFAULT", False)
    assert EventLoop().auto_drain is False
    assert EventLoop(auto_drain=True).auto_drain is True


def test_auto_drain_waits_until_tombstones_dominate_the_heap():
    from repro.sim.loop import DRAIN_MIN_TOMBSTONES

    loop = EventLoop(auto_drain=True)
    live = 3 * DRAIN_MIN_TOMBSTONES
    for _ in range(live):
        loop.call_after(1.0, lambda: None)
    doomed = [loop.call_after(1.0, lambda: None) for _ in range(DRAIN_MIN_TOMBSTONES)]
    for event in doomed:
        event.cancel()
    # 512 tombstones against 1536 live events: under half, no drain.
    assert loop.drained_tombstones == 0
    assert loop.cancelled_pending == DRAIN_MIN_TOMBSTONES


def test_auto_drain_off_leaves_tombstones_in_place():
    from repro.sim.loop import DRAIN_MIN_TOMBSTONES

    loop = EventLoop(auto_drain=False)
    events = [loop.call_after(1.0, lambda: None) for _ in range(2 * DRAIN_MIN_TOMBSTONES)]
    for event in events:
        event.cancel()
    assert loop.drained_tombstones == 0
    assert loop.pending_events == 2 * DRAIN_MIN_TOMBSTONES


def test_drain_during_in_flight_dispatch_keeps_remaining_events():
    # A callback cancels enough events to force an (explicit) drain
    # while run_until is mid-dispatch; the surviving events still fire.
    loop = EventLoop(auto_drain=False)
    seen = []
    doomed = [loop.call_after(0.5, seen.append, f"doomed{i}") for i in range(10)]

    def cancel_and_drain():
        seen.append("cancel")
        for event in doomed:
            event.cancel()
        assert loop.drain_cancelled() == 10

    loop.call_after(0.1, cancel_and_drain)
    loop.call_after(0.9, seen.append, "survivor")
    loop.run_until(1.0)
    assert seen == ["cancel", "survivor"]
    assert loop.drained_tombstones == 10


def test_auto_drain_from_callback_mid_run():
    from repro.sim.loop import DRAIN_MIN_TOMBSTONES

    loop = EventLoop(auto_drain=True)
    seen = []
    doomed = [
        loop.call_after(0.5, lambda: None) for _ in range(DRAIN_MIN_TOMBSTONES)
    ]

    def cancel_all():
        for event in doomed:
            event.cancel()

    loop.call_after(0.1, cancel_all)
    loop.call_after(0.9, seen.append, "survivor")
    loop.run_until(1.0)
    assert seen == ["survivor"]
    assert loop.drained_tombstones == DRAIN_MIN_TOMBSTONES


def test_peak_heap_tracks_high_water_mark():
    loop = EventLoop()
    for _ in range(7):
        loop.call_after(0.1, lambda: None)
    loop.run_until(1.0)
    assert loop.pending_events == 0
    assert loop.peak_heap == 7
