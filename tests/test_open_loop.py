"""Tests for the open-loop (Poisson) load driver."""

import pytest

from repro.cluster.builder import build_cluster
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry
from repro.workload.open_loop import ArrivalSpec, OpenLoopDriver, spike_rate

from tests.conftest import small_profile


def open_loop_cluster(system="idem", pool=20, rate=2000.0, duration=1.0, **kwargs):
    cluster = build_cluster(
        system,
        pool,
        seed=4,
        profile=small_profile(),
        start_clients=False,
        stop_time=duration,
        **kwargs,
    )
    driver = OpenLoopDriver(
        cluster.loop,
        cluster.clients,
        rate,
        cluster.rng.stream("open-loop"),
        stop_time=duration,
    )
    driver.start(at=0.0)
    cluster.run_until(duration)
    cluster.stop_clients()
    cluster.run_until(duration + 0.5)
    return cluster, driver


def test_arrival_rate_is_roughly_the_configured_rate():
    cluster, driver = open_loop_cluster(rate=2000.0, duration=1.0)
    assert 1700 < driver.arrivals < 2300


def test_operations_complete():
    cluster, driver = open_loop_cluster()
    successes = sum(client.successes for client in cluster.clients)
    assert successes > 0
    # At this light load nothing is shed and nearly all arrivals finish.
    assert driver.shed_arrivals == 0
    assert successes >= 0.9 * driver.arrivals


def test_saturated_pool_sheds_arrivals():
    cluster, driver = open_loop_cluster(pool=2, rate=20000.0, duration=0.3)
    assert driver.shed_arrivals > 0
    assert driver.arrivals > driver.shed_arrivals  # some were served


def test_time_varying_rate_spike():
    rate = spike_rate(base=500.0, spike=5000.0, start=0.4, duration=0.2)
    cluster, driver = open_loop_cluster(
        pool=50, rate=rate, duration=1.0, bucket_width=0.05
    )
    series = cluster.metrics.reply_counter.series()
    quiet = [r for t, r in series if 0.05 <= t < 0.35]
    spiky = [r for t, r in series if 0.45 <= t < 0.6]
    assert quiet and spiky
    assert max(spiky) > 3 * max(quiet)


def test_zero_rate_generates_nothing():
    cluster, driver = open_loop_cluster(rate=lambda t: 0.0, duration=0.3)
    assert driver.arrivals == 0


def test_driver_requires_clients():
    cluster = build_cluster(
        "idem", 1, profile=small_profile(), start_clients=False
    )
    with pytest.raises(ValueError):
        OpenLoopDriver(cluster.loop, [], 100.0, cluster.rng.stream("x"))


class _StubClient:
    """Minimal client for driver-only tests: completes instantly."""

    def __init__(self):
        self.driver = None
        self.issued = 0

    def _issue_next(self):
        self.issued += 1
        self.driver.client_finished(self, 0.0, "success")


def stub_driver(rate, stop_time=1.0, pool=4, seed=7):
    loop = EventLoop()
    clients = [_StubClient() for _ in range(pool)]
    driver = OpenLoopDriver(
        loop, clients, rate, RngRegistry(seed).stream("open-loop"), stop_time
    )
    driver.start(at=0.0)
    return loop, driver


class TestArrivalSpec:
    def test_boundary_belongs_to_the_new_phase(self):
        spec = ArrivalSpec(steps=((0.0, 100.0), (0.5, 900.0)))
        assert spec.rate_at(0.5 - 1e-9) == 100.0
        # An arrival landing exactly on the boundary deterministically
        # draws its next gap from the new phase's rate.
        assert spec.rate_at(0.5) == 900.0
        assert spec.rate_at(0.7) == 900.0

    def test_rate_before_the_first_step_is_zero(self):
        spec = ArrivalSpec(steps=((0.2, 100.0),))
        assert spec.rate_at(0.0) == 0.0
        assert spec.rate_at(0.2) == 100.0

    def test_next_change(self):
        spec = ArrivalSpec(steps=((0.0, 100.0), (0.5, 0.0), (0.8, 200.0)))
        assert spec.next_change(0.0) == 0.5
        assert spec.next_change(0.5) == 0.8  # strictly after
        assert spec.next_change(0.8) is None
        assert spec.next_change(3.0) is None

    def test_max_rate_over_a_modulated_plan(self):
        spec = ArrivalSpec(
            steps=((0.0, 100.0), (0.3, 2500.0), (0.4, 0.0), (0.9, 700.0))
        )
        assert spec.max_rate() == 2500.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(steps=())
        with pytest.raises(ValueError):
            ArrivalSpec(steps=((0.5, 100.0), (0.2, 50.0)))  # unsorted
        with pytest.raises(ValueError):
            ArrivalSpec(steps=((0.0, -1.0),))


class TestZeroRateSuspension:
    def test_spec_driver_suspends_through_zero_rate_phases(self):
        """With a declarative plan the driver sleeps to the exact phase
        boundary instead of polling every 10 ms."""
        spec = ArrivalSpec(steps=((0.0, 0.0), (0.9, 0.0)))
        loop, driver = stub_driver(spec, stop_time=1.0)
        loop.run_until(1.0)
        assert driver.arrivals == 0
        # One event at t=0 (sees rate 0, schedules the boundary) and one
        # at the 0.9 boundary (rate still 0, no further phases) — not
        # ~100 zero-rate polls.
        assert loop.dispatched_events <= 3

    def test_spec_driver_suspends_forever_after_the_last_phase(self):
        spec = ArrivalSpec(steps=((0.0, 0.0),))
        loop, driver = stub_driver(spec, stop_time=5.0)
        loop.run_until(5.0)
        assert driver.arrivals == 0
        assert loop.dispatched_events <= 1

    def test_spec_driver_resumes_at_the_boundary(self):
        spec = ArrivalSpec(steps=((0.0, 0.0), (0.5, 4000.0)))
        loop, driver = stub_driver(spec, stop_time=1.0)
        loop.run_until(1.0)
        assert driver.arrivals > 0
        issued = sum(client.issued for client in driver.clients)
        assert issued == driver.arrivals - driver.shed_arrivals

    def test_callable_rate_still_polls(self):
        """Opaque callables cannot reveal their next change; the driver
        keeps the short re-check poll (the pre-spec behaviour)."""
        loop, driver = stub_driver(lambda t: 0.0, stop_time=0.3)
        loop.run_until(0.3)
        assert driver.arrivals == 0
        assert loop.dispatched_events > 10


def test_rejected_clients_respect_backoff():
    """A client that was rejected only rejoins the pool after backing off."""
    cluster, driver = open_loop_cluster(
        pool=30,
        rate=30000.0,
        duration=0.6,
        overrides={"reject_threshold": 2},
    )
    rejections = sum(client.rejections for client in cluster.clients)
    assert rejections > 0
    assert driver.busy_clients <= len(cluster.clients)
