"""Tests for the adaptive reject threshold (automated Section 7.5)."""

import pytest

from repro.core.acceptance import AdaptiveThreshold, AlwaysAccept, TailDrop
from repro.core.config import IdemConfig
from repro.cluster.runner import RunSpec, run_experiment


def controller(threshold=100, target=1e-3, **kwargs) -> AdaptiveThreshold:
    kwargs.setdefault("min_threshold", 5)
    kwargs.setdefault("max_threshold", 200)
    kwargs.setdefault("interval", 0.1)
    return AdaptiveThreshold(TailDrop(threshold), target_delay=target, **kwargs)


def drive(test: AdaptiveThreshold, delay: float, rounds: int, rejected: bool = False):
    """Simulate ``rounds`` adjustment windows with a constant delay."""
    now = 0.0
    for _ in range(rounds):
        test.accept((0, 1), now, 0)
        for _ in range(10):
            test.observe_completion(delay)
        if rejected:
            test.accept((1, 1), now, 10**9)  # certain rejection
        now += test.interval + 1e-6
        test.accept((0, 1), now, 0)  # trigger the adjustment


class TestController:
    def test_high_delay_decreases_the_threshold(self):
        test = controller(threshold=100, target=1e-3)
        drive(test, delay=5e-3, rounds=5)
        assert test.threshold < 100
        assert test.adjustments

    def test_repeated_pressure_converges_to_the_floor(self):
        test = controller(threshold=100, target=1e-3, min_threshold=10)
        drive(test, delay=50e-3, rounds=50)
        assert test.threshold == 10

    def test_low_delay_with_rejections_increases_the_threshold(self):
        test = controller(threshold=20, target=1e-3)
        drive(test, delay=0.2e-3, rounds=5, rejected=True)
        assert test.threshold > 20

    def test_low_delay_without_rejections_leaves_it_alone(self):
        test = controller(threshold=20, target=1e-3)
        drive(test, delay=0.2e-3, rounds=5, rejected=False)
        assert test.threshold == 20

    def test_threshold_respects_the_cap(self):
        test = controller(threshold=195, target=1e-3, max_threshold=200)
        drive(test, delay=0.1e-3, rounds=10, rejected=True)
        assert test.threshold == 200

    def test_on_target_delay_is_stable(self):
        test = controller(threshold=50, target=1e-3)
        drive(test, delay=0.9e-3, rounds=10, rejected=True)
        assert test.threshold == 50

    def test_initial_threshold_clamped_into_bounds(self):
        test = AdaptiveThreshold(
            TailDrop(500), min_threshold=5, max_threshold=100
        )
        assert test.threshold == 100

    def test_validation(self):
        with pytest.raises(TypeError):
            AdaptiveThreshold(AlwaysAccept())
        with pytest.raises(ValueError):
            controller(target=0.0)
        with pytest.raises(ValueError):
            controller(min_threshold=0)
        with pytest.raises(ValueError):
            AdaptiveThreshold(TailDrop(50), decrease=1.5)


class TestConfigIntegration:
    def test_factory_builds_adaptive_over_aqm(self):
        from repro.core.acceptance import AqmPriorityTest, make_acceptance_test

        config = IdemConfig(acceptance="adaptive")
        test = make_acceptance_test(config)
        assert isinstance(test, AdaptiveThreshold)
        assert isinstance(test.inner, AqmPriorityTest)

    def test_r_max_uses_the_cap_under_adaptive_control(self):
        config = IdemConfig(acceptance="adaptive", reject_threshold_cap=200)
        assert config.r_max == 600


class TestEndToEnd:
    def test_adaptive_recovers_from_a_misconfigured_threshold(self):
        """Figure 9a's scenario, self-healed: start with RT=100 (too
        high) under heavy overload; the controller walks the threshold
        down and restores a latency close to the healthy plateau."""
        static = run_experiment(
            RunSpec(
                system="idem",
                clients=300,
                duration=2.5,
                warmup=1.5,
                seed=1,
                overrides={"reject_threshold": 100},
            )
        )
        adaptive = run_experiment(
            RunSpec(
                system="idem-adaptive",
                clients=300,
                duration=2.5,
                warmup=1.5,
                seed=1,
                overrides={"reject_threshold": 100},
            )
        )
        assert adaptive.latency.mean < 0.5 * static.latency.mean
        assert adaptive.latency.mean < 2.0e-3
        # Throughput stays in the same regime (no collapse from shedding).
        assert adaptive.throughput > 0.7 * static.throughput
