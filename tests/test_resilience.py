"""Tests for ``repro.resilience``: retry/hedge policies, their client
integration, and the campaign cache garbage collector that rode along
in the same change.

The acceptance properties:

* policy decision logic is pure and deterministic (caps checked in a
  fixed order, jitter drawn only from the policy's own stream);
* the default ``none`` policy is inert: its knobs change nothing, and
  retrying policies draw from a new ``client.{cid}.resilience`` stream
  that the default never creates;
* enabled retries/hedges keep runs seed-deterministic, safety-clean and
  observer-pure (identical results with tracing on and off);
* ``collect_garbage`` only removes cache entries no kept run manifest
  references, with conservative fallbacks when manifests are missing.
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.campaign import ResultCache, collect_garbage, record_run, result_fingerprint
from repro.campaign.plan import sim_job
from repro.cluster.profile import ClusterProfile
from repro.cluster.runner import RunSpec, run_experiment
from repro.protocols.config import ProtocolConfig
from repro.resilience import (
    ABANDON,
    RETRY,
    ExponentialBackoffPolicy,
    NoRetryPolicy,
    TokenBucket,
    make_retry_policy,
)
from repro.sim.rng import RngRegistry


def make_policy(cid: int = 3, seed: int = 7, **config_overrides):
    """A policy plus the registry it draws from."""
    config = ProtocolConfig(**config_overrides)
    rng = RngRegistry(seed)
    timing = rng.stream(f"client.{cid}.timing")
    return make_retry_policy(config, cid, rng, timing), rng


class TestRetryPolicyUnits:
    def test_none_policy_always_abandons(self):
        policy, _ = make_policy(retry_policy="none")
        assert isinstance(policy, NoRetryPolicy)
        decision = policy.next_action("timeout", 1, 0.1, 0.1)
        assert decision.kind == ABANDON and decision.reason == "no-retry"

    def test_none_policy_reject_backoff_comes_from_timing_stream(self):
        """The abandon backoff is the client's historical 50-100 ms
        draw, taken from the *timing* stream (byte-identity contract)."""
        policy, _ = make_policy(retry_policy="none")
        shadow = RngRegistry(7).stream("client.3.timing")
        config = ProtocolConfig()
        for _ in range(5):
            expected = shadow.uniform(
                config.reject_backoff_min, config.reject_backoff_max
            )
            assert policy.next_action("reject", 1, 0.0, 0.0).delay == expected

    def test_none_policy_timeout_delay_is_think_time(self):
        policy, _ = make_policy(retry_policy="none", think_time=0.25)
        assert policy.next_action("timeout", 1, 0.0, 0.0).delay == 0.25

    def test_none_policy_does_not_create_resilience_stream(self):
        _, rng = make_policy(retry_policy="none")
        assert "client.3.resilience" not in rng

    def test_retrying_policy_creates_resilience_stream(self):
        _, rng = make_policy(retry_policy="exponential")
        assert "client.3.resilience" in rng

    def test_immediate_retries_until_max_attempts(self):
        policy, _ = make_policy(retry_policy="immediate", retry_max_attempts=3)
        for attempt in (1, 2):
            decision = policy.next_action("timeout", attempt, 0.0, 0.0)
            assert decision.kind == RETRY and decision.delay == 0.0
        final = policy.next_action("timeout", 3, 0.0, 0.0)
        assert final.kind == ABANDON and final.reason == "max-attempts"

    def test_fixed_delay_is_base_delay(self):
        policy, _ = make_policy(retry_policy="fixed", retry_base_delay=0.03)
        assert policy.next_action("timeout", 1, 0.0, 0.0).delay == 0.03

    def test_cap_order_attempts_before_deadline_before_budget(self):
        """When several caps bind at once the reason is deterministic."""
        policy, _ = make_policy(
            retry_policy="immediate",
            retry_max_attempts=2,
            request_deadline=0.1,
            retry_budget_rate=0.001,
            retry_budget_cap=1.0,
        )
        policy.budget.tokens = 0.0
        assert policy.next_action("timeout", 2, 0.5, 0.5).reason == "max-attempts"
        assert policy.next_action("timeout", 1, 0.5, 0.5).reason == "deadline"
        assert policy.next_action("timeout", 1, 0.0, 0.0).reason == "budget"

    def test_retry_on_timeout_ignores_rejects_without_spending_budget(self):
        policy, _ = make_policy(
            retry_policy="immediate",
            retry_on="timeout",
            retry_budget_rate=0.001,
            retry_budget_cap=1.0,
        )
        before = policy.budget.tokens
        decision = policy.next_action("reject", 1, 0.0, 0.0)
        assert decision.kind == ABANDON and decision.reason == "no-retry"
        assert policy.budget.tokens == before
        assert policy.next_action("timeout", 1, 0.0, 0.0).kind == RETRY

    def test_retry_on_reject_ignores_timeouts(self):
        policy, _ = make_policy(retry_policy="immediate", retry_on="reject")
        assert policy.next_action("timeout", 1, 0.0, 0.0).reason == "no-retry"
        assert policy.next_action("reject", 1, 0.0, 0.0).kind == RETRY

    def test_exponential_no_jitter_doubles_and_caps(self):
        policy, _ = make_policy(
            retry_policy="exponential",
            retry_jitter="none",
            retry_base_delay=0.01,
            retry_max_delay=0.05,
            retry_max_attempts=10,
        )
        delays = [
            policy.next_action("timeout", attempt, 0.0, 0.0).delay
            for attempt in (1, 2, 3, 4)
        ]
        assert delays == [0.01, 0.02, 0.04, 0.05]

    def test_exponential_full_jitter_within_raw_envelope(self):
        policy, _ = make_policy(
            retry_policy="exponential",
            retry_jitter="full",
            retry_base_delay=0.01,
            retry_max_delay=0.05,
            retry_max_attempts=10,
        )
        for attempt in range(1, 6):
            raw = min(0.05, 0.01 * 2 ** (attempt - 1))
            delay = policy.next_action("timeout", attempt, 0.0, 0.0).delay
            assert 0.0 <= delay <= raw

    def test_decorrelated_jitter_resets_on_operation_start(self):
        policy, _ = make_policy(
            retry_policy="exponential",
            retry_jitter="decorrelated",
            retry_base_delay=0.01,
            retry_max_delay=0.5,
            retry_max_attempts=10,
        )
        assert isinstance(policy, ExponentialBackoffPolicy)
        previous = 0.01
        for attempt in range(1, 5):
            delay = policy.next_action("timeout", attempt, 0.0, 0.0).delay
            assert 0.01 <= delay <= min(0.5, 3.0 * previous) + 1e-12
            previous = delay
        policy.on_operation_start(1.0)
        assert policy._previous == 0.01


class TestTokenBucket:
    def test_spend_down_then_refill(self):
        bucket = TokenBucket(rate=2.0, cap=2.0)
        assert bucket.try_spend(0.0) and bucket.try_spend(0.0)
        assert not bucket.try_spend(0.0)
        assert bucket.try_spend(0.5)  # 0.5 s * 2/s = 1 token back
        assert not bucket.try_spend(0.5)

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate=10.0, cap=3.0)
        assert bucket.try_spend(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, cap=5.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, cap=0.5)


class TestConfigValidation:
    def test_unknown_retry_policy_rejected(self):
        with pytest.raises(ValueError, match="retry_policy"):
            ProtocolConfig(retry_policy="always")

    def test_unknown_retry_on_rejected(self):
        with pytest.raises(ValueError, match="retry_on"):
            ProtocolConfig(retry_on="rejection")

    def test_unknown_jitter_rejected(self):
        with pytest.raises(ValueError, match="retry_jitter"):
            ProtocolConfig(retry_jitter="equal")


def heavy_profile() -> ClusterProfile:
    """Execution so slow that ten closed-loop clients saturate it."""
    return replace(ClusterProfile(), execution_cost=2e-3)


def timeout_retry_spec(seed: int = 3, **extra) -> RunSpec:
    overrides = {
        "request_timeout": 0.01,
        "retransmit_interval": 30.0,
        "retry_policy": "exponential",
        "retry_on": "timeout",
        "retry_max_attempts": 3,
        "retry_base_delay": 0.005,
        "retry_max_delay": 0.02,
    }
    overrides.update(extra.pop("overrides", {}))
    return RunSpec(
        system="paxos", clients=10, duration=0.8, warmup=0.2, seed=seed,
        profile=heavy_profile(), overrides=overrides, **extra,
    )


class TestClientIntegration:
    def test_timeout_retries_amplify_load(self):
        result = run_experiment(timeout_retry_spec())
        stats = result.client_stats
        assert stats["retries"] > 0
        assert stats["give_ups"] > 0
        assert stats["sends"] > stats["commands"]
        assert stats["load_amplification"] > 1.0

    def test_reject_retries_are_safe_under_dedup(self):
        """Retries re-issue the same command under a new rid; the
        protocols' dedup must keep the log linearizable regardless."""
        result = run_experiment(
            RunSpec(
                system="idem", clients=12, duration=0.8, warmup=0.2, seed=3,
                overrides={
                    "reject_threshold": 2,
                    "retry_policy": "immediate",
                    "retry_on": "reject",
                    "retry_max_attempts": 4,
                },
                safety=True,
            )
        )
        assert result.client_stats["retries"] > 0
        assert result.safety_violations == []

    def test_hedges_fire_and_duplicates_are_suppressed(self):
        result = run_experiment(
            RunSpec(
                system="paxos", clients=6, duration=0.8, warmup=0.2, seed=3,
                overrides={"hedge_delay": 0.0008},
                safety=True,
            )
        )
        stats = result.client_stats
        assert stats["hedges"] > 0
        assert stats["successes"] > 0
        assert result.safety_violations == []

    def test_retry_runs_are_seed_deterministic(self):
        a = run_experiment(timeout_retry_spec())
        b = run_experiment(timeout_retry_spec())
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_none_policy_ignores_retry_knobs(self):
        """With the default policy, every retry knob is inert: results
        are byte-identical whatever values the knobs hold."""
        plain = run_experiment(timeout_retry_spec(overrides={"retry_policy": "none"}))
        knobs = run_experiment(
            timeout_retry_spec(
                overrides={
                    "retry_policy": "none",
                    "retry_max_attempts": 9,
                    "retry_base_delay": 0.5,
                    "retry_budget_rate": 3.0,
                }
            )
        )
        assert result_fingerprint(plain) == result_fingerprint(knobs)

    def test_observer_purity_with_retries_and_hedging(self):
        """Tracing must not perturb a run even when the policy layer is
        busy (retry/hedge/give-up events flow through the observer)."""
        spec = timeout_retry_spec(overrides={"hedge_delay": 0.008})
        plain = run_experiment(spec)
        traced = run_experiment(replace(spec, observe=True))
        assert traced.obs is not None
        for name in ("throughput", "latency", "timeouts"):
            assert getattr(plain, name) == getattr(traced, name), name
        assert plain.traffic == traced.traffic
        assert plain.replica_stats == traced.replica_stats
        assert plain.client_stats == traced.client_stats


def _run_retry_slice_with_hash_seed(hash_seed: str) -> str:
    """Fingerprint a retry-heavy run in a subprocess with PYTHONHASHSEED."""
    code = (
        "from dataclasses import replace\n"
        "from repro.campaign import result_fingerprint\n"
        "from repro.cluster.profile import ClusterProfile\n"
        "from repro.cluster.runner import RunSpec, run_experiment\n"
        "spec = RunSpec(\n"
        "    system='paxos', clients=10, duration=0.8, warmup=0.2, seed=3,\n"
        "    profile=replace(ClusterProfile(), execution_cost=2e-3),\n"
        "    overrides={'request_timeout': 0.01, 'retransmit_interval': 30.0,\n"
        "               'retry_policy': 'exponential', 'retry_on': 'timeout',\n"
        "               'retry_max_attempts': 3, 'retry_base_delay': 0.005,\n"
        "               'retry_max_delay': 0.02, 'hedge_delay': 0.008})\n"
        "print(result_fingerprint(run_experiment(spec)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_retry_slice_identical_across_hash_seeds():
    """Hash randomization must not leak into the resilience layer."""
    assert _run_retry_slice_with_hash_seed("1") == _run_retry_slice_with_hash_seed(
        "4242"
    )


@pytest.fixture(scope="module")
def gc_result():
    """One tiny real result to populate cache entries with."""
    return run_experiment(
        RunSpec(system="idem", clients=2, duration=0.3, warmup=0.1, seed=0)
    )


def _fill_cache(tmp_path, result, seeds):
    """Store one entry per seed; returns the cache and the keys."""
    cache = ResultCache(tmp_path)
    keys = []
    for seed in seeds:
        job = sim_job(
            "gc-test",
            RunSpec(system="idem", clients=2, duration=0.3, warmup=0.1, seed=seed),
        )
        cache.store(job.key, result, job)
        keys.append(job.key)
    return cache, keys


class TestGarbageCollection:
    def test_record_run_writes_sorted_manifest(self, tmp_path, gc_result):
        cache, keys = _fill_cache(tmp_path, gc_result, range(3))
        path = record_run(cache.root, reversed(keys), started=1000.0)
        assert path.parent.name == "runs"
        import json

        manifest = json.loads(path.read_text())
        assert manifest["keys"] == sorted(keys)

    def test_unreferenced_entries_are_removed(self, tmp_path, gc_result):
        cache, keys = _fill_cache(tmp_path, gc_result, range(4))
        record_run(cache.root, keys[:2], started=1000.0)
        report = collect_garbage(cache, keep_runs=5)
        assert report.examined == 4
        assert report.kept == 2 and report.removed == 2
        assert report.reclaimed_bytes > 0
        assert not report.references_unknown
        entries, _ = cache.size()
        assert entries == 2

    def test_no_manifests_means_no_reference_pruning(self, tmp_path, gc_result):
        cache, _ = _fill_cache(tmp_path, gc_result, range(3))
        report = collect_garbage(cache, keep_runs=5)
        assert report.removed == 0 and report.kept == 3
        assert report.references_unknown

    def test_unreadable_kept_manifest_disables_pruning(self, tmp_path, gc_result):
        cache, keys = _fill_cache(tmp_path, gc_result, range(3))
        path = record_run(cache.root, keys[:1], started=1000.0)
        path.write_text("{not json")
        report = collect_garbage(cache, keep_runs=5)
        assert report.removed == 0
        assert report.references_unknown

    def test_manifests_beyond_keep_window_are_pruned(self, tmp_path, gc_result):
        cache, keys = _fill_cache(tmp_path, gc_result, range(2))
        for start in (1000.0, 2000.0, 3000.0):
            record_run(cache.root, keys, started=start)
        report = collect_garbage(cache, keep_runs=2)
        assert report.manifests_kept == 2 and report.manifests_removed == 1
        assert report.removed == 0  # all entries still referenced

    def test_keep_runs_must_be_positive(self, tmp_path, gc_result):
        cache, _ = _fill_cache(tmp_path, gc_result, range(1))
        with pytest.raises(ValueError):
            collect_garbage(cache, keep_runs=0)

    def test_report_renders_counts(self, tmp_path, gc_result):
        cache, keys = _fill_cache(tmp_path, gc_result, range(2))
        record_run(cache.root, keys, started=1000.0)
        text = collect_garbage(cache, keep_runs=5).render()
        assert "kept 2, removed 0" in text
