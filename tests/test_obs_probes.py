"""Tests for the probe layer and the time-series flight recorder.

Covers a series' eviction bounds, ``value_at`` against a naive linear
reference, byte-stable exports, the observer-purity of probed runs
(retries, hedging, chaos), the campaign payload roundtrip, and the
hash-seed independence of the recorded series and detector output.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys

import pytest

from repro.cluster.faults import FaultSchedule
from repro.cluster.runner import RunSpec, run_experiment
from repro.obs import (
    FlightRecorder,
    Series,
    write_series_jsonl,
)
from repro.obs.timeseries import DEFAULT_MAXLEN

from tests.conftest import small_profile


def _pseudo_values(n: int) -> list[float]:
    """Deterministic, irregular values without any RNG."""
    return [float((index * 37) % 11 + (index % 3) * 0.5) for index in range(n)]


class TestSeriesRing:
    def test_eviction_keeps_newest_maxlen_samples(self):
        series = Series("replica-0", "x")
        total = DEFAULT_MAXLEN + 12
        for index in range(total):
            series.record(index * 0.1, float(index))
        assert len(series) == DEFAULT_MAXLEN
        assert series.count == total
        assert series.evicted == 12
        assert series.values() == [float(i) for i in range(12, total)]
        assert series.times() == pytest.approx([i * 0.1 for i in range(12, total)])
        assert series.last_value == float(total - 1)

    def test_partial_fill_keeps_everything(self):
        series = Series("replica-0", "x")
        for index in range(7):
            series.record(float(index), float(index) * 2)
        assert len(series) == 7
        assert series.evicted == 0
        assert series.values() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]

    def test_value_at_steps_and_predates(self):
        series = Series("n", "x")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert math.isnan(series.value_at(0.5))
        assert series.value_at(1.0) == 10.0
        assert series.value_at(1.5) == 10.0
        assert series.value_at(5.0) == 20.0

        # An evicted series (with repeated times) against a linear walk
        # of the retained samples.
        def linear_value_at(time: float) -> float:
            result = math.nan
            for sample_time, value in series.samples():
                if sample_time > time:
                    break
                result = value
            return result

        series = Series("n", "x")
        values = _pseudo_values(DEFAULT_MAXLEN + 100)
        for index, value in enumerate(values):
            series.record((index // 2) * 0.01, value)
        assert series.evicted == 100
        retained = series.times()
        probes = [retained[0] - 0.005, retained[0] - 1.0]
        for time in retained:
            probes.extend((time, time + 0.005))
        for time in probes:
            expected = linear_value_at(time)
            actual = series.value_at(time)
            assert actual == expected or (math.isnan(actual) and math.isnan(expected))
        assert math.isnan(series.value_at(retained[0] - 0.005))


class TestRecorderExports:
    def test_jsonl_is_insertion_order_independent(self):
        def build(order: list[tuple[str, str]]) -> FlightRecorder:
            recorder = FlightRecorder()
            for node, name in order:
                for tick in range(5):
                    recorder.record(tick * 0.1, node, name, float(tick))
            recorder.mark(0.2, 0.4, "fault")
            return recorder

        keys = [("replica-1", "b"), ("replica-0", "a"), ("clients", "c")]
        first, second = io.StringIO(), io.StringIO()
        write_series_jsonl(build(keys), first)
        write_series_jsonl(build(list(reversed(keys))), second)
        assert first.getvalue() == second.getvalue()

    def test_jsonl_rows_are_time_ordered(self):
        recorder = FlightRecorder()
        recorder.record(0.2, "replica-0", "x", 1.0)
        recorder.record(0.1, "replica-1", "y", 2.0)
        stream = io.StringIO()
        lines = write_series_jsonl(recorder, stream)
        rows = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines == 2
        assert [row["ts"] for row in rows] == [0.1, 0.2]

    def test_lookup_orders_sorted(self):
        recorder = FlightRecorder()
        recorder.record(0.0, "replica-2", "z", 0.0)
        recorder.record(0.0, "replica-0", "a", 0.0)
        recorder.record(0.0, "replica-0", "b", 0.0)
        assert recorder.nodes() == ["replica-0", "replica-2"]
        assert recorder.names("replica-0") == ["a", "b"]
        assert [key for key, _ in recorder.items()] == [
            ("replica-0", "a"),
            ("replica-0", "b"),
            ("replica-2", "z"),
        ]


def _fingerprint(result):
    return (
        result.throughput,
        result.latency,
        result.reject_throughput,
        result.timeouts,
        tuple(sorted(result.traffic.items())),
        tuple(tuple(sorted(stats.items())) for stats in result.replica_stats),
    )


class TestProbePurity:
    """Probed runs are byte-identical to bare runs (observer-only)."""

    def _spec(self, probes: bool, **kwargs) -> RunSpec:
        kwargs.setdefault("system", "idem")
        kwargs.setdefault("clients", 8)
        kwargs.setdefault("duration", 0.8)
        kwargs.setdefault("warmup", 0.2)
        kwargs.setdefault("seed", 3)
        kwargs.setdefault("profile", small_profile())
        return RunSpec(probes=probes, **kwargs)

    def test_identical_under_retries_and_rejection(self):
        overrides = {
            "reject_threshold": 2,
            "retry_policy": "exponential",
            "retry_on": "any",
            "retry_max_attempts": 3,
        }
        plain = run_experiment(self._spec(False, overrides=overrides))
        probed = run_experiment(self._spec(True, overrides=overrides))
        assert _fingerprint(plain) == _fingerprint(probed)
        assert probed.obs.recorder.samples_recorded > 0

    def test_identical_under_hedging(self):
        overrides = {"hedge_delay": 0.02}
        plain = run_experiment(self._spec(False, overrides=overrides))
        probed = run_experiment(self._spec(True, overrides=overrides))
        assert _fingerprint(plain) == _fingerprint(probed)

    def test_identical_across_crash_and_recovery(self):
        faults = FaultSchedule().crash_follower(0.3).recover_replica(0.6)
        plain = run_experiment(self._spec(False, faults=faults))
        probed = run_experiment(
            self._spec(True, faults=FaultSchedule().crash_follower(0.3).recover_replica(0.6))
        )
        assert _fingerprint(plain) == _fingerprint(probed)
        # The crash window is annotated on the recording.
        assert probed.obs.recorder.marks
        # Downtime shows up as up=0 samples, not as a crash of the probe.
        up = probed.obs.recorder.series("replica-1", "up")
        assert 0.0 in up.values()

    def test_probing_rides_the_observer_tick(self):
        """Tracing and probing share one sample tick; a probes-only hub
        attaches no per-node observers."""
        observed = run_experiment(self._spec(False, observe=True))
        probed = run_experiment(self._spec(True))
        assert (
            observed.sim_stats["dispatched_events"]
            == probed.sim_stats["dispatched_events"]
        )
        assert probed.obs.tracer is None
        cluster = probed.obs.cluster
        assert all(node.obs is None for node in cluster.replicas + cluster.clients)
        assert all(node.obs is not None for node in observed.obs.cluster.replicas)


class TestCampaignPayloadRoundtrip:
    def test_probed_spec_roundtrips_through_json(self):
        from repro.campaign.plan import payload_to_spec, spec_to_payload

        spec = RunSpec(
            system="idem",
            clients=12,
            duration=2.0,
            warmup=0.4,
            seed=7,
            probes=True,
        )
        payload = json.loads(json.dumps(spec_to_payload(spec), sort_keys=True))
        rebuilt = payload_to_spec(payload)
        assert rebuilt.probes is True
        assert rebuilt.system == "idem"
        assert rebuilt.clients == 12
        assert rebuilt.seed == 7


_HASHSEED_SCRIPT = r"""
import hashlib
import io
import json
import sys

from repro.cluster.runner import RunSpec, run_experiment
from repro.obs import write_series_jsonl

spec = RunSpec(
    system="idem",
    clients=10,
    duration=0.8,
    warmup=0.2,
    seed=5,
    overrides={"reject_threshold": 2, "retry_policy": "exponential",
               "retry_on": "any", "retry_max_attempts": 3},
    probes=True,
)
result = run_experiment(spec)
stream = io.StringIO()
write_series_jsonl(result.obs.recorder, stream)
digest = hashlib.sha256(stream.getvalue().encode()).hexdigest()
print(json.dumps({"series": digest, "findings": result.findings},
                 sort_keys=True))
"""


class TestHashSeedInvariance:
    def test_series_and_findings_stable_across_hash_seeds(self):
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                part for part in ("src", env.get("PYTHONPATH", "")) if part
            )
            completed = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
