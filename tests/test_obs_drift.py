"""Tests for drift detection (repro.obs.detect) and the IDEM
active-slot leak it exists to catch.

The synthetic-recorder tests pin each rule's firing and non-firing
conditions; the replica-level tests pin the leak fix itself
(``IdemReplica._release_dedup_dead``); the storm regression runs the
figR reject-retry arm with the fix monkeypatched away and demands the
``active_set_leak`` detector flags it — and stays silent on the fixed
code.
"""

from __future__ import annotations

import pytest

from repro.app.commands import Command, KvOp
from repro.cluster.builder import build_cluster
from repro.core.replica import IdemReplica
from repro.obs import SAMPLE_INTERVAL, FlightRecorder, run_detectors
from repro.obs.detect import MIN_WINDOW
from repro.protocols.base import BaseReplica
from repro.protocols.messages import CheckpointRequest, Request

from tests.conftest import assert_active_index_consistent, small_profile

INTERVAL = SAMPLE_INTERVAL


def _record_ticks(recorder, node, start, end, **series):
    """Record constant-or-callable series on the detector's cadence."""
    ticks = int(round((end - start) / INTERVAL))
    for tick in range(ticks + 1):
        time = start + tick * INTERVAL
        for name, value in series.items():
            recorder.record(
                time, node, name, value(time) if callable(value) else float(value)
            )


def _rules(findings):
    return sorted({finding.rule for finding in findings})


class TestActiveSetLeakRule:
    def test_sustained_dead_slots_fire(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-0", 0.0, 1.0,
            up=1.0, dead_slots=1.0, active_slots=5.0, admission_threshold=5.0,
        )
        findings = run_detectors(recorder)
        assert _rules(findings) == ["active_set_leak"]
        finding = findings[0]
        assert finding.node == "replica-0"
        assert finding.end - finding.start >= MIN_WINDOW
        assert finding.evidence["dead_end"] == 1.0
        assert finding.evidence["threshold"] == 5.0

    def test_growing_dead_slots_fire(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-0", 0.0, 1.0,
            up=1.0, dead_slots=lambda t: 1.0 + int(t * 4),
        )
        findings = run_detectors(recorder)
        assert "active_set_leak" in _rules(findings)

    def test_promptly_released_slots_do_not_fire(self):
        recorder = FlightRecorder()
        # Dead slots appear for 0.2 s at a time, then are swept — the
        # healthy transient the execute-path sweep leaves behind.
        _record_ticks(
            recorder, "replica-0", 0.0, 2.0,
            up=1.0, dead_slots=lambda t: 1.0 if (t % 0.5) < 0.2 else 0.0,
        )
        assert run_detectors(recorder) == []

    def test_decreasing_count_breaks_the_window(self):
        recorder = FlightRecorder()
        # Climbs for 0.4 s, releases one, climbs for 0.4 s: each leg is
        # shorter than MIN_WINDOW, so no finding.
        _record_ticks(
            recorder, "replica-0", 0.0, 0.8,
            up=1.0, dead_slots=lambda t: 2.0 if 0.35 < t <= 0.45 else 3.0,
        )
        assert run_detectors(recorder) == []

    def test_downtime_gap_breaks_the_window(self):
        recorder = FlightRecorder()
        _record_ticks(recorder, "replica-0", 0.0, 0.3, up=1.0, dead_slots=1.0)
        # 0.4 s sampling gap (crash), then another short stretch.
        _record_ticks(recorder, "replica-0", 0.7, 1.0, up=1.0, dead_slots=1.0)
        assert run_detectors(recorder) == []

    def test_halted_replica_does_not_fire(self):
        recorder = FlightRecorder()
        _record_ticks(recorder, "replica-0", 0.0, 1.0, up=0.0, dead_slots=2.0)
        assert run_detectors(recorder) == []

    def test_protocol_without_dedup_series_is_exempt(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-0", 0.0, 1.0,
            up=1.0, active_slots=50.0, admission_threshold=50.0,
        )
        assert "active_set_leak" not in _rules(run_detectors(recorder))


class TestOtherRules:
    def test_threshold_pinned_fires(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-1", 0.0, 1.0,
            up=1.0, active_slots=5.0, admission_threshold=5.0,
            executed_total=100.0, rejected_total=lambda t: 100.0 * t,
        )
        assert "threshold_pinned" in _rules(run_detectors(recorder))

    def test_threshold_pinned_needs_flat_executions(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-1", 0.0, 1.0,
            up=1.0, active_slots=5.0, admission_threshold=5.0,
            executed_total=lambda t: 50.0 * t, rejected_total=lambda t: 100.0 * t,
        )
        assert "threshold_pinned" not in _rules(run_detectors(recorder))

    def test_occupancy_imbalance_fires_on_growth(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-2", 0.0, 1.0,
            up=1.0, active_slots=lambda t: 1.0 + int(t * 6), executed_total=40.0,
        )
        assert "occupancy_imbalance" in _rules(run_detectors(recorder))

    def test_post_fault_non_recovery(self):
        recorder = FlightRecorder()
        # Goodput climbs before the fault, flatlines after it.
        _record_ticks(
            recorder, "clients", 0.0, 3.0,
            successes=lambda t: 100.0 * min(t, 1.0),
        )
        recorder.mark(1.0, 1.5, "crash replica-1")
        findings = run_detectors(recorder)
        assert _rules(findings) == ["post_fault_non_recovery"]

    def test_recovered_fault_is_silent(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "clients", 0.0, 3.0, successes=lambda t: 100.0 * t,
        )
        recorder.mark(1.0, 1.5, "crash replica-1")
        assert run_detectors(recorder) == []

    def test_findings_are_sorted(self):
        recorder = FlightRecorder()
        for node in ("replica-2", "replica-0"):
            _record_ticks(recorder, node, 0.0, 1.0, up=1.0, dead_slots=1.0)
        findings = run_detectors(recorder)
        assert [finding.node for finding in findings] == ["replica-0", "replica-2"]


def _any_command() -> Command:
    return Command(KvOp.UPDATE, "user00000001", 10)


def _plant_dead_slots(replica, cid: int, onrs: list[int], executed: int) -> None:
    """Fabricate dedup-dead active entries: each (cid, onr) is accepted
    through the replica's one insertion point and marked proposed (so a
    newer request cannot supersede it), then the client executes up to
    ``executed`` elsewhere, which kills those with ``onr <= executed``."""
    for onr in onrs:
        rid = (cid, onr)
        replica._accept_request(Request(rid, _any_command()))
        replica.proposed_rids[rid] = 1
    replica.executed_onr[cid] = executed


class TestLeakFix:
    """Unit tests of ``IdemReplica._release_dedup_dead`` itself."""

    def _cluster(self, **overrides):
        overrides.setdefault("reject_threshold", 1)
        overrides.setdefault("acceptance", "taildrop")
        # Clients stay idle: the tests inject requests directly so the
        # only traffic is the one being asserted about.
        return build_cluster(
            "idem",
            1,
            seed=1,
            profile=small_profile(),
            overrides=overrides,
            start_clients=False,
        )

    def test_direct_sweep_frees_and_caches(self):
        cluster = self._cluster()
        replica = cluster.replicas[1]
        _plant_dead_slots(replica, cid=77, onrs=[1, 2], executed=2)
        assert {(77, 1), (77, 2)} <= set(replica.active)
        replica._release_dedup_dead(77)
        assert (77, 1) not in replica.active
        assert (77, 2) not in replica.active
        assert (77, 1) not in replica.request_store
        # Bodies stay servable for late proposals by other replicas.
        assert (77, 1) in replica.rejected_cache
        assert (77, 2) in replica.rejected_cache
        # The client's last entry left, and its index record with it.
        assert 77 not in replica._client_active
        assert_active_index_consistent(replica)

    def test_sweep_spares_live_entries(self):
        cluster = self._cluster()
        replica = cluster.replicas[1]
        _plant_dead_slots(replica, cid=77, onrs=[1, 3], executed=2)  # 3 is live
        replica._release_dedup_dead(77)
        assert (77, 1) not in replica.active
        assert (77, 3) in replica.active
        assert_active_index_consistent(replica)

    def test_reject_path_sweeps(self):
        cluster = self._cluster()
        replica = cluster.replicas[1]
        _plant_dead_slots(replica, cid=77, onrs=[1], executed=2)
        # Occupancy 1 >= threshold 1, so this request is rejected — and
        # the reject path must free the client's dead slot.
        replica.deliver(cluster.clients[0].address, Request((77, 3), _any_command()))
        cluster.run_until(0.05)
        assert (77, 1) not in replica.active

    def test_accept_path_sweeps(self):
        cluster = self._cluster(reject_threshold=10)
        replica = cluster.replicas[1]
        _plant_dead_slots(replica, cid=88, onrs=[1], executed=3)
        replica.deliver(cluster.clients[0].address, Request((88, 4), _any_command()))
        cluster.run_until(0.05)
        # The dead slot is gone (and its body stays servable); the new
        # request went through the normal pipeline.
        assert (88, 1) not in replica.active
        assert (88, 1) in replica.rejected_cache
        assert replica.stats["accepted"] >= 1


class TestStormRegression:
    """The acceptance gate: pre-fix figR storm fires the detector,
    the fixed code runs the same storm clean and recovers."""

    def _storm_spec(self, system="idem"):
        from repro.experiments.figR_retry_storm import (
            ANY_RETRY,
            BASE_OVERRIDES,
            IDEM_OVERRIDES,
            storm_spec,
        )

        overrides = {**BASE_OVERRIDES, **IDEM_OVERRIDES, **ANY_RETRY}
        return storm_spec(system, "naive-any", overrides, 0, probes=True)

    def _storm_result(self, system="idem"):
        from repro.cluster.runner import run_experiment

        return run_experiment(self._storm_spec(system))

    def test_prefix_storm_flags_the_leak(self, monkeypatch):
        monkeypatch.setattr(
            IdemReplica, "_release_dedup_dead", lambda self, cid: None
        )
        result = self._storm_result()
        rules = {finding["rule"] for finding in result.findings}
        assert "active_set_leak" in rules

    def test_fixed_storm_is_clean_and_recovers(self):
        from repro.cluster.runner import run_experiment
        from repro.experiments.figR_retry_storm import measure_storm

        spec = self._storm_spec()
        result = run_experiment(spec)
        run = measure_storm(spec, result, "naive-any")
        assert run.recovered
        assert run.drift_findings == 0
        for replica in result.obs.cluster.replicas:
            assert_active_index_consistent(replica)

    def test_multileader_storm_frees_dead_slots_on_execute(self, monkeypatch):
        # The variant shares IdemReplica._on_executed (and its
        # execute-path sweep); only who answers differs.
        self_requests = []
        send = BaseReplica.send

        def recording_send(replica, dst, message):
            if type(message) is CheckpointRequest and dst == replica.address:
                self_requests.append(replica.index)
            send(replica, dst, message)

        monkeypatch.setattr(BaseReplica, "send", recording_send)
        result = self._storm_result("idem-multileader")
        samples = [
            value
            for (_, name), series in result.obs.recorder.items()
            if name == "dead_slots"
            for _, value in series.samples()
        ]
        assert samples and not any(samples)
        # A lagging replica asks the observed slot's proposer for a
        # checkpoint, never itself (in view 0 leader_address is always
        # replica 0, which used to starve replica 0 of state transfer
        # and showed up as occupancy_imbalance).
        assert self_requests == []
        assert result.findings == []
