"""Tests for repro.obs: lifecycle tracing, the report, exporters.

The load-bearing property is the observer-only contract: a seeded run
with tracing attached must return byte-identical results to the same
run without it.  Everything else (span reconstruction, exports, fault
annotation) builds on traces from one shared observed run.
"""

import io
import json

import pytest

from repro.cluster.faults import FaultSchedule
from repro.cluster.runner import RunSpec, run_experiment
from repro.obs import (
    ObservabilityHub,
    RequestTracer,
    build_breakdowns,
    chrome_trace_events,
    reject_reason_histogram,
    render_report,
    replica_internals,
    top_slowest,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs import spans

from tests.conftest import small_profile


def fingerprint(result):
    """Every result field that must not move when tracing is attached."""
    return (
        result.throughput,
        result.latency,
        result.reject_throughput,
        result.reject_latency,
        result.timeouts,
        tuple(sorted(result.traffic.items())),
        tuple(tuple(sorted(stats.items())) for stats in result.replica_stats),
    )


def observed_run(**kwargs):
    kwargs.setdefault("system", "idem")
    kwargs.setdefault("clients", 6)
    kwargs.setdefault("duration", 0.5)
    kwargs.setdefault("warmup", 0.15)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("profile", small_profile())
    kwargs.setdefault("observe", True)
    return run_experiment(RunSpec(**kwargs))


@pytest.fixture(scope="module")
def traced_result():
    """One observed run shared by all read-only assertions below."""
    return observed_run()


# -- the observer-only contract --------------------------------------------


class TestObserverOnly:
    def test_traced_run_is_byte_identical(self):
        plain = observed_run(observe=False)
        traced = observed_run()
        assert plain.obs is None
        assert traced.obs is not None
        assert fingerprint(plain) == fingerprint(traced)

    def test_identical_under_rejection_load(self):
        # Overload a tiny acceptance buffer so the reject path runs too.
        kwargs = dict(
            clients=20,
            seed=3,
            overrides={"reject_threshold": 2},
        )
        plain = observed_run(observe=False, **kwargs)
        traced = observed_run(**kwargs)
        assert traced.reject_throughput > 0, "scenario must exercise rejection"
        assert fingerprint(plain) == fingerprint(traced)

    def test_identical_across_a_crash_and_recovery(self):
        def schedule():
            return FaultSchedule().crash_follower(0.25).recover_replica(0.45)

        kwargs = dict(duration=0.7, warmup=0.1, seed=5)
        plain = observed_run(observe=False, faults=schedule(), **kwargs)
        traced = observed_run(faults=schedule(), **kwargs)
        assert fingerprint(plain) == fingerprint(traced)
        # The fault plan is annotated into the trace as windows.
        faults = [
            event for event in traced.obs.tracer.events if event.kind == spans.FAULT
        ]
        assert len(faults) == 1
        assert faults[0].data["begin"] == 0.25
        assert faults[0].data["end"] == 0.45


# -- lifecycle tracing -----------------------------------------------------


class TestLifecycle:
    def test_all_lifecycle_kinds_present(self, traced_result):
        counts = traced_result.obs.tracer.by_kind()
        for kind in (
            spans.CLIENT_SEND,
            spans.RECV,
            spans.ACCEPT,
            spans.PROPOSE,
            spans.QUORUM,
            spans.EXECUTE,
            spans.REPLY_SENT,
            spans.CLIENT_OUTCOME,
        ):
            assert counts.get(kind, 0) > 0, kind

    def test_breakdown_stages_sum_to_latency(self, traced_result):
        breakdowns = build_breakdowns(traced_result.obs.tracer)
        slowest = top_slowest(breakdowns, k=5)
        assert slowest
        for breakdown in slowest:
            assert breakdown.outcome == "success"
            total = sum(duration for _label, duration in breakdown.stages())
            assert total == pytest.approx(breakdown.latency, rel=1e-6)

    def test_report_computes_replica_internals(self, traced_result):
        obs = traced_result.obs
        internals = replica_internals(obs.tracer, obs.recorder)
        for index, stats in enumerate(traced_result.replica_stats):
            node = f"replica-{index}"
            # One decision row per admission decision the replica counted.
            assert len(internals[("active_at_decision", node)]) == (
                stats["accepted"] + stats["rejected"]
            )
            assert internals[("queue_depth_at_arrival", node)]
            assert internals[("busy_fraction", node)] == (
                obs.recorder.series(node, "busy_frac").values()
            )
        report = render_report(obs.tracer, obs.recorder)
        for metric in ("active_at_decision", "busy_fraction", "queue_depth_at_arrival"):
            assert f"  {metric}{{node=replica-0}} count=" in report

    def test_reject_reasons_recorded(self):
        result = observed_run(
            system="paxos-lbr", clients=30, seed=2, overrides={"reject_threshold": 2}
        )
        histogram = reject_reason_histogram(result.obs.tracer)
        assert histogram.get("leader-threshold", 0) > 0

    def test_multileader_proposals_are_traced(self):
        # Every proposer runs the one BaseReplica loop, so the propose
        # hook fires for slot owners as it does for a single leader.
        result = observed_run(system="idem-multileader", seed=1)
        obs = result.obs
        assert obs.tracer.by_kind().get(spans.PROPOSE, 0) > 0
        proposals = {}
        for event in obs.tracer.events:
            if event.kind == spans.PROPOSE:
                proposals[event.node] = proposals.get(event.node, 0) + 1
        for index, stats in enumerate(result.replica_stats):
            assert stats["proposals"] > 0
            assert proposals[f"replica-{index}"] == stats["proposals"]

    def test_render_report_mentions_stages_and_reasons(self, traced_result):
        report = render_report(
            traced_result.obs.tracer, traced_result.obs.recorder, k=3
        )
        assert "slowest" in report
        assert "agreement (propose -> quorum)" in report
        assert "busy_fraction" in report


# -- exporters -------------------------------------------------------------


class TestExporters:
    def test_jsonl_roundtrip(self, traced_result):
        stream = io.StringIO()
        lines = write_jsonl(traced_result.obs.tracer, stream)
        payload = stream.getvalue().splitlines()
        assert lines == len(payload) == len(traced_result.obs.tracer.events)
        for line in payload[:100]:
            row = json.loads(line)
            assert {"ts", "node", "kind"} <= set(row)
            assert set(row) <= {"ts", "node", "kind", "rid", "data"}

    def test_chrome_trace_is_valid(self, traced_result):
        stream = io.StringIO()
        write_chrome_trace(
            stream, traced_result.obs.tracer, traced_result.obs.recorder
        )
        document = json.loads(stream.getvalue())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events
        phases = {event["ph"] for event in events}
        assert {"M", "X", "i", "C"} <= phases
        names = [
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        ]
        assert names == ["repro-sim"]
        for event in events:
            assert event["pid"] == 1
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0

    def test_request_spans_cover_successes(self, traced_result):
        rows = chrome_trace_events(traced_result.obs.tracer)
        requests = [
            row
            for row in rows
            if row.get("cat") == "request" and "[success]" in row.get("name", "")
        ]
        assert requests
        assert all(row["ph"] == "X" for row in requests)


# -- tracer bounds ---------------------------------------------------------


class TestRequestTracer:
    def test_cap_truncates_and_counts(self):
        tracer = RequestTracer(max_events=3)
        for index in range(5):
            tracer.emit(float(index), "replica-0", spans.RECV, (0, index))
        assert len(tracer) == 3
        assert tracer.truncated == 2

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            RequestTracer(max_events=0)

    def test_for_rid_filters(self):
        tracer = RequestTracer()
        tracer.emit(0.0, "client-0", spans.CLIENT_SEND, (0, 1))
        tracer.emit(0.1, "replica-0", spans.RECV, (0, 2))
        assert [event.kind for event in tracer.for_rid((0, 1))] == [spans.CLIENT_SEND]
