"""Deterministic sim-time observability: lifecycle spans, replica-state
probes, the flight recorder, drift detection, exporters.

Two stores hold every measurement: the :class:`RequestTracer` event
stream (what happened to each request) and the :class:`FlightRecorder`
(what level each node was at).  Reports and exports are computed from
them.  See ``docs/OBSERVABILITY.md`` for the span model, the probe
catalog and the detector rule reference.
"""

from repro.obs.analysis import (
    RequestBreakdown,
    build_breakdowns,
    reject_reason_histogram,
    render_report,
    replica_internals,
    top_slowest,
)
from repro.obs.detect import Finding, findings_jsonable, run_detectors
from repro.obs.export import (
    chrome_trace_events,
    series_counter_events,
    write_chrome_trace,
    write_jsonl,
    write_series_jsonl,
)
from repro.obs.hub import ObservabilityHub
from repro.obs.probes import SAMPLE_INTERVAL, ProbeSampler
from repro.obs.spans import (
    ClientObserver,
    ReplicaObserver,
    RequestTracer,
    TraceEvent,
)
from repro.obs.timeseries import FlightRecorder, Series

__all__ = [
    "ClientObserver",
    "Finding",
    "FlightRecorder",
    "ObservabilityHub",
    "ProbeSampler",
    "ReplicaObserver",
    "RequestBreakdown",
    "RequestTracer",
    "SAMPLE_INTERVAL",
    "Series",
    "TraceEvent",
    "build_breakdowns",
    "chrome_trace_events",
    "findings_jsonable",
    "reject_reason_histogram",
    "render_report",
    "replica_internals",
    "run_detectors",
    "series_counter_events",
    "top_slowest",
    "write_chrome_trace",
    "write_jsonl",
    "write_series_jsonl",
]
