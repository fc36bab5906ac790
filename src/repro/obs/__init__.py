"""Deterministic sim-time observability: metrics, lifecycle spans,
replica-state probes, the flight recorder, drift detection, exporters.

See ``docs/OBSERVABILITY.md`` for the span model, the probe catalog and
the detector rule reference.
"""

from repro.obs.analysis import (
    RequestBreakdown,
    build_breakdowns,
    reject_reason_histogram,
    render_report,
    top_slowest,
)
from repro.obs.detect import (
    DetectorConfig,
    DetectorRule,
    Finding,
    RULES,
    findings_jsonable,
    run_detectors,
)
from repro.obs.export import chrome_trace_events, write_chrome_trace, write_jsonl
from repro.obs.hub import ObservabilityHub
from repro.obs.probes import Probeable, ProbeSampler
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import (
    ClientObserver,
    ReplicaObserver,
    RequestTracer,
    TraceEvent,
)
from repro.obs.timeseries import (
    FlightRecorder,
    PercentileSketch,
    Series,
    WindowStats,
    series_counter_events,
    write_series_chrome_trace,
    write_series_jsonl,
)

__all__ = [
    "ClientObserver",
    "Counter",
    "DetectorConfig",
    "DetectorRule",
    "Finding",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityHub",
    "PercentileSketch",
    "Probeable",
    "ProbeSampler",
    "RULES",
    "ReplicaObserver",
    "RequestBreakdown",
    "RequestTracer",
    "Series",
    "TraceEvent",
    "WindowStats",
    "build_breakdowns",
    "chrome_trace_events",
    "findings_jsonable",
    "reject_reason_histogram",
    "render_report",
    "run_detectors",
    "series_counter_events",
    "top_slowest",
    "write_chrome_trace",
    "write_jsonl",
    "write_series_chrome_trace",
    "write_series_jsonl",
]
