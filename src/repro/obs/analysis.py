"""Trace analysis: per-request latency breakdowns and summary reports.

Reconstructs, for every traced request, the causal chain the paper's
latency argument is about::

    client_send --net--> recv --cpu queue--> accept --require wait-->
    propose --agreement--> quorum --exec wait--> execute --reply-->
    client_outcome

and decomposes the end-to-end latency into those per-hop segments (the
decomposition style of the geo-SMR latency-modeling line of work), so a
p99 request can be explained stage by stage instead of being one opaque
number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.spans import (
    ACCEPT,
    CLIENT_OUTCOME,
    CLIENT_SEND,
    EXECUTE,
    PROPOSE,
    QUORUM,
    RECV,
    REJECT,
    REPLY_SENT,
    VC_DONE,
    RequestTracer,
    Rid,
)
from repro.obs.timeseries import FlightRecorder
from repro.sim.monitor import SummaryStats

# The lifecycle stages, in causal order: (label, from-event, to-event).
_STAGES = [
    ("client -> replica network", "send", "recv"),
    ("replica cpu queue + acceptance", "recv", "accept"),
    ("ordering wait (require -> propose)", "accept", "propose"),
    ("agreement (propose -> quorum)", "propose", "quorum"),
    ("execution wait (quorum -> execute)", "quorum", "execute"),
    ("execute -> reply sent", "execute", "reply"),
    ("reply -> client", "reply", "done"),
]


@dataclass
class RequestBreakdown:
    """One request's lifecycle timestamps and per-hop latency segments."""

    rid: Rid
    outcome: str = "pending"
    send: Optional[float] = None
    recv: Optional[float] = None
    accept: Optional[float] = None
    reject_times: list[float] = field(default_factory=list)
    reject_reasons: list[str] = field(default_factory=list)
    propose: Optional[float] = None
    sqn: Optional[int] = None
    quorum: Optional[float] = None
    execute: Optional[float] = None
    reply: Optional[float] = None
    done: Optional[float] = None

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds (0 while unfinished)."""
        if self.send is None or self.done is None:
            return 0.0
        return self.done - self.send

    def stages(self) -> list[tuple[str, float]]:
        """The per-hop decomposition: consecutive ``(label, seconds)`` pairs.

        Stages whose endpoints were not observed (e.g. a rejected request
        never reaches ordering) are skipped; the remaining segments are
        measured between the nearest observed timestamps, so they always
        sum to the end-to-end latency.
        """
        times = {
            "send": self.send,
            "recv": self.recv,
            "accept": self.accept,
            "propose": self.propose,
            "quorum": self.quorum,
            "execute": self.execute,
            "reply": self.reply,
            "done": self.done,
        }
        segments: list[tuple[str, float]] = []
        previous_point = "send"
        previous_time = times["send"]
        if previous_time is None:
            return segments
        for label, begin, end in _STAGES:
            end_time = times[end]
            if end_time is None:
                continue
            if begin != previous_point:
                label = f"{previous_point} -> {end}"
            segments.append((label, max(0.0, end_time - previous_time)))
            previous_point = end
            previous_time = end_time
        return segments


def build_breakdowns(tracer: RequestTracer) -> dict[Rid, RequestBreakdown]:
    """One :class:`RequestBreakdown` per traced request id.

    Per-replica events collapse onto the *earliest* observation (first
    replica to receive, first to execute, ...), which is the causal path
    the client-visible latency followed.
    """
    breakdowns: dict[Rid, RequestBreakdown] = {}
    rid_sqn: dict[Rid, int] = {}
    quorum_at: dict[int, float] = {}

    def entry(rid: Rid) -> RequestBreakdown:
        breakdown = breakdowns.get(rid)
        if breakdown is None:
            breakdown = breakdowns[rid] = RequestBreakdown(rid)
        return breakdown

    for event in tracer.events:
        kind = event.kind
        if kind == CLIENT_SEND:
            breakdown = entry(event.rid)
            if breakdown.send is None:
                breakdown.send = event.time
        elif kind == RECV:
            breakdown = entry(event.rid)
            if breakdown.recv is None:
                breakdown.recv = event.time
        elif kind == ACCEPT:
            breakdown = entry(event.rid)
            if breakdown.accept is None:
                breakdown.accept = event.time
        elif kind == REJECT:
            breakdown = entry(event.rid)
            breakdown.reject_times.append(event.time)
            breakdown.reject_reasons.append(event.data["reason"])
        elif kind == PROPOSE:
            for rid in event.data["rids"]:
                rid = tuple(rid)
                breakdown = entry(rid)
                if breakdown.propose is None:
                    breakdown.propose = event.time
                    breakdown.sqn = event.data["sqn"]
                rid_sqn[rid] = event.data["sqn"]
        elif kind == QUORUM:
            sqn = event.data["sqn"]
            if sqn not in quorum_at:
                quorum_at[sqn] = event.time
        elif kind == EXECUTE:
            breakdown = entry(event.rid)
            if breakdown.execute is None:
                breakdown.execute = event.time
                breakdown.sqn = event.data["sqn"]
                rid_sqn[event.rid] = event.data["sqn"]
        elif kind == REPLY_SENT:
            breakdown = entry(event.rid)
            if breakdown.reply is None:
                breakdown.reply = event.time
        elif kind == CLIENT_OUTCOME:
            breakdown = entry(event.rid)
            breakdown.done = event.time
            breakdown.outcome = event.data["outcome"]

    for rid, breakdown in breakdowns.items():
        if breakdown.quorum is None:
            sqn = rid_sqn.get(rid)
            if sqn is not None:
                breakdown.quorum = quorum_at.get(sqn)
    return breakdowns


def top_slowest(
    breakdowns: dict[Rid, RequestBreakdown],
    k: int = 5,
    outcome: str = "success",
) -> list[RequestBreakdown]:
    """The ``k`` highest-latency finished requests with ``outcome``."""
    finished = [
        breakdown
        for breakdown in breakdowns.values()
        if breakdown.outcome == outcome and breakdown.send is not None
    ]
    finished.sort(key=lambda breakdown: (-breakdown.latency, breakdown.rid))
    return finished[:k]


def reject_reason_histogram(tracer: RequestTracer) -> dict[str, int]:
    """How often each rejection reason fired, across all replicas."""
    counts: dict[str, int] = {}
    for event in tracer.events:
        if event.kind == REJECT:
            reason = event.data["reason"]
            counts[reason] = counts.get(reason, 0) + 1
    return counts


def render_breakdown(breakdown: RequestBreakdown) -> str:
    """Multi-line rendering of one request's per-hop decomposition."""
    rid = breakdown.rid
    lines = [
        f"rid=({rid[0]}, {rid[1]})  outcome={breakdown.outcome}  "
        f"latency={breakdown.latency * 1e3:.3f} ms"
        + (f"  sqn={breakdown.sqn}" if breakdown.sqn is not None else "")
    ]
    total = breakdown.latency
    for label, seconds in breakdown.stages():
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"    {label:<36s} {seconds * 1e3:9.3f} ms  {share:5.1f}%")
    if breakdown.reject_reasons:
        lines.append(
            f"    rejections seen: {len(breakdown.reject_reasons)} "
            f"({', '.join(sorted(set(breakdown.reject_reasons)))})"
        )
    return "\n".join(lines)


def replica_internals(
    tracer: RequestTracer, recorder: Optional[FlightRecorder] = None
) -> dict[tuple[str, str], list[float]]:
    """Per-(metric, node) samples of four replica internals.

    * ``queue_depth_at_arrival`` — processor queue seen by each request
      (``recv`` rows);
    * ``active_at_decision`` — occupancy at each accept/reject decision;
    * ``view_change_duration`` — ``vc_start`` to ``view_installed``;
    * ``busy_fraction`` — the recorder's ``busy_frac`` series.
    """
    samples: dict[tuple[str, str], list[float]] = {}

    def add(metric: str, node: str, value: float) -> None:
        samples.setdefault((metric, node), []).append(value)

    for event in tracer.events:
        kind = event.kind
        if kind == RECV:
            add("queue_depth_at_arrival", event.node, event.data["queue"])
        elif kind in (ACCEPT, REJECT):
            add("active_at_decision", event.node, event.data["active"])
        elif kind == VC_DONE and event.time > event.data["begin"]:
            add("view_change_duration", event.node, event.time - event.data["begin"])
    if recorder is not None:
        for (node, name), series in recorder.items():
            if name == "busy_frac":
                samples[("busy_fraction", node)] = series.values()
    return samples


def render_report(
    tracer: RequestTracer,
    recorder: Optional[FlightRecorder] = None,
    k: int = 5,
) -> str:
    """The deterministic trace summary printed by ``repro-experiments trace``.

    Top-``k`` slowest successful requests with per-hop breakdowns, the
    reject-reason histogram, and per-node replica internals
    (:func:`replica_internals`; ``busy_fraction`` needs ``recorder``).
    """
    breakdowns = build_breakdowns(tracer)
    finished = [b for b in breakdowns.values() if b.outcome != "pending"]
    successes = [b for b in finished if b.outcome == "success"]
    lines = [
        f"traced requests: {len(breakdowns)} "
        f"({len(successes)} success, "
        f"{sum(1 for b in finished if b.outcome == 'rejected')} rejected, "
        f"{sum(1 for b in finished if b.outcome == 'timeout')} timeout)",
    ]
    if tracer.truncated:
        lines.append(f"warning: {tracer.truncated} trace events dropped (cap hit)")
    slowest = top_slowest(breakdowns, k)
    lines.append("")
    lines.append(f"top {len(slowest)} slowest successful requests:")
    for breakdown in slowest:
        lines.append("  " + render_breakdown(breakdown).replace("\n", "\n  "))
    reasons = reject_reason_histogram(tracer)
    lines.append("")
    if reasons:
        total = sum(reasons.values())
        lines.append(f"reject reasons ({total} replica-side rejections):")
        for reason in sorted(reasons):
            lines.append(f"  {reason:<24s} {reasons[reason]:8d}")
    else:
        lines.append("reject reasons: none (no replica-side rejections)")
    internals = replica_internals(tracer, recorder)
    if internals:
        lines.append("")
        lines.append("replica internals:")
        for (metric, node), values in sorted(internals.items()):
            stats = SummaryStats.of(values)
            lines.append(
                f"  {metric}{{node={node}}} count={stats.count} "
                f"mean={stats.mean:.4g} min={stats.minimum:.4g} "
                f"max={stats.maximum:.4g} p50={stats.p50:.4g} p99={stats.p99:.4g}"
            )
    return "\n".join(lines)
