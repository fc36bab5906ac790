"""Invariant drift detection over flight-recorder series.

Declarative rules scan the probe series of one run
(:class:`repro.obs.timeseries.FlightRecorder`) for *protocol-state
drift*: internal state evolving in a way no healthy execution should
show.  Each rule emits structured :class:`Finding` rows carrying the
sim-time window, the node, and scalar evidence — enough to point a
human at the exact series and interval.

The built-in rules target the failure shapes of this repo's protocols:

``active_set_leak``
    A replica carries dedup-dead active entries (request ids whose
    client has already executed an operation number at or above
    theirs — the ``dead_slots`` probe series) and the count never
    shrinks over a sustained window.  Healthy IDEM frees those slots
    on the client's next rejected request
    (``IdemReplica._release_dedup_dead``), so a non-decreasing
    non-zero count is the active-slot leak that historically pinned a
    replica at its admission threshold (see ``docs/RESILIENCE.md``).

``threshold_pinned``
    Occupancy pinned at the admission threshold while rejections keep
    climbing and executions are flat — the replica is shedding all load
    but doing no work, regardless of what clients perceive.

``occupancy_imbalance``
    Active-set occupancy grows by several slots over a window in which
    executions are flat.  Catches a leak while it is still filling,
    before the threshold pins.

``post_fault_non_recovery``
    After an annotated fault window ends (recorder marks, written by
    the hub's fault annotator), client goodput fails to return to a
    fraction of its pre-fault rate.

Each rule is a plain function of the recorder; :func:`run_detectors`
runs all four.  All rules share hygiene requirements: windows only span
samples where the replica was up, a sampling gap larger than twice the
probe interval breaks any window (crash/recovery boundaries), iteration
is sorted everywhere and evidence is plain floats — detector output is
a pure function of the recorded series, independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.probes import SAMPLE_INTERVAL
from repro.obs.timeseries import FlightRecorder, Series

#: Minimum sim-time span a drift window must cover before it is reported.
MIN_WINDOW = 0.5

#: Active-set growth (slots) that counts as imbalance while executions
#: are flat.
MIN_GROWTH = 3.0

#: Post-fault goodput must reach this fraction of the pre-fault rate.
RECOVERY_FRACTION = 0.5


@dataclass
class Finding:
    """One detected invariant violation, with its evidence window."""

    rule: str
    node: str
    start: float
    end: float
    summary: str
    evidence: dict[str, float] = field(default_factory=dict)

    def jsonable(self) -> dict:
        return {
            "rule": self.rule,
            "node": self.node,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "summary": self.summary,
            "evidence": {
                key: round(value, 6) for key, value in sorted(self.evidence.items())
            },
        }


def findings_jsonable(findings: list[Finding]) -> list[dict]:
    """JSON-safe rows, in the detector's deterministic order."""
    return [finding.jsonable() for finding in findings]


# -- shared walking machinery ------------------------------------------


def _replica_nodes(recorder: FlightRecorder) -> list[str]:
    return [node for node in recorder.nodes() if node.startswith("replica-")]


def _gap_breaks(previous_time: float, time: float) -> bool:
    """A sampling gap > 2x the cadence ends any window (downtime)."""
    return (time - previous_time) > 2.0 * SAMPLE_INTERVAL


def _value_at(series: Optional[Series], time: float) -> float:
    if series is None:
        return math.nan
    return series.value_at(time)


class _Window:
    """An open candidate window while a rule's predicate keeps holding."""

    __slots__ = ("start", "end", "samples", "first", "last")

    def __init__(self, start: float, value: float):
        self.start = start
        self.end = start
        self.samples = 1
        self.first = value
        self.last = value

    def extend(self, time: float, value: float) -> None:
        self.end = time
        self.samples += 1
        self.last = value

    def long_enough(self) -> bool:
        # No gap inside a window exceeds 2 x SAMPLE_INTERVAL, so a
        # window this long holds at least 26 samples.
        return self.end - self.start >= MIN_WINDOW


def _scan_windows(
    series: Series,
    predicate: Callable[[float, float], bool],
) -> list[_Window]:
    """Maximal windows of consecutive samples where ``predicate(t, v)``
    holds, broken at sampling gaps."""
    windows: list[_Window] = []
    current: Optional[_Window] = None
    previous_time: Optional[float] = None

    def close() -> None:
        nonlocal current
        if current is not None and current.long_enough():
            windows.append(current)
        current = None

    for time, value in series.samples():
        if previous_time is not None and _gap_breaks(previous_time, time):
            close()
        previous_time = time
        if predicate(time, value):
            if current is None:
                current = _Window(time, value)
            else:
                current.extend(time, value)
        else:
            close()
    close()
    return windows


# -- rules -------------------------------------------------------------


def _active_set_leak(recorder: FlightRecorder) -> list[Finding]:
    findings: list[Finding] = []
    for node in _replica_nodes(recorder):
        dead = recorder.series(node, "dead_slots")
        up = recorder.series(node, "up")
        if dead is None:
            # Protocol without dedup bookkeeping (e.g. Paxos) — the
            # leak cannot exist there by construction.
            continue
        active = recorder.series(node, "active_slots")
        threshold = recorder.series(node, "admission_threshold")

        state = {"previous_dead": -math.inf}

        def predicate(time: float, value: float) -> bool:
            if _value_at(up, time) != 1.0 or value < 1.0:
                state["previous_dead"] = -math.inf
                return False
            if value < state["previous_dead"]:
                # A release happened: healthy sweeping, restart the
                # candidate window from this sample.
                state["previous_dead"] = value
                return False
            state["previous_dead"] = value
            return True

        for window in _scan_windows(dead, predicate):
            findings.append(
                Finding(
                    rule="active_set_leak",
                    node=node,
                    start=window.start,
                    end=window.end,
                    summary=(
                        f"{window.last:.0f} dedup-dead active slot(s) held "
                        f"without release for "
                        f"{window.end - window.start:.2f}s"
                    ),
                    evidence={
                        "dead_start": window.first,
                        "dead_end": window.last,
                        "active": _value_at(active, window.end),
                        "threshold": _value_at(threshold, window.end),
                        "samples": float(window.samples),
                    },
                )
            )
    return findings


def _threshold_pinned(recorder: FlightRecorder) -> list[Finding]:
    findings: list[Finding] = []
    for node in _replica_nodes(recorder):
        active = recorder.series(node, "active_slots")
        threshold = recorder.series(node, "admission_threshold")
        executed = recorder.series(node, "executed_total")
        rejected = recorder.series(node, "rejected_total")
        up = recorder.series(node, "up")
        if active is None or threshold is None or executed is None or rejected is None:
            continue

        def predicate(time: float, value: float) -> bool:
            if _value_at(up, time) != 1.0:
                return False
            cap = _value_at(threshold, time)
            return not math.isnan(cap) and value >= cap

        for window in _scan_windows(active, predicate):
            executed_delta = _value_at(executed, window.end) - _value_at(
                executed, window.start
            )
            rejected_delta = _value_at(rejected, window.end) - _value_at(
                rejected, window.start
            )
            if executed_delta != 0.0 or rejected_delta <= 0.0:
                continue
            findings.append(
                Finding(
                    rule="threshold_pinned",
                    node=node,
                    start=window.start,
                    end=window.end,
                    summary=(
                        f"occupancy at threshold for "
                        f"{window.end - window.start:.2f}s while rejecting "
                        f"{rejected_delta:.0f} requests and executing none"
                    ),
                    evidence={
                        "active_end": window.last,
                        "rejected_delta": rejected_delta,
                        "executed_delta": executed_delta,
                        "samples": float(window.samples),
                    },
                )
            )
    return findings


def _occupancy_imbalance(recorder: FlightRecorder) -> list[Finding]:
    findings: list[Finding] = []
    for node in _replica_nodes(recorder):
        active = recorder.series(node, "active_slots")
        executed = recorder.series(node, "executed_total")
        up = recorder.series(node, "up")
        if active is None or executed is None:
            continue

        # Windows where executions are flat (and the replica is up)...
        anchor = {"executed": math.nan}

        def predicate(time: float, value: float) -> bool:
            if _value_at(up, time) != 1.0:
                anchor["executed"] = math.nan
                return False
            executed_now = _value_at(executed, time)
            if math.isnan(anchor["executed"]):
                anchor["executed"] = executed_now
                return True
            if executed_now != anchor["executed"]:
                anchor["executed"] = math.nan
                return False
            return True

        # ...during which occupancy still grew by MIN_GROWTH or more.
        for window in _scan_windows(active, predicate):
            growth = window.last - window.first
            if growth < MIN_GROWTH:
                continue
            findings.append(
                Finding(
                    rule="occupancy_imbalance",
                    node=node,
                    start=window.start,
                    end=window.end,
                    summary=(
                        f"active set grew by {growth:.0f} slots over "
                        f"{window.end - window.start:.2f}s with zero "
                        "executions"
                    ),
                    evidence={
                        "active_start": window.first,
                        "active_end": window.last,
                        "growth": growth,
                        "samples": float(window.samples),
                    },
                )
            )
    return findings


def _post_fault_non_recovery(recorder: FlightRecorder) -> list[Finding]:
    findings: list[Finding] = []
    goodput = recorder.series("clients", "successes")
    if goodput is None or not recorder.marks:
        return findings
    horizon = goodput.last_time
    first_sample = next(iter(goodput.times()), math.inf)
    for mark in recorder.marks:
        start = float(mark.get("time", 0.0))
        end = float(mark.get("end", start))
        label = str(mark.get("label", "fault"))
        span = max(end - start, MIN_WINDOW)
        pre_start = start - span
        post_end = end + span
        # Need a full pre-fault baseline and a full post-fault window.
        if pre_start < first_sample or post_end > horizon:
            continue
        pre_delta = goodput.value_at(start) - goodput.value_at(pre_start)
        post_delta = goodput.value_at(post_end) - goodput.value_at(end)
        if math.isnan(pre_delta) or math.isnan(post_delta) or pre_delta <= 0:
            continue
        if post_delta >= RECOVERY_FRACTION * pre_delta:
            continue
        findings.append(
            Finding(
                rule="post_fault_non_recovery",
                node="clients",
                start=end,
                end=post_end,
                summary=(
                    f"goodput after fault '{label}' is "
                    f"{post_delta:.0f} successes/{span:.2f}s vs "
                    f"{pre_delta:.0f} before (needs "
                    f">= {RECOVERY_FRACTION:.0%})"
                ),
                evidence={
                    "pre_delta": pre_delta,
                    "post_delta": post_delta,
                    "fault_start": start,
                    "fault_end": end,
                    "recovery_fraction": RECOVERY_FRACTION,
                },
            )
        )
    return findings


def run_detectors(recorder: FlightRecorder) -> list[Finding]:
    """Run every rule over the recording; findings sorted and stable."""
    findings = [
        *_active_set_leak(recorder),
        *_threshold_pinned(recorder),
        *_occupancy_imbalance(recorder),
        *_post_fault_non_recovery(recorder),
    ]
    findings.sort(key=lambda f: (f.rule, f.node, f.start, f.end))
    return findings
