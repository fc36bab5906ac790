"""Exporters: JSONL logs and the Chrome trace-event document.

The JSONL exports are the lossless archival forms, easy to grep and to
post-process: one :class:`~repro.obs.spans.TraceEvent` per line
(:func:`write_jsonl`), and one flight-recorder sample per line
(:func:`write_series_jsonl`).

The Chrome trace-event export targets the ``chrome://tracing`` /
Perfetto JSON schema (the "JSON Array Format" with ``traceEvents``):

* each node (client, replica, the synthetic ``faults`` track) becomes a
  thread (``tid``) of one process, named via ``M`` metadata events;
* request lifetimes, execution batches, view changes and fault windows
  become complete (``X``) spans with microsecond ``ts``/``dur``;
* point events (accept, reject, propose, quorum, execute, forward, ...)
  become instant (``i``) events;
* flight-recorder series become counter (``C``) tracks, one per
  (node, series), which Perfetto renders as area charts.

:func:`write_chrome_trace` writes either part or both into one document.
"""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.obs.spans import (
    CLIENT_OUTCOME,
    CLIENT_SEND,
    EXEC,
    FAULT,
    VC_DONE,
    RequestTracer,
    TraceEvent,
)
from repro.obs.timeseries import FlightRecorder

_INSTANT_KINDS = {
    "client_retransmit",
    "client_reject_recv",
    "recv",
    "accept",
    "reject",
    "propose",
    "quorum",
    "execute",
    "reply_sent",
    "forward",
    "adopt",
    "fetch",
    "vc_start",
    "newview",
}


def _us(seconds: float) -> float:
    return seconds * 1e6


def write_jsonl(tracer: RequestTracer, stream: IO[str]) -> int:
    """Write every trace event as one JSON object per line.

    Returns the number of lines written.
    """
    written = 0
    for event in tracer.events:
        row = {"ts": event.time, "node": event.node, "kind": event.kind}
        if event.rid is not None:
            row["rid"] = list(event.rid)
        if event.data is not None:
            row["data"] = event.data
        stream.write(json.dumps(row, sort_keys=True) + "\n")
        written += 1
    return written


def _tid_order(node: str) -> tuple[int, int]:
    kind, _, index = node.partition("-")
    rank = {"replica": 0, "client": 1, "faults": 2}.get(kind, 3)
    try:
        return rank, int(index)
    except ValueError:
        return rank, 0


def chrome_trace_events(tracer: RequestTracer) -> list[dict]:
    """The ``traceEvents`` list for the Chrome trace-event JSON."""
    nodes = sorted({event.node for event in tracer.events}, key=_tid_order)
    tids = {node: position + 1 for position, node in enumerate(nodes)}
    rows: list[dict] = [
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "repro-sim"}},
    ]
    for node, tid in tids.items():
        rows.append(
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name", "args": {"name": node}}
        )
        rows.append(
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_sort_index",
             "args": {"sort_index": tid}}
        )

    # Client request lifetimes: send -> outcome as a complete span.
    send_at: dict[tuple, TraceEvent] = {}
    for event in tracer.events:
        tid = tids[event.node]
        if event.kind == CLIENT_SEND:
            send_at[(event.node, event.rid)] = event
        elif event.kind == CLIENT_OUTCOME:
            begin = send_at.pop((event.node, event.rid), None)
            start = begin.time if begin is not None else event.time
            rows.append({
                "ph": "X", "pid": 1, "tid": tid,
                "name": f"request {event.rid} [{event.data['outcome']}]",
                "cat": "request",
                "ts": _us(start), "dur": max(0.0, _us(event.time - start)),
                "args": dict(event.data),
            })
        elif event.kind == EXEC:
            begin = event.data["begin"]
            rows.append({
                "ph": "X", "pid": 1, "tid": tid,
                "name": f"exec sqn={event.data['sqn']}",
                "cat": "execution",
                "ts": _us(begin), "dur": max(0.0, _us(event.time - begin)),
                "args": {"sqn": event.data["sqn"], "cost": event.data["cost"]},
            })
        elif event.kind == VC_DONE:
            begin = event.data["begin"]
            rows.append({
                "ph": "X", "pid": 1, "tid": tid,
                "name": f"view change -> v{event.data['view']}",
                "cat": "view_change",
                "ts": _us(begin), "dur": max(0.0, _us(event.time - begin)),
                "args": {"view": event.data["view"]},
            })
        elif event.kind == FAULT:
            rows.append({
                "ph": "X", "pid": 1, "tid": tid,
                "name": event.data["label"],
                "cat": "fault",
                "ts": _us(event.data["begin"]),
                "dur": max(0.0, _us(event.data["end"] - event.data["begin"])),
                "args": {},
            })
        elif event.kind in _INSTANT_KINDS:
            args = dict(event.data) if event.data else {}
            if event.rid is not None:
                args["rid"] = str(event.rid)
            if "rids" in args:
                args["rids"] = str(args["rids"])
            rows.append({
                "ph": "i", "pid": 1, "tid": tid, "s": "t",
                "name": event.kind,
                "cat": "lifecycle",
                "ts": _us(event.time),
                "args": args,
            })

    # Requests still pending at the end of the run get zero-length spans.
    for (node, rid), begin in sorted(send_at.items(), key=lambda item: item[1].time):
        rows.append({
            "ph": "X", "pid": 1, "tid": tids[node],
            "name": f"request {rid} [pending]",
            "cat": "request",
            "ts": _us(begin.time), "dur": 0.0,
            "args": {},
        })
    rows.sort(key=lambda row: (row.get("ts", -1.0), row.get("tid", 0)))
    return rows


def write_series_jsonl(recorder: FlightRecorder, stream: IO[str]) -> int:
    """One JSON object per retained sample, globally time-ordered.

    Ties are broken by (node, series) so output is byte-stable.
    Returns the number of lines written (marks included).
    """
    rows = [
        (time, node, name, value)
        for (node, name), series in recorder.items()
        for time, value in series.samples()
    ]
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    for time, node, name, value in rows:
        stream.write(
            json.dumps(
                {"ts": time, "node": node, "series": name, "value": value},
                sort_keys=True,
            )
            + "\n"
        )
    for entry in recorder.marks:
        stream.write(json.dumps({"mark": entry}, sort_keys=True) + "\n")
    return len(rows) + len(recorder.marks)


def series_counter_events(recorder: FlightRecorder) -> list[dict]:
    """Perfetto counter ("C") rows for every retained probe sample.

    Each (node, series) becomes its own counter track.
    """
    rows = [
        {
            "ph": "C",
            "pid": 1,
            "name": f"{node} {name}",
            "ts": _us(time),
            "args": {name: value},
        }
        for (node, name), series in recorder.items()
        for time, value in series.samples()
    ]
    rows.sort(key=lambda row: (row["ts"], row["name"]))
    return rows


def write_chrome_trace(
    stream: IO[str],
    tracer: Optional[RequestTracer] = None,
    recorder: Optional[FlightRecorder] = None,
) -> int:
    """Write one Chrome trace-event JSON document; returns the event count.

    The document holds the request spans of ``tracer`` and the counter
    tracks of ``recorder``, whichever are given.
    """
    events: list[dict] = []
    other: dict = {"generator": "repro.obs"}
    if tracer is not None:
        events.extend(chrome_trace_events(tracer))
        other["events"] = len(tracer.events)
    if recorder is not None:
        events.extend(series_counter_events(recorder))
        other["series"] = len(recorder)
        other["samples"] = recorder.samples_recorded
    document = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}
    json.dump(document, stream, sort_keys=True)
    stream.write("\n")
    return len(events)
