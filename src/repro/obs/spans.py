"""Request-lifecycle span events and the per-node observer facades.

Every client request carries its request id ``rid = (cid, onr)`` through
the protocol, which doubles as its *trace id*: the tracer records one
flat, time-ordered stream of :class:`TraceEvent` rows keyed by rid (and
by node for node-scoped events like view changes), from which the
analysis layer reconstructs a causal span tree per request::

    client_send -> recv (per replica) -> accept/reject -> propose
        -> quorum -> exec -> reply_sent -> client_outcome

The observers are pure *observers*: they read ``loop.now`` and protocol
state, append to lists and bump registry metrics, but never schedule
events, never draw randomness and never mutate protocol state.  A run
with observers attached is therefore bit-identical to one without.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.obs.registry import MetricsRegistry

Rid = tuple[int, int]

# Event kinds (kept short: they appear once per event in exports).
CLIENT_SEND = "client_send"
CLIENT_RETRANSMIT = "client_retransmit"
CLIENT_REJECT_RECV = "client_reject_recv"
CLIENT_RETRY = "client_retry"
CLIENT_HEDGE = "client_hedge"
CLIENT_GIVE_UP = "client_give_up"
CLIENT_OUTCOME = "client_outcome"
RECV = "recv"
ACCEPT = "accept"
REJECT = "reject"
PROPOSE = "propose"
QUORUM = "quorum"
EXEC = "exec"
EXECUTE = "execute"
REPLY_SENT = "reply_sent"
FORWARD = "forward"
ADOPT = "adopt"
FETCH = "fetch"
VC_START = "vc_start"
NEWVIEW = "newview"
VC_DONE = "view_installed"
SAMPLE = "sample"
FAULT = "fault"


class TraceEvent(NamedTuple):
    """One row of the lifecycle trace."""

    time: float
    node: str
    kind: str
    rid: Optional[Rid]
    data: Optional[dict[str, Any]]


class RequestTracer:
    """Collects :class:`TraceEvent` rows, bounded by ``max_events``.

    Once the cap is reached further events are counted but dropped
    (``truncated``).
    """

    def __init__(self, max_events: int = 2_000_000):
        if max_events < 1:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.truncated = 0

    def emit(
        self,
        time: float,
        node: str,
        kind: str,
        rid: Optional[Rid] = None,
        data: Optional[dict[str, Any]] = None,
    ) -> None:
        """Append one event (dropped and counted once the cap is hit)."""
        if len(self.events) >= self.max_events:
            self.truncated += 1
            return
        self.events.append(TraceEvent(time, node, kind, rid, data))

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self) -> dict[str, int]:
        """Event counts per kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def for_rid(self, rid: Rid) -> list[TraceEvent]:
        """All events of one request, in time order."""
        return [event for event in self.events if event.rid == rid]


class ReplicaObserver:
    """Observer facade attached to one replica as ``replica.obs``.

    The replica calls these hooks from its protocol code; each hook is a
    few appends and dict updates.  When no observer is attached the
    replica's ``if self.obs is not None`` guard is the only cost.
    """

    def __init__(self, tracer: RequestTracer, registry: MetricsRegistry, replica):
        self.tracer = tracer
        self.registry = registry
        self.replica = replica
        self.node = f"replica-{replica.index}"
        # Observer-side bookkeeping (never protocol state).
        self._quorum_seen: set[tuple[int, int]] = set()
        self._exec_pending: dict[int, tuple[float, float]] = {}
        self._vc_started_at: Optional[float] = None
        self._last_busy_time = 0.0

    def _now(self) -> float:
        return self.replica.loop.now

    # -- message handling ---------------------------------------------

    def on_deliver(self, type_name: str, cost: float, rid: Optional[Rid]) -> None:
        """A message reached this replica's processor queue."""
        now = self._now()
        queue_depth = self.replica.processor.queue_length
        self.registry.counter("messages_received", node=self.node, type=type_name).inc()
        self.registry.histogram("handling_cost", node=self.node, type=type_name).observe(cost)
        self.registry.histogram("queue_depth_at_arrival", node=self.node).observe(queue_depth)
        if rid is not None:
            self.tracer.emit(now, self.node, RECV, rid, {"queue": queue_depth})

    # -- acceptance / rejection ---------------------------------------

    def on_accept(self, rid: Rid, active_count: int, threshold: Optional[int]) -> None:
        """The acceptance test admitted a fresh client request."""
        self.registry.counter("accepts", node=self.node).inc()
        self._note_decision(active_count, threshold)
        self.tracer.emit(
            self._now(), self.node, ACCEPT, rid,
            {"active": active_count, "threshold": threshold},
        )

    def on_reject(
        self, rid: Rid, active_count: int, threshold: Optional[int], reason: str
    ) -> None:
        """The acceptance test rejected a fresh client request."""
        self.registry.counter("rejects", node=self.node, reason=reason).inc()
        self._note_decision(active_count, threshold)
        self.tracer.emit(
            self._now(), self.node, REJECT, rid,
            {"active": active_count, "threshold": threshold, "reason": reason},
        )

    def _note_decision(self, active_count: int, threshold: Optional[int]) -> None:
        self.registry.histogram("active_at_decision", node=self.node).observe(active_count)
        if threshold is not None:
            self.registry.gauge("reject_threshold", node=self.node).set(threshold)

    # -- ordering ------------------------------------------------------

    def on_propose(self, view: int, sqn: int, rids: tuple[Rid, ...]) -> None:
        """This replica (as leader) proposed a batch at ``sqn``."""
        self.registry.counter("proposals", node=self.node).inc()
        self.registry.histogram("propose_batch_size", node=self.node).observe(len(rids))
        self.tracer.emit(
            self._now(), self.node, PROPOSE, None,
            {"sqn": sqn, "view": view, "rids": list(rids)},
        )

    def on_quorum(self, instance) -> None:
        """An instance first reached its commit quorum here (deduplicated)."""
        key = (instance.sqn, instance.view)
        if key in self._quorum_seen:
            return
        self._quorum_seen.add(key)
        self.registry.counter("quorums", node=self.node).inc()
        self.tracer.emit(
            self._now(), self.node, QUORUM, None,
            {"sqn": instance.sqn, "view": instance.view, "rids": list(instance.rids)},
        )

    # -- execution -----------------------------------------------------

    def on_exec_scheduled(self, sqn: int, cost: float, batch_size: int) -> None:
        """An execution job for ``sqn`` entered the processor queue."""
        self._exec_pending[sqn] = (self._now(), cost)
        self.registry.histogram("exec_batch_size", node=self.node).observe(batch_size)
        self.registry.histogram("exec_cost", node=self.node).observe(cost)

    def on_execute(self, sqn: int, rid: Rid) -> None:
        """One request of instance ``sqn`` was applied to the state machine."""
        self.tracer.emit(self._now(), self.node, EXECUTE, rid, {"sqn": sqn})

    def on_exec_done(self, sqn: int) -> None:
        """Instance ``sqn`` finished executing (closes the exec span)."""
        begin, cost = self._exec_pending.pop(sqn, (self._now(), 0.0))
        self.tracer.emit(
            self._now(), self.node, EXEC, None,
            {"sqn": sqn, "begin": begin, "cost": cost},
        )

    def on_reply(self, rid: Rid) -> None:
        """A REPLY for ``rid`` left this replica."""
        self.registry.counter("replies", node=self.node).inc()
        self.tracer.emit(self._now(), self.node, REPLY_SENT, rid, None)

    # -- IDEM forwarding ----------------------------------------------

    def on_forward(self, rid: Rid) -> None:
        """This replica forwarded the body of ``rid`` to its peers."""
        self.registry.counter("forwards", node=self.node).inc()
        self.tracer.emit(self._now(), self.node, FORWARD, rid, None)

    def on_adopt(self, rid: Rid) -> None:
        """This replica adopted a forwarded body it had not accepted."""
        self.registry.counter("adopted_forwards", node=self.node).inc()
        self.tracer.emit(self._now(), self.node, ADOPT, rid, None)

    def on_fetch(self, rid: Rid) -> None:
        """This replica asked its peers for a missing body."""
        self.registry.counter("fetches", node=self.node).inc()
        self.tracer.emit(self._now(), self.node, FETCH, rid, None)

    # -- view changes --------------------------------------------------

    def on_vc_start(self, target_view: int) -> None:
        """This replica abandoned its view, targeting ``target_view``."""
        now = self._now()
        if self._vc_started_at is None:
            self._vc_started_at = now
        self.registry.counter("view_changes_started", node=self.node).inc()
        self.tracer.emit(now, self.node, VC_START, None, {"target": target_view})

    def on_newview(self, view: int, entries: int) -> None:
        """This replica (as new leader) sent NEWVIEW for ``view``."""
        self.registry.counter("newviews_sent", node=self.node).inc()
        self.tracer.emit(
            self._now(), self.node, NEWVIEW, None,
            {"view": view, "entries": entries},
        )

    def on_view_installed(self, view: int) -> None:
        """This replica entered ``view`` (closes the view-change span)."""
        now = self._now()
        if self._vc_started_at is not None:
            self.registry.histogram("view_change_duration", node=self.node).observe(
                now - self._vc_started_at
            )
            begin = self._vc_started_at
            self._vc_started_at = None
        else:
            begin = now
        self.registry.counter("views_installed", node=self.node).inc()
        self.tracer.emit(now, self.node, VC_DONE, None, {"view": view, "begin": begin})

    # -- periodic sampling (driven by the hub) -------------------------

    def sample(self, elapsed_interval: float) -> None:
        """Record one periodic sample of this replica's internals."""
        replica = self.replica
        if replica.halted:
            return
        now = self._now()
        processor = replica.processor
        busy_delta = processor.busy_time - self._last_busy_time
        self._last_busy_time = processor.busy_time
        busy_fraction = (
            min(1.0, busy_delta / elapsed_interval) if elapsed_interval > 0 else 0.0
        )
        queue = processor.queue_length
        active = len(getattr(replica, "active", ()))
        backlog = replica.next_sqn - 1 - replica.exec_sqn
        self.registry.gauge("queue_depth", node=self.node).set(queue)
        self.registry.gauge("busy_fraction", node=self.node).set(busy_fraction)
        self.registry.gauge("active_slots", node=self.node).set(active)
        self.registry.gauge("window_backlog", node=self.node).set(backlog)
        self.tracer.emit(
            now, self.node, SAMPLE, None,
            {
                "queue": queue,
                "busy": round(busy_fraction, 4),
                "active": active,
                "backlog": backlog,
            },
        )


class ClientObserver:
    """Observer facade attached to one client as ``client.obs``."""

    def __init__(self, tracer: RequestTracer, registry: MetricsRegistry, client):
        self.tracer = tracer
        self.registry = registry
        self.client = client
        self.node = f"client-{client.cid}"

    def _now(self) -> float:
        return self.client.loop.now

    def on_send(self, rid: Rid, retransmit: bool = False) -> None:
        """The client put a request (or a retransmission) on the wire."""
        kind = CLIENT_RETRANSMIT if retransmit else CLIENT_SEND
        self.registry.counter(
            "client_retransmits" if retransmit else "client_sends", node=self.node
        ).inc()
        self.tracer.emit(self._now(), self.node, kind, rid, None)

    def on_reject_recv(self, rid: Rid, src_index: int) -> None:
        """A REJECT for the pending request arrived from one replica."""
        self.tracer.emit(
            self._now(), self.node, CLIENT_REJECT_RECV, rid, {"from": src_index}
        )

    def on_retry(self, rid: Rid, outcome: str, attempt: int, delay: float) -> None:
        """The resilience policy retries after ``outcome`` of ``attempt``."""
        self.registry.counter(
            "client_retries", node=self.node, outcome=outcome
        ).inc()
        self.tracer.emit(
            self._now(), self.node, CLIENT_RETRY, rid,
            {"outcome": outcome, "attempt": attempt, "delay": delay},
        )

    def on_hedge(self, rid: Rid) -> None:
        """A hedged duplicate of the pending request went on the wire."""
        self.registry.counter("client_hedges", node=self.node).inc()
        self.tracer.emit(self._now(), self.node, CLIENT_HEDGE, rid, None)

    def on_give_up(self, rid: Rid, reason: str) -> None:
        """A retrying policy stopped retrying (cap hit): ``reason`` names
        the binding cap (max-attempts, deadline, budget)."""
        self.registry.counter(
            "client_give_ups", node=self.node, reason=reason
        ).inc()
        self.tracer.emit(
            self._now(), self.node, CLIENT_GIVE_UP, rid, {"reason": reason}
        )

    def on_outcome(self, rid: Rid, outcome: str, latency: float) -> None:
        """The operation finished: ``success``, ``rejected`` or ``timeout``."""
        self.registry.counter("client_outcomes", node=self.node, outcome=outcome).inc()
        self.tracer.emit(
            self._now(), self.node, CLIENT_OUTCOME, rid,
            {"outcome": outcome, "latency": latency},
        )
