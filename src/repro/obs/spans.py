"""Request-lifecycle span events and the per-node observer facades.

Every client request carries its request id ``rid = (cid, onr)`` through
the protocol, which doubles as its *trace id*: the tracer records one
flat, time-ordered stream of :class:`TraceEvent` rows keyed by rid (and
by node for node-scoped events like view changes), from which the
analysis layer reconstructs a causal span tree per request::

    client_send -> recv (per replica) -> accept/reject -> propose
        -> quorum -> exec -> reply_sent -> client_outcome

The observers are pure *observers*: they read ``loop.now`` and protocol
state and append to the tracer, but never schedule events, never draw
randomness and never mutate protocol state.  A run with observers
attached is therefore bit-identical to one without.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

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

    The replica calls these hooks from its protocol code; each hook
    appends one trace row.  When no observer is attached the
    replica's ``if self.obs is not None`` guard is the only cost.
    """

    def __init__(self, tracer: RequestTracer, replica):
        self.tracer = tracer
        self.replica = replica
        self.node = f"replica-{replica.index}"
        # Observer-side bookkeeping (never protocol state).
        self._quorum_seen: set[tuple[int, int]] = set()
        self._exec_pending: dict[int, tuple[float, float]] = {}
        self._vc_started_at: Optional[float] = None

    def _now(self) -> float:
        return self.replica.loop.now

    # -- message handling ---------------------------------------------

    def on_deliver(self, rid: Optional[Rid]) -> None:
        """A message (a client request when ``rid`` is set) reached this
        replica's processor queue."""
        if rid is not None:
            self.tracer.emit(
                self._now(), self.node, RECV, rid,
                {"queue": self.replica.processor.queue_length},
            )

    # -- acceptance / rejection ---------------------------------------

    def on_accept(self, rid: Rid, active_count: int, threshold: Optional[int]) -> None:
        """The acceptance test admitted a fresh client request."""
        self.tracer.emit(
            self._now(), self.node, ACCEPT, rid,
            {"active": active_count, "threshold": threshold},
        )

    def on_reject(
        self, rid: Rid, active_count: int, threshold: Optional[int], reason: str
    ) -> None:
        """The acceptance test rejected a fresh client request."""
        self.tracer.emit(
            self._now(), self.node, REJECT, rid,
            {"active": active_count, "threshold": threshold, "reason": reason},
        )

    # -- ordering ------------------------------------------------------

    def on_propose(self, view: int, sqn: int, rids: tuple[Rid, ...]) -> None:
        """This replica (as leader) proposed a batch at ``sqn``."""
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
        self.tracer.emit(
            self._now(), self.node, QUORUM, None,
            {"sqn": instance.sqn, "view": instance.view, "rids": list(instance.rids)},
        )

    # -- execution -----------------------------------------------------

    def on_exec_scheduled(self, sqn: int, cost: float) -> None:
        """An execution job for ``sqn`` entered the processor queue."""
        self._exec_pending[sqn] = (self._now(), cost)

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
        self.tracer.emit(self._now(), self.node, REPLY_SENT, rid, None)

    # -- IDEM forwarding ----------------------------------------------

    def on_forward(self, rid: Rid) -> None:
        """This replica forwarded the body of ``rid`` to its peers."""
        self.tracer.emit(self._now(), self.node, FORWARD, rid, None)

    def on_adopt(self, rid: Rid) -> None:
        """This replica adopted a forwarded body it had not accepted."""
        self.tracer.emit(self._now(), self.node, ADOPT, rid, None)

    def on_fetch(self, rid: Rid) -> None:
        """This replica asked its peers for a missing body."""
        self.tracer.emit(self._now(), self.node, FETCH, rid, None)

    # -- view changes --------------------------------------------------

    def on_vc_start(self, target_view: int) -> None:
        """This replica abandoned its view, targeting ``target_view``."""
        now = self._now()
        if self._vc_started_at is None:
            self._vc_started_at = now
        self.tracer.emit(now, self.node, VC_START, None, {"target": target_view})

    def on_newview(self, view: int, entries: int) -> None:
        """This replica (as new leader) sent NEWVIEW for ``view``."""
        self.tracer.emit(
            self._now(), self.node, NEWVIEW, None,
            {"view": view, "entries": entries},
        )

    def on_view_installed(self, view: int) -> None:
        """This replica entered ``view`` (closes the view-change span)."""
        now = self._now()
        # ``begin == time`` marks a view this replica entered without
        # having started a view change itself.
        begin = now if self._vc_started_at is None else self._vc_started_at
        self._vc_started_at = None
        self.tracer.emit(now, self.node, VC_DONE, None, {"view": view, "begin": begin})


class ClientObserver:
    """Observer facade attached to one client as ``client.obs``."""

    def __init__(self, tracer: RequestTracer, client):
        self.tracer = tracer
        self.client = client
        self.node = f"client-{client.cid}"

    def _now(self) -> float:
        return self.client.loop.now

    def on_send(self, rid: Rid, retransmit: bool = False) -> None:
        """The client put a request (or a retransmission) on the wire."""
        kind = CLIENT_RETRANSMIT if retransmit else CLIENT_SEND
        self.tracer.emit(self._now(), self.node, kind, rid, None)

    def on_reject_recv(self, rid: Rid, src_index: int) -> None:
        """A REJECT for the pending request arrived from one replica."""
        self.tracer.emit(
            self._now(), self.node, CLIENT_REJECT_RECV, rid, {"from": src_index}
        )

    def on_retry(self, rid: Rid, outcome: str, attempt: int, delay: float) -> None:
        """The resilience policy retries after ``outcome`` of ``attempt``."""
        self.tracer.emit(
            self._now(), self.node, CLIENT_RETRY, rid,
            {"outcome": outcome, "attempt": attempt, "delay": delay},
        )

    def on_hedge(self, rid: Rid) -> None:
        """A hedged duplicate of the pending request went on the wire."""
        self.tracer.emit(self._now(), self.node, CLIENT_HEDGE, rid, None)

    def on_give_up(self, rid: Rid, reason: str) -> None:
        """A retrying policy stopped retrying (cap hit): ``reason`` names
        the binding cap (max-attempts, deadline, budget)."""
        self.tracer.emit(
            self._now(), self.node, CLIENT_GIVE_UP, rid, {"reason": reason}
        )

    def on_outcome(self, rid: Rid, outcome: str, latency: float) -> None:
        """The operation finished: ``success``, ``rejected`` or ``timeout``."""
        self.tracer.emit(
            self._now(), self.node, CLIENT_OUTCOME, rid,
            {"outcome": outcome, "latency": latency},
        )
