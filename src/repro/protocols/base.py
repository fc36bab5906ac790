"""Shared replica and client plumbing for all protocols.

Every protocol in this repository (IDEM, Paxos, Paxos_LBR, BFT-SMaRt) is
a leader-based, two-phase agreement protocol for ``n = 2f + 1`` replicas
that differs in *how requests reach the ordering stage* and *who answers
clients*.  :class:`BaseReplica` implements everything they share:

* message delivery through a serial CPU station (the queueing model),
* the consensus window with PROPOSE/COMMIT quorums (a proposal counts as
  the leader's commit, so a commit quorum is ``f + 1`` including it),
* strictly ordered execution with duplicate suppression,
* periodic checkpoints and state transfer for lagging replicas,
* the view-change protocol (progress timer, VIEWCHANGE / NEWVIEW /
  NEWVIEWACK, window merging by highest view).

Protocol-specific behaviour is provided through hook methods documented
on the class.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.app.state_machine import StateMachine
from repro.net.addresses import Address, client_address, replica_address
from repro.net.message import Message
from repro.net.network import Network, NetworkNode
from repro.protocols.config import ProtocolConfig
from repro.protocols.messages import (
    CheckpointRequest,
    CheckpointTransfer,
    Commit,
    Decided,
    NewView,
    NewViewAck,
    ProposalRequest,
    Propose,
    ProposeFull,
    Reply,
    Request,
    RequireBatch,
    Rid,
    ViewChange,
    WindowEntry,
)
from repro.sim.loop import EventLoop
from repro.sim.processor import Processor
from repro.sim.rng import RngRegistry
from repro.sim.timers import RestartableTimer, Timer


def _noop() -> None:
    """Placeholder job body used when charging pure CPU time."""


# How many executed instances a single ProposalRequest may recover.
_DECIDED_BATCH = 16


class Instance:
    """One consensus instance: a batch of requests at a sequence number."""

    __slots__ = ("sqn", "view", "rids", "commits", "executed", "decided", "bodies")

    def __init__(self, sqn: int, view: int, rids: tuple[Rid, ...]):
        self.sqn = sqn
        self.view = view
        self.rids = rids
        self.commits: set[int] = set()
        self.executed = False
        # Adopted from a Decided (learn) message: final by construction.
        self.decided = False
        # Full request bodies, for protocols that carry them in proposals.
        self.bodies: Optional[dict[Rid, Request]] = None

    def committed(self, quorum: int) -> bool:
        """Whether enough replicas endorse this instance."""
        return self.decided or len(self.commits) >= quorum

    def requests(self) -> Optional[tuple[Request, ...]]:
        """The bodies held, in proposal order; None for id-only instances."""
        if self.bodies is None:
            return None
        return tuple(self.bodies[rid] for rid in self.rids if rid in self.bodies)


class BaseReplica(NetworkNode):
    """Common machinery of a crash-tolerant leader-based SMR replica.

    Subclasses override:

    * :meth:`_on_request` — client request admission (acceptance test,
      forwarding to the leader, ...).
    * the three questions of the one proposing loop
      (:meth:`_flush_proposals`): :meth:`_may_propose` (default: the
      leader, outside a view change), :meth:`_claim_slot` (default:
      ``next_sqn``) and :meth:`_propose_batch` (what goes on the wire —
      default: full requests, kept in ``instance.bodies``).
    * :meth:`_on_propose_full` / :meth:`_resend_proposal` — receiving
      and repeating such a proposal; id-based protocols replace them.
    * :meth:`_resolve_bodies` — locate the request bodies of an instance
      about to execute (return ``None`` if some are missing and recovery
      has been initiated).
    * :meth:`_on_executed` — per-request completion (replies, slots).
    * :meth:`_after_view_installed` — protocol-specific view-change
      recovery actions (:meth:`_lost_in_view_change` names what the
      merged window dropped).
    """

    def __init__(
        self,
        index: int,
        loop: EventLoop,
        network: Network,
        config: ProtocolConfig,
        state_machine: StateMachine,
        rng: RngRegistry,
    ):
        self.index = index
        self.loop = loop
        self.network = network
        self.config = config
        self.app = state_machine
        self.rng = rng
        self.address = replica_address(index)
        self.peers = [
            replica_address(i) for i in range(config.n) if i != index
        ]
        self.processor = Processor(
            loop,
            name=f"replica-{index}",
            jitter_sigma=config.cpu_jitter_sigma,
            jitter_rng=rng.stream(f"replica.{index}.cpu"),
        )
        self.halted = False
        # Which life of this replica index we are: bumped by
        # Cluster.recover_replica when a crashed replica rejoins with
        # fresh volatile state.  Safety checkers key per-incarnation
        # facts (execution order) by (index, incarnation).
        self.incarnation = 0
        # Optional observer called as (replica, sqn, rid) for every
        # request this replica executes (chaos/safety checking).
        self.exec_observer: Optional[Callable[["BaseReplica", int, Rid], None]] = None
        # Optional observability facade (repro.obs.ReplicaObserver).
        # Observer-only: hooks read state but never influence the run.
        self.obs: Optional[Any] = None

        # View state.
        self.view = 0
        self._vc_target: Optional[int] = None
        self._vc_msgs: dict[int, dict[int, ViewChange]] = {}
        self._progress_timer = RestartableTimer(
            loop, config.view_change_timeout, self._on_progress_timeout
        )

        # Agreement state.
        self.instances: dict[int, Instance] = {}
        self._unexecuted: set[int] = set()
        self._pending_commits: dict[tuple[int, int], set[int]] = {}
        self.next_sqn = 1  # leader: next sequence number to assign
        self.exec_sqn = 0  # highest executed sequence number
        self.window_start = 1
        self._exec_scheduled = False

        # Proposal batching (leader side).
        self._propose_queue: list[Any] = []
        self._batch_timer = Timer(loop, self._flush_proposals)

        # Execution bookkeeping.
        self.executed_onr: dict[int, int] = {}
        self.last_reply: dict[int, Reply] = {}
        # Rolling digest of the execution order; equal digests at equal
        # exec_sqn prove two replicas executed the same request sequence
        # (used by the safety test suite).
        self.exec_order_digest = 0

        # Checkpointing / state transfer.
        self._checkpoint: Optional[tuple[int, Any, dict[int, int]]] = None
        self._transfer_requested_at: float = -1.0
        # Proposal recovery over fair-loss links (rate limited per sqn).
        self._proposal_requested_at: dict[int, float] = {}

        # Statistics for experiment reports.
        self.stats: dict[str, int] = {
            "requests_seen": 0,
            "accepted": 0,
            "rejected": 0,
            "executed": 0,
            "proposals": 0,
            "view_changes": 0,
            "forwards": 0,
            "fetches": 0,
            "checkpoints": 0,
            "state_transfers": 0,
            "replies_sent": 0,
        }

        self._handlers: dict[type, Callable[[Address, Any], None]] = {
            Request: self._on_request,
            Commit: self._on_commit,
            ProposeFull: self._on_propose_full,
            Decided: self._on_decided,
            ProposalRequest: self._on_proposal_request,
            ViewChange: self._on_viewchange_msg,
            NewView: self._on_newview,
            NewViewAck: self._on_newviewack,
            CheckpointRequest: self._on_checkpoint_request,
            CheckpointTransfer: self._on_checkpoint_transfer,
        }

    # ------------------------------------------------------------------
    # Roles and plumbing
    # ------------------------------------------------------------------

    def leader_of(self, view: int) -> int:
        """The replica index leading ``view`` (round-robin, as in the paper)."""
        return self.config.leader_of(view)

    def _proposer_of(self, view: int, sqn: int) -> int:
        """Which replica's proposal counts as the commit for ``sqn``.

        Single-leader protocols: the view's leader.  Multi-leader
        variants override this with slot ownership.
        """
        return self.leader_of(view)

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads its current view."""
        return self.leader_of(self.view) == self.index

    @property
    def leader_address(self) -> Address:
        """Address of the current view's leader."""
        return replica_address(self.leader_of(self.view))

    # -- introspection (repro.obs probe layer) -------------------------

    def _probe_timers(self) -> tuple:
        """The replica's protocol timers, for the timer-population probe.

        Subclasses with extra timers extend the tuple.
        """
        return (self._progress_timer, self._batch_timer)

    def probe_state(self) -> dict[str, float]:
        """Flat snapshot of protocol internals for the probe layer.

        Read-only by contract (``repro.obs.probes``): values
        are plain floats, computing them must not touch any state.
        Subclasses extend the dict with their admission bookkeeping
        (``active_slots``, ``admission_threshold``).
        """
        stats = self.stats
        return {
            "queue_depth": float(self.processor.queue_length),
            "busy_time": float(self.processor.busy_time),
            "inflight_rounds": float(len(self._unexecuted)),
            "window_backlog": float(self.next_sqn - 1 - self.exec_sqn),
            "executed_total": float(stats["executed"]),
            "accepted_total": float(stats["accepted"]),
            "rejected_total": float(stats["rejected"]),
            "view": float(self.view),
            "timers_running": float(
                sum(1 for timer in self._probe_timers() if timer.running)
            ),
        }

    def crash(self) -> None:
        """Crash this replica: no more processing, sending or receiving."""
        self.halted = True
        self.processor.halt()
        self.network.crash(self.address)
        self._progress_timer.stop()
        self._batch_timer.cancel()

    def bootstrap(self) -> None:
        """Probe the group's state after joining with empty volatile state.

        A recovered replica knows nothing, so it asks every peer for the
        first instance it is missing.  Peers answer with DECIDED batches
        while the instance is still retained, or push a checkpoint when
        the newcomer is behind the window — the same catch-up paths a
        lagging live replica uses.
        """
        for peer in self.peers:
            self.send(peer, ProposalRequest(self.exec_sqn + 1))
        self._progress_timer.start()

    def deliver(self, src: Address, message: Message) -> None:
        if self.halted:
            return
        cost = self._receive_cost(message)
        if self.obs is not None:
            rid = message.rid if type(message) is Request else None
            self.obs.on_deliver(rid)
        self.processor.submit(cost, self._dispatch, src, message)

    def _receive_cost(self, message: Message) -> float:
        config = self.config
        mtype = type(message)
        byte_cost = config.cost_per_byte * message.size_bytes()
        if mtype is Request:
            return config.cost_client_request + byte_cost
        if mtype is RequireBatch or mtype is Propose:
            return config.cost_message + config.cost_per_id * len(message.rids)
        if mtype is ProposeFull:
            return (
                config.cost_message
                + 2 * config.cost_per_id * len(message.requests)
                + byte_cost
            )
        if mtype is CheckpointTransfer:
            return config.cost_message + config.checkpoint_cost + byte_cost
        return config.cost_message + byte_cost

    def _dispatch(self, src: Address, message: Message) -> None:
        if self.halted:
            return
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(src, message)

    def charge(self, cost: float) -> None:
        """Occupy this replica's CPU for ``cost`` seconds."""
        if cost > 0:
            self.processor.submit(cost, _noop)

    def send(self, dst: Address, message: Message) -> None:
        """Send one message, charging per-send and per-byte CPU costs."""
        config = self.config
        self.charge(config.cost_send + config.cost_per_byte * message.size_bytes())
        self.network.send(self.address, dst, message)

    def multicast_peers(self, message: Message) -> None:
        """Send ``message`` to every other replica."""
        config = self.config
        fanout = len(self.peers)
        self.charge(
            fanout * (config.cost_send + config.cost_per_byte * message.size_bytes())
        )
        for peer in self.peers:
            self.network.send(self.address, peer, message)

    # ------------------------------------------------------------------
    # Client requests (protocol specific)
    # ------------------------------------------------------------------

    def _on_request(self, src: Address, message: Request) -> None:
        raise NotImplementedError

    def _maybe_resend_reply(self, src: Address, rid: Rid) -> bool:
        """If ``rid`` is an already-executed duplicate, re-answer it.

        Returns True when the request was handled as a duplicate.
        """
        cid, onr = rid
        if self.executed_onr.get(cid, 0) < onr:
            return False
        cached = self.last_reply.get(cid)
        if cached is not None and cached.rid == rid:
            self.send(client_address(cid), cached)
        return True

    # ------------------------------------------------------------------
    # Proposing (leader side)
    # ------------------------------------------------------------------

    def _queue_proposal(self, item: Any) -> None:
        """Add work to the leader's batch and schedule a flush."""
        self._propose_queue.append(item)
        if len(self._propose_queue) >= self.config.batch_max:
            self._batch_timer.cancel()
            self._flush_proposals()
        elif not self._batch_timer.running:
            self._batch_timer.start(self.config.batch_delay)

    def _flush_proposals(self) -> None:
        """Turn queued work into proposals, one ``batch_max`` slice each."""
        if self.halted or not self._may_propose():
            return
        config = self.config
        while self._propose_queue and self._window_has_room():
            batch = tuple(self._propose_queue[: config.batch_max])
            del self._propose_queue[: len(batch)]
            sqn = self._claim_slot()
            instance, message = self._propose_batch(sqn, batch)
            if self.obs is not None:
                self.obs.on_propose(self.view, sqn, instance.rids)
            self.multicast_peers(message)
            self.stats["proposals"] += 1
        if self._propose_queue and not self._batch_timer.running:
            # Window backpressure: retry once the window advances.
            self._batch_timer.start(config.batch_delay)
        if not self._progress_timer.running:
            self._progress_timer.start()

    def _may_propose(self) -> bool:
        """Hook: may this replica open instances right now?"""
        return self._vc_target is None and self.is_leader

    def _claim_slot(self) -> int:
        """Hook: take the sequence number of the next proposal."""
        sqn = self.next_sqn
        self.next_sqn = sqn + 1
        return sqn

    def _propose_batch(self, sqn: int, batch: tuple) -> tuple[Instance, Message]:
        """Hook: open instance ``sqn`` for ``batch``; what goes on the wire.

        Default: the queue holds full requests; they travel inside the
        proposal and stay in ``instance.bodies``.  IDEM proposes ids.
        """
        rids = tuple(request.rid for request in batch)
        instance = self._open_instance(sqn, self.view, rids)
        instance.bodies = {request.rid: request for request in batch}
        return instance, ProposeFull(self.view, sqn, batch)

    def _window_has_room(self) -> bool:
        """Backpressure: may the leader open another instance?

        Bounded by the execution head so a leader cannot run unboundedly
        ahead of what the group has executed.
        """
        return self.next_sqn - self.exec_sqn <= self.config.window_size

    def _open_instance(self, sqn: int, view: int, rids: tuple[Rid, ...]) -> Instance:
        """Create an instance with our own endorsement recorded."""
        instance = Instance(sqn, view, rids)
        instance.commits.add(self._proposer_of(view, sqn))  # proposal = commit
        instance.commits.add(self.index)
        pending = self._pending_commits.pop((view, sqn), None)
        if pending:
            instance.commits.update(pending)
        self.instances[sqn] = instance
        self._unexecuted.add(sqn)
        return instance

    # ------------------------------------------------------------------
    # Commit phase
    # ------------------------------------------------------------------

    def _accept_proposal(self, view: int, sqn: int, rids: tuple[Rid, ...]) -> Optional[Instance]:
        """Common handling for an incoming PROPOSE; returns the instance.

        Returns ``None`` when the proposal is stale (old view, already
        executed, or below the window).
        """
        if view < self.view or self._vc_target is not None and view < self._vc_target:
            return None
        if view > self.view:
            # We missed a view change; adopt the newer view.
            self._enter_view(view)
        if sqn <= self.exec_sqn:
            return None
        existing = self.instances.get(sqn)
        if existing is not None and existing.view >= view:
            return None
        instance = self._open_instance(sqn, view, rids)
        if self.index != self._proposer_of(view, sqn):
            self.multicast_peers(Commit(view, sqn))
        if sqn >= self.next_sqn:
            self.next_sqn = sqn + 1
        self._check_lag(sqn)
        self._advance_window(sqn)
        if not self._progress_timer.running:
            self._progress_timer.start()
        if instance.committed(self.config.quorum):
            if self.obs is not None:
                self.obs.on_quorum(instance)
            self._try_execute()
        return instance

    def _on_propose_full(self, src: Address, message: ProposeFull) -> Optional[Instance]:
        """A full-request proposal; returns the instance if it was adopted."""
        rids = tuple(request.rid for request in message.requests)
        instance = self._accept_proposal(message.view, message.sqn, rids)
        if instance is not None:
            instance.bodies = {request.rid: request for request in message.requests}
            self._try_execute()
        return instance

    def _on_commit(self, src: Address, message: Commit) -> None:
        if message.view < self.view:
            return
        if self._vc_target is not None and message.view < self._vc_target:
            return  # we abandoned this view (Section 4.5)
        instance = self.instances.get(message.sqn)
        if instance is None or instance.view != message.view:
            key = (message.view, message.sqn)
            self._pending_commits.setdefault(key, set()).add(src.index)
            self._check_lag(message.sqn)
            self._maybe_recover_proposal(message.sqn, src)
            return
        if instance.executed:
            return
        instance.commits.add(src.index)
        self._advance_window(message.sqn)
        if instance.committed(self.config.quorum):
            if self.obs is not None:
                self.obs.on_quorum(instance)
            self._try_execute()

    # ------------------------------------------------------------------
    # Ordered execution
    # ------------------------------------------------------------------

    def _resolve_bodies(self, instance: Instance) -> Optional[list[tuple[Rid, Request]]]:
        """Return the request bodies of ``instance`` in order, or None.

        ``None`` means "not yet" — execution is retried when more
        messages arrive.  Full-request protocols receive their bodies
        inside the proposal; until that proposal is processed the
        instance must not execute.  IDEM overrides this with its
        store/cache/fetch lookup.
        """
        if instance.bodies is None:
            return None
        bodies: list[tuple[Rid, Request]] = []
        for rid in instance.rids:
            request = instance.bodies.get(rid)
            if request is None:
                cid, onr = rid
                if self.executed_onr.get(cid, 0) >= onr:
                    continue  # duplicate of an executed request
                return None
            bodies.append((rid, request))
        return bodies

    def _try_execute(self) -> None:
        if self._exec_scheduled or self.halted:
            return
        instance = self.instances.get(self.exec_sqn + 1)
        if instance is None:
            if self.next_sqn > self.exec_sqn + 1:
                # Later instances exist but the next needed one is
                # missing: ask the peers instead of waiting for a timeout.
                self._maybe_recover_proposal(self.exec_sqn + 1)
            return
        if instance.executed:
            return
        if not instance.committed(self.config.quorum):
            return
        bodies = self._resolve_bodies(instance)
        if bodies is None:
            return
        cost = self.config.cost_execution_overhead + sum(
            self.app.execution_cost(request.command) for _, request in bodies
        )
        self._exec_scheduled = True
        if self.obs is not None:
            self.obs.on_exec_scheduled(instance.sqn, cost)
        self.processor.submit(cost, self._apply_instance, instance, bodies)

    def _apply_instance(
        self, instance: Instance, bodies: list[tuple[Rid, Request]]
    ) -> None:
        self._exec_scheduled = False
        if self.halted or instance.executed:
            return
        if instance.sqn != self.exec_sqn + 1:
            # A state transfer moved us past this instance while the
            # execution job was queued.
            self._try_execute()
            return
        for rid, request in bodies:
            cid, onr = rid
            if self.executed_onr.get(cid, 0) >= onr:
                continue  # duplicate of an already executed request
            result = self.app.apply(request.command)
            self.executed_onr[cid] = onr
            self.exec_order_digest = hash((self.exec_order_digest, rid))
            self.stats["executed"] += 1
            if self.exec_observer is not None:
                self.exec_observer(self, instance.sqn, rid)
            if self.obs is not None:
                self.obs.on_execute(instance.sqn, rid)
            self._on_executed(rid, request, result)
        if self.obs is not None:
            self.obs.on_exec_done(instance.sqn)
        instance.executed = True
        self._unexecuted.discard(instance.sqn)
        self.exec_sqn = instance.sqn
        if instance.sqn % self.config.checkpoint_interval == 0:
            self._take_checkpoint(instance.sqn)
        self._gc_after_execute(instance.sqn)
        self._note_progress()
        self._try_execute()

    def _on_executed(self, rid: Rid, request: Request, result: Any) -> None:
        raise NotImplementedError

    def _record_reply(self, rid: Rid, result: Any) -> Reply:
        """Build and cache the REPLY for an executed request.

        Every replica caches replies (it executes every request anyway)
        so that any replica can answer a client retransmission — without
        this, a leader that crashes between executing and replying would
        leave the client stuck until its timeout.
        """
        reply = Reply(rid, result.ok, result.reply_bytes, self.view)
        self.last_reply[rid[0]] = reply
        return reply

    def _reply_to_client(self, rid: Rid, result: Any) -> None:
        """Cache and actively send the REPLY for an executed request."""
        reply = self._record_reply(rid, result)
        self.stats["replies_sent"] += 1
        if self.obs is not None:
            self.obs.on_reply(rid)
        self.send(client_address(rid[0]), reply)

    def _note_progress(self) -> None:
        """Execution progressed: restart or stop the view-change timer."""
        if self._has_outstanding_work():
            self._progress_timer.restart()
        else:
            self._progress_timer.stop()

    def _has_outstanding_work(self) -> bool:
        """Whether unexecuted agreed-on work exists (keeps the timer armed)."""
        return bool(self._unexecuted)

    # ------------------------------------------------------------------
    # Window management, checkpoints, state transfer
    # ------------------------------------------------------------------

    def _advance_window(self, observed_sqn: int) -> None:
        """Hook: IDEM overrides this with implicit garbage collection."""

    def _gc_after_execute(self, sqn: int) -> None:
        """Drop instances that have fallen out of the window."""
        old = sqn - self.config.window_size
        if old in self.instances:
            del self.instances[old]
            self._unexecuted.discard(old)
        if old >= self.window_start:
            self.window_start = old + 1

    def _take_checkpoint(self, sqn: int) -> None:
        self.charge(self.config.checkpoint_cost)
        self._checkpoint = (sqn, self.app.snapshot(), dict(self.executed_onr))
        self.stats["checkpoints"] += 1
        # Opportunistic cleanup of stale recovery bookkeeping.
        self._pending_commits = {
            key: value
            for key, value in self._pending_commits.items()
            if key[1] > self.exec_sqn and key[0] >= self.view
        }

    def _maybe_recover_proposal(self, sqn: int, src: Optional[Address] = None) -> None:
        """Ask ``src`` (default: every peer) to repeat a missed proposal (rate limited)."""
        if sqn <= self.exec_sqn:
            return
        now = self.loop.now
        if now - self._proposal_requested_at.get(sqn, -1.0) < 0.005:
            return
        if len(self._proposal_requested_at) > 512:
            self._proposal_requested_at = {
                s: t for s, t in self._proposal_requested_at.items()
                if s > self.exec_sqn
            }
        self._proposal_requested_at[sqn] = now
        for dst in self.peers if src is None else (src,):
            self.send(dst, ProposalRequest(sqn))

    def _on_proposal_request(self, src: Address, message: ProposalRequest) -> None:
        instance = self.instances.get(message.sqn)
        if instance is not None:
            if instance.executed:
                # Bulk catch-up: ship this and the following executed
                # instances so a lagging replica recovers in one round
                # trip instead of one instance per timeout.
                last = min(self.exec_sqn, message.sqn + _DECIDED_BATCH - 1)
                for sqn in range(message.sqn, last + 1):
                    batch_instance = self.instances.get(sqn)
                    if batch_instance is None or not batch_instance.executed:
                        break
                    self._send_decided(src, batch_instance)
            else:
                self._resend_proposal(src, instance)
        elif self.exec_sqn >= message.sqn:
            # We executed and discarded that instance: the requester is
            # too far behind for replay and needs a checkpoint.
            self._on_checkpoint_request(src, CheckpointRequest(message.sqn - 1))

    def _send_decided(self, dst: Address, instance: Instance) -> None:
        self.send(dst, Decided(instance.sqn, instance.rids, instance.requests()))

    def _on_decided(self, src: Address, message: Decided) -> None:
        if message.sqn <= self.exec_sqn:
            return
        instance = self.instances.get(message.sqn)
        if instance is None or not (instance.decided or instance.executed):
            instance = Instance(message.sqn, self.view, message.rids)
            instance.decided = True
            self.instances[message.sqn] = instance
            self._unexecuted.add(message.sqn)
            if message.sqn >= self.next_sqn:
                self.next_sqn = message.sqn + 1
        if message.requests is not None:
            bodies = instance.bodies or {}
            for request in message.requests:
                bodies[request.rid] = request
            instance.bodies = bodies
        if self.obs is not None:
            self.obs.on_quorum(instance)
        self._try_execute()
        # Receiving decided instances is progress: postpone suspecting
        # the leader while catch-up is flowing, and immediately ask for
        # the next missing instance (rate limited) instead of waiting
        # for another timeout.
        if self._has_outstanding_work():
            self._progress_timer.restart()
        following = self.instances.get(self.exec_sqn + 1)
        if following is None or not following.committed(self.config.quorum):
            self._maybe_recover_proposal(self.exec_sqn + 1, src)

    def _resend_proposal(self, dst: Address, instance: Instance) -> None:
        """Repeat a proposal towards a replica that missed it."""
        requests = instance.requests()
        if requests is not None:
            self.send(dst, ProposeFull(instance.view, instance.sqn, requests))

    def _lag_threshold(self) -> int:
        """How far behind an observed sqn may be before state transfer."""
        return self.config.window_size

    def _check_lag(self, observed_sqn: int) -> None:
        """Request state transfer when hopelessly behind the group."""
        if observed_sqn <= self.exec_sqn + self._lag_threshold():
            return
        now = self.loop.now
        if now - self._transfer_requested_at < 0.1:
            return  # a transfer request is already in flight
        # Ask whoever proposed the observed slot (the leader, or in a
        # multi-leader fast mode the slot's owner) — never ourselves.
        proposer = self._proposer_of(self.view, observed_sqn)
        if proposer == self.index:
            return
        self._transfer_requested_at = now
        self.send(replica_address(proposer), CheckpointRequest(self.exec_sqn))

    def _on_checkpoint_request(self, src: Address, message: CheckpointRequest) -> None:
        if self._checkpoint is None or self._checkpoint[0] <= message.known_sqn:
            # Take a fresh checkpoint at our execution head to help.
            self._take_checkpoint(self.exec_sqn)
        sqn, snapshot, executed_onr = self._checkpoint
        if sqn <= message.known_sqn:
            return
        transfer = CheckpointTransfer(
            sqn, snapshot, dict(executed_onr), self.app.snapshot_bytes()
        )
        self.send(src, transfer)

    def _on_checkpoint_transfer(self, src: Address, message: CheckpointTransfer) -> None:
        if message.sqn <= self.exec_sqn:
            return
        self.app.restore(message.snapshot)
        self.executed_onr = dict(message.executed_onr)
        self.exec_sqn = message.sqn
        self.window_start = max(self.window_start, message.sqn + 1)
        for sqn in [s for s in self.instances if s <= message.sqn]:
            del self.instances[sqn]
            self._unexecuted.discard(sqn)
        self.stats["state_transfers"] += 1
        self._after_state_transfer()
        self._try_execute()

    def _after_state_transfer(self) -> None:
        """Hook: protocol-specific cleanup after adopting a checkpoint."""

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------

    def _on_progress_timeout(self) -> None:
        if self.halted:
            return
        if not self._has_outstanding_work() and self._vc_target is None:
            return
        # Before (and alongside) suspecting the leader, probe for the
        # next instance we are missing: if the group is healthy and we
        # merely lag (lost messages), a peer resends the proposal or a
        # checkpoint and no view change is needed at the others.
        next_sqn = self.exec_sqn + 1
        instance = self.instances.get(next_sqn)
        if instance is None or not instance.committed(self.config.quorum):
            for peer in self.peers:
                self.send(peer, ProposalRequest(next_sqn))
        target = (self._vc_target if self._vc_target is not None else self.view) + 1
        self._start_view_change(target)

    def _start_view_change(self, target_view: int) -> None:
        if target_view <= self.view:
            return
        if self._vc_target is not None and target_view <= self._vc_target:
            return
        self._vc_target = target_view
        self.stats["view_changes"] += 1
        if self.obs is not None:
            self.obs.on_vc_start(target_view)
        # Carry ALL retained instances, executed ones included: any slot
        # that might have committed anywhere has, by quorum
        # intersection, an entry in at least one of the f+1 VIEWCHANGE
        # messages the new leader merges — which is what makes no-op
        # gap filling safe (see _maybe_activate_view).
        entries = tuple(
            self._make_window_entry(instance)
            for instance in self.instances.values()
        )
        message = ViewChange(target_view, entries)
        self._vc_msgs.setdefault(target_view, {})[self.index] = message
        self.multicast_peers(message)
        # Safeguard: if this view change stalls, escalate further.
        self._progress_timer.start()
        self._maybe_activate_view(target_view)

    def _on_viewchange_msg(self, src: Address, message: ViewChange) -> None:
        target = message.target_view
        if target <= self.view:
            return
        self._vc_msgs.setdefault(target, {})[src.index] = message
        others = [idx for idx in self._vc_msgs[target] if idx != self.index]
        if len(others) >= self.config.f and (
            self._vc_target is None or target > self._vc_target
        ):
            # Enough peers abandoned their view: join the view change.
            self._start_view_change(target)
        self._maybe_activate_view(target)

    def _maybe_activate_view(self, target_view: int) -> None:
        if self.leader_of(target_view) != self.index:
            return
        if target_view <= self.view:
            return
        messages = self._vc_msgs.get(target_view, {})
        if self.index not in messages or len(messages) < self.config.quorum:
            return
        # Merge windows: for each sequence number keep the entry from the
        # highest view (standard Paxos-style recovery).
        merged: dict[int, WindowEntry] = {}
        for message in messages.values():
            for entry in message.entries:
                current = merged.get(entry.sqn)
                if current is None or entry.view > current.view:
                    merged[entry.sqn] = entry
        self._enter_view(target_view)
        relevant = [entry for entry in sorted(merged.values(), key=lambda e: e.sqn)
                    if entry.sqn > self.exec_sqn]
        if relevant:
            # Fill ownership/transmission gaps with no-ops: a slot no
            # member of the quorum has any trace of cannot have been
            # committed anywhere (quorum intersection), so deciding it
            # empty is safe — and it is what restores a contiguous,
            # executable sequence after a slot owner died mid-stream.
            covered = {entry.sqn for entry in relevant}
            top = max(covered)
            for sqn in range(self.exec_sqn + 1, top):
                if sqn not in covered and sqn not in self.instances:
                    relevant.append(WindowEntry(sqn, 0, ()))
            relevant.sort(key=lambda entry: entry.sqn)
        next_sqn = max(
            [self.next_sqn] + [entry.sqn + 1 for entry in relevant]
        )
        self.next_sqn = next_sqn
        for entry in relevant:
            self._install_entry(entry, target_view)
        if self.obs is not None:
            self.obs.on_newview(target_view, len(relevant))
        self.multicast_peers(NewView(target_view, tuple(relevant), next_sqn))
        self._after_view_installed()
        self._try_execute()

    def _on_newview(self, src: Address, message: NewView) -> None:
        if message.view <= self.view or src.index != self.leader_of(message.view):
            return
        self._enter_view(message.view)
        self.next_sqn = max(self.next_sqn, message.next_sqn)
        sqns = []
        for entry in message.entries:
            if entry.sqn <= self.exec_sqn:
                continue
            self._install_entry(entry, message.view)
            sqns.append(entry.sqn)
        if sqns:
            self.multicast_peers(NewViewAck(message.view, tuple(sqns)))
        self._after_view_installed()
        self._try_execute()

    def _on_newviewack(self, src: Address, message: NewViewAck) -> None:
        if message.view != self.view:
            return
        for sqn in message.sqns:
            instance = self.instances.get(sqn)
            if instance is None or instance.executed:
                continue
            instance.commits.add(src.index)
            if self.obs is not None and instance.committed(self.config.quorum):
                self.obs.on_quorum(instance)
        self._try_execute()

    def _enter_view(self, view: int) -> None:
        """Adopt ``view``: reset view-change state and timers."""
        self.view = view
        self._vc_target = None
        if self.obs is not None:
            self.obs.on_view_installed(view)
        for target in [t for t in self._vc_msgs if t <= view]:
            del self._vc_msgs[target]
        self._batch_timer.cancel()
        self._propose_queue.clear()
        if self._has_outstanding_work():
            self._progress_timer.start()
        else:
            self._progress_timer.stop()

    def _make_window_entry(self, instance: Instance) -> WindowEntry:
        """What a VIEWCHANGE message carries for one instance."""
        return WindowEntry(
            instance.sqn, instance.view, instance.rids, instance.requests()
        )

    def _install_entry(self, entry: WindowEntry, view: int) -> None:
        """Re-open an instance from a view-change entry in ``view``."""
        instance = self.instances.get(entry.sqn)
        if instance is not None and instance.executed:
            return
        new_instance = Instance(entry.sqn, view, entry.rids)
        new_instance.commits.add(self.leader_of(view))  # re-proposals are
        new_instance.commits.add(self.index)  # always led by the view leader
        if entry.requests is not None:
            new_instance.bodies = {req.rid: req for req in entry.requests}
        elif instance is not None and instance.bodies is not None:
            new_instance.bodies = instance.bodies
        self.instances[entry.sqn] = new_instance
        self._unexecuted.add(entry.sqn)
        if entry.sqn >= self.next_sqn:
            self.next_sqn = entry.sqn + 1

    def _after_view_installed(self) -> None:
        """Hook: protocol-specific actions once a new view is running."""

    def _unexecuted_rids(self) -> dict[Rid, int]:
        """Every id the window still has to execute, with its slot."""
        return {
            rid: sqn
            for sqn, instance in self.instances.items()
            if not instance.executed
            for rid in instance.rids
        }

    def _lost_in_view_change(self, held: dict[Rid, Request]) -> list[Request]:
        """Requests of ``held`` the new view neither re-proposed nor executed."""
        reproposed = self._unexecuted_rids()
        return [
            request
            for rid, request in held.items()
            if rid not in reproposed and self.executed_onr.get(rid[0], 0) < rid[1]
        ]
