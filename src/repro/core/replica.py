"""The IDEM replica (paper Sections 4 and 5).

Request flow:

1. A client multicasts its REQUEST to all replicas.
2. Each replica runs its local acceptance test.  Rejection sends an
   immediate REJECT to the client and caches the body; acceptance stores
   the request, occupies an *active slot* and sends the id to the leader
   in a (batched) REQUIRE.
3. The leader proposes an id once ``f + 1`` replicas required it, in
   id-based batches (PROPOSE).  Replicas COMMIT to everyone; an instance
   is committed with ``f + 1`` endorsements, the leader's proposal
   counting as one.
4. Replicas execute committed instances in sequence order, fetching
   missing bodies (FETCH / forward), and the leader replies.
5. Slots free on execution; the window advances by *implicit garbage
   collection*: observing sequence number ``s`` proves that ``f + 1``
   replicas executed everything up to ``s - n*r`` (Theorem 6.1).

The forwarding mechanism (Section 5.2) guarantees that a request
accepted by one correct replica is eventually executed everywhere:
delayed forwarding after 10 ms, a cache of recently rejected requests,
and on-demand fetching.

Of :class:`~repro.protocols.base.BaseReplica`'s proposing hooks IDEM
overrides one, ``_propose_batch`` (ids, ``proposed_rids`` and the
threshold hint instead of full requests).  It adds two for variants that
order differently: ``_orderer_of`` (*which replica orders this id right
now* — REQUIREs are routed, batched and counted by that answer alone)
and ``_answers`` (*do I send the REPLY*).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.app.state_machine import StateMachine
from repro.core.acceptance import make_acceptance_test
from repro.core.config import IdemConfig
from repro.net.addresses import Address, replica_address
from repro.net.network import Network
from repro.protocols.base import BaseReplica, Instance
from repro.protocols.messages import (
    Fetch,
    Forward,
    Propose,
    Reject,
    Request,
    RequireBatch,
    Rid,
)
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry
from repro.sim.timers import Timer


class ActiveRequest:
    """A request occupying one of this replica's active slots."""

    __slots__ = ("request", "accept_time", "forwarded")

    def __init__(self, request: Request, accept_time: float):
        self.request = request
        self.accept_time = accept_time
        self.forwarded = False


class IdemReplica(BaseReplica):
    """One IDEM replica."""

    def __init__(
        self,
        index: int,
        loop: EventLoop,
        network: Network,
        config: IdemConfig,
        state_machine: StateMachine,
        rng: RngRegistry,
    ):
        super().__init__(index, loop, network, config, state_machine, rng)
        self.config: IdemConfig = config
        self.acceptance = make_acceptance_test(config)
        # Accepted, not yet executed client requests (the slots).
        self.active: dict[Rid, ActiveRequest] = {}
        # Per client with active entries: [last accepted rid, {its active
        # rids: None}] — the same rids as ``active``, grouped by cid so
        # supersession and the dedup sweep touch only the client's own
        # entries (Section 4.3: the operation number tells them apart).
        # Dropped when the client's last active entry leaves.
        self._client_active: dict[int, list] = {}
        # Bodies we own: active requests plus committed ones not yet
        # garbage collected (needed to serve FETCHes).
        self.request_store: dict[Rid, Request] = {}
        # Recently rejected requests (Section 5.2).
        self.rejected_cache: OrderedDict[Rid, Request] = OrderedDict()
        # Leader state: who required which id, and what was proposed.
        self.require_counts: dict[Rid, set[int]] = {}
        self._require_first_seen: dict[Rid, float] = {}
        self.proposed_rids: dict[Rid, int] = {}
        # REQUIRE batching.
        self._require_outbox: list[Rid] = []
        self._require_timer = Timer(loop, self._flush_requires)
        # Body fetching (rate limited per id).
        self._fetching: dict[Rid, float] = {}
        self._handlers.update(
            {
                RequireBatch: self._on_require_batch,
                Propose: self._on_propose,
                Forward: self._on_forward,
                Fetch: self._on_fetch,
            }
        )
        loop.call_after(config.forward_check_interval, self._forward_sweep)

    # ------------------------------------------------------------------
    # Client requests and the acceptance test
    # ------------------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Number of occupied active slots (``r_now`` in the paper)."""
        return len(self.active)

    def _probe_timers(self) -> tuple:
        return super()._probe_timers() + (self._require_timer,)

    def probe_state(self) -> dict[str, float]:
        state = super().probe_state()
        state["active_slots"] = float(len(self.active))
        threshold = getattr(self.acceptance, "threshold", None)
        if threshold is not None:
            state["admission_threshold"] = float(threshold)
        state["request_store"] = float(len(self.request_store))
        state["rejected_cache"] = float(len(self.rejected_cache))
        # Active entries the dedup check has killed (onr at or below the
        # client's executed operation number).  Invariantly transient:
        # _release_dedup_dead frees them on the client's next request,
        # so a sustained non-zero count is the active-slot leak
        # (the active_set_leak drift rule).
        executed_onr = self.executed_onr
        state["dead_slots"] = float(
            sum(
                1
                for rid in self.active
                if executed_onr.get(rid[0], 0) >= rid[1]
            )
        )
        return state

    def _on_request(self, src: Address, message: Request) -> None:
        self.stats["requests_seen"] += 1
        rid = message.rid
        if self._maybe_resend_reply(src, rid):
            return
        if rid in self.active or rid in self.request_store:
            # Duplicate (client retransmission over fair-loss links) of a
            # request we already hold: refresh the REQUIRE in case the
            # original was lost on the way to the leader.
            entry = self.active.get(rid)
            if (
                entry is not None
                and rid not in self.proposed_rids
                and rid not in self._require_outbox
            ):
                self._route_require(rid)
            return
        if self.acceptance.accept(
            rid, self.loop.now, len(self.active), message.command
        ):
            if self.obs is not None:
                self.obs.on_accept(
                    rid, len(self.active), getattr(self.acceptance, "threshold", None)
                )
            self._accept_request(message)
        else:
            self.stats["rejected"] += 1
            if self.obs is not None:
                self.obs.on_reject(
                    rid,
                    len(self.active),
                    getattr(self.acceptance, "threshold", None),
                    self.acceptance.last_reason,
                )
            self._release_dedup_dead(rid[0])
            self._cache_rejected(message)
            self.send(src, Reject(rid))

    def _accept_request(self, request: Request) -> None:
        """Occupy a slot for ``request`` and hand its id to the ordering stage."""
        rid = request.rid
        cid = rid[0]
        self.active[rid] = ActiveRequest(request, self.loop.now)
        self.request_store[rid] = request
        self.stats["accepted"] += 1
        record = self._client_active.get(cid)
        if record is None:
            self._client_active[cid] = [rid, {rid: None}]
        else:
            record[1][rid] = None
            self._supersede_stale_active(record, rid)
        self._release_dedup_dead(cid)
        self._route_require(rid)
        if not self._progress_timer.running:
            self._progress_timer.start()

    def _supersede_stale_active(self, record: list, rid: Rid) -> None:
        """A newer request from a client supersedes its older, still
        *unproposed* active entry (Section 4.3: the operation number
        distinguishes a client's latest request from older ones).  The
        superseded body moves to the rejected cache so a late proposal
        by another replica can still be served.  This bounds active-set
        growth during ordering stalls, when clients abandon operations
        and issue new ones faster than slots can drain.

        ``record`` is the client's entry in ``_client_active``, already
        holding ``rid``; its first item, the client's previously accepted
        rid, becomes ``rid``.
        """
        previous = record[0]
        record[0] = rid
        if (
            previous[1] < rid[1]
            and previous in record[1]
            and previous not in self.proposed_rids
        ):
            entry = self._pop_active(previous)
            self.request_store.pop(previous, None)
            self._cache_rejected(entry.request)

    def _pop_active(self, rid: Rid) -> Optional[ActiveRequest]:
        """Free ``rid``'s slot, if it holds one: the one removal path of
        ``active`` and ``_client_active``."""
        entry = self.active.pop(rid, None)
        if entry is not None:
            cid = rid[0]
            rids = self._client_active[cid][1]
            del rids[rid]
            if not rids:
                del self._client_active[cid]
        return entry

    def _release_dedup_dead(self, cid: int) -> None:
        """Free active slots of ``cid`` that the dedup check has killed.

        A request id with ``onr <= executed_onr[cid]`` can never execute
        again: ``_note_require`` and ``_resolve_bodies`` both skip it,
        so nothing will ever pop its active entry.  Supersession
        (:meth:`_supersede_stale_active`) only reclaims the client's
        single *previous unproposed* entry — it misses proposed-but-dead
        entries, and on a leader that is rejecting everything it never
        runs at all.  Under a reject-retry storm (each retry bumps
        ``onr``, executed elsewhere via forwards) the leaked slots pin
        the active set at the threshold permanently (the metastable
        wedge analysed in ``docs/RESILIENCE.md``).  Sweeping the
        client's dead entries on every request — accepted or rejected —
        closes the leak; bodies move to the rejected cache so a late
        proposal or fetch by another replica can still be served.
        """
        record = self._client_active.get(cid)
        if record is None:
            return
        executed = self.executed_onr.get(cid, 0)
        if not executed:
            return
        dead = sorted(rid for rid in record[1] if rid[1] <= executed)
        for rid in dead:
            entry = self._pop_active(rid)
            self.request_store.pop(rid, None)
            self._cache_rejected(entry.request)

    def _orderer_of(self, rid: Rid) -> Optional[int]:
        """Hook: which replica orders ``rid`` right now — the view's leader, or
        nobody (None) during a view change (ids are re-announced after it)."""
        if self._vc_target is not None:
            return None
        return self.config.leader_of(self.view)

    def _route_require(self, rid: Rid) -> None:
        """Announce an accepted id to whoever orders it."""
        if self._orderer_of(rid) == self.index:
            self._note_require(rid, self.index)
        else:
            self._require_outbox.append(rid)
            if len(self._require_outbox) >= self.config.require_batch_max:
                self._require_timer.cancel()
                self._flush_requires()
            elif not self._require_timer.running:
                self._require_timer.start(self.config.require_flush_delay)

    def _cache_rejected(self, request: Request) -> None:
        cache = self.rejected_cache
        cache[request.rid] = request
        while len(cache) > self.config.rejected_cache_size:
            cache.popitem(last=False)

    # ------------------------------------------------------------------
    # REQUIRE phase
    # ------------------------------------------------------------------

    def _flush_requires(self) -> None:
        if self.halted or not self._require_outbox:
            return
        if self._vc_target is not None:
            # Hold requires while the view change is in progress; they
            # are re-sent once the new view is installed.
            self._require_timer.start(self.config.require_flush_delay * 4)
            return
        # One batch per orderer.  None of them is us: ids we order never
        # enter the outbox, and a view change empties it.
        by_orderer: dict[int, list[Rid]] = {}
        orderer_of = self._orderer_of
        for rid in self._require_outbox:
            by_orderer.setdefault(orderer_of(rid), []).append(rid)
        self._require_outbox.clear()
        for orderer, rids in by_orderer.items():
            self.send(replica_address(orderer), RequireBatch(tuple(rids)))

    def _on_require_batch(self, src: Address, message: RequireBatch) -> None:
        # Ids we do not order (any more) are dropped: their sender
        # re-requires after the view change.
        orderer_of = self._orderer_of
        for rid in message.rids:
            if orderer_of(rid) == self.index:
                self._note_require(rid, src.index)

    def _note_require(self, rid: Rid, replica_index: int) -> None:
        cid, onr = rid
        if self.executed_onr.get(cid, 0) >= onr:
            return
        if rid in self.proposed_rids:
            return
        supporters = self.require_counts.get(rid)
        if supporters is None:
            supporters = set()
            self.require_counts[rid] = supporters
            self._require_first_seen[rid] = self.loop.now
        supporters.add(replica_index)
        if len(supporters) >= self.config.quorum:
            del self.require_counts[rid]
            self._require_first_seen.pop(rid, None)
            self.proposed_rids[rid] = -1  # assigned a sqn at flush time
            self._queue_proposal(rid)

    # ------------------------------------------------------------------
    # PROPOSE phase (id-based batches)
    # ------------------------------------------------------------------

    def _propose_batch(self, sqn: int, batch: tuple) -> tuple[Instance, Propose]:
        # The queue holds ids; bodies stay where they were accepted.
        for rid in batch:
            self.proposed_rids[rid] = sqn
        instance = self._open_instance(sqn, self.view, batch)
        hint = self.acceptance.threshold_hint()
        return instance, Propose(self.view, sqn, batch, hint)

    def _on_propose(self, src: Address, message: Propose) -> None:
        if (
            message.threshold_hint is not None
            and src.index == self.leader_of(self.view)
        ):
            self.acceptance.adopt_hint(message.threshold_hint, self.loop.now)
        self._accept_proposal(message.view, message.sqn, message.rids)

    def _resend_proposal(self, dst: Address, instance: Instance) -> None:
        self.send(dst, Propose(instance.view, instance.sqn, instance.rids))

    # ------------------------------------------------------------------
    # Bodies: store, fetch, forward
    # ------------------------------------------------------------------

    def _resolve_bodies(self, instance: Instance) -> Optional[list[tuple[Rid, Request]]]:
        bodies: list[tuple[Rid, Request]] = []
        missing: list[Rid] = []
        for rid in instance.rids:
            request = self.request_store.get(rid)
            if request is None:
                request = self.rejected_cache.pop(rid, None)
                if request is not None:
                    # The group accepted a request we rejected: adopt it.
                    self.request_store[rid] = request
            if request is None:
                cid, onr = rid
                if self.executed_onr.get(cid, 0) >= onr:
                    continue  # duplicate; no body needed
                missing.append(rid)
            else:
                bodies.append((rid, request))
        if missing:
            self._fetch_bodies(missing)
            return None
        return bodies

    def _fetch_bodies(self, rids: list[Rid]) -> None:
        now = self.loop.now
        for rid in rids:
            last = self._fetching.get(rid, -1.0)
            if now - last < self.config.forward_timeout:
                continue
            self._fetching[rid] = now
            self.stats["fetches"] += 1
            if self.obs is not None:
                self.obs.on_fetch(rid)
            self.multicast_peers(Fetch(rid))

    def _on_fetch(self, src: Address, message: Fetch) -> None:
        rid = message.rid
        request = self.request_store.get(rid) or self.rejected_cache.get(rid)
        if request is not None:
            self.send(src, Forward(request))

    def _on_forward(self, src: Address, message: Forward) -> None:
        request = message.request
        rid = request.rid
        cid, onr = rid
        if self.executed_onr.get(cid, 0) >= onr:
            return
        if rid in self.request_store:
            return
        self._fetching.pop(rid, None)
        self.rejected_cache.pop(rid, None)
        if self.obs is not None:
            self.obs.on_adopt(rid)
        # Forwarded requests are accepted regardless of the current load
        # (Section 4.3); this may temporarily exceed the threshold.
        self._accept_request(request)
        self._try_execute()

    def _forward_sweep(self) -> None:
        """Periodic implementation of delayed forwarding (Section 5.2)."""
        if self.halted:
            return
        now = self.loop.now
        timeout = self.config.forward_timeout
        stale = [
            entry
            for entry in self.active.values()
            if not entry.forwarded and now - entry.accept_time > timeout
        ]
        for entry in stale:
            entry.forwarded = True
            self.stats["forwards"] += 1
            if self.obs is not None:
                self.obs.on_forward(entry.request.rid)
            self.multicast_peers(Forward(entry.request))
        # Prune require bookkeeping for ids that never reached a quorum
        # (e.g. the client aborted and every other replica rejected).
        expired = [
            rid
            for rid, first in self._require_first_seen.items()
            if now - first > 2.0
        ]
        for rid in expired:
            self.require_counts.pop(rid, None)
            self._require_first_seen.pop(rid, None)
        # Retry stalled executions (e.g. a lost Forward answer).
        self._try_execute()
        self.loop.call_after(self.config.forward_check_interval, self._forward_sweep)

    # ------------------------------------------------------------------
    # Execution, slots and implicit garbage collection
    # ------------------------------------------------------------------

    def _on_executed(self, rid: Rid, request: Request, result: Any) -> None:
        entry = self._pop_active(rid)  # free the slot
        if entry is not None:
            self.acceptance.observe_completion(self.loop.now - entry.accept_time)
        # Executing (cid, onr) dedup-kills every lower active entry of
        # the client; free them now rather than waiting for its next
        # request (which during think time can be a second away).
        self._release_dedup_dead(rid[0])
        if self._answers(rid):
            self._reply_to_client(rid, result)
        else:
            self._record_reply(rid, result)

    def _answers(self, rid: Rid) -> bool:
        """Hook: does this replica send the REPLY for ``rid``?"""
        return self.is_leader

    def _has_outstanding_work(self) -> bool:
        return bool(self._unexecuted) or bool(self.active)

    def _advance_window(self, observed_sqn: int) -> None:
        """Implicit GC (Theorem 6.1): seeing ``observed_sqn`` proves that
        ``f + 1`` replicas executed everything up to ``observed_sqn - r_max``."""
        candidate = observed_sqn - self.config.r_max
        new_start = min(candidate + 1, self.exec_sqn + 1)
        if new_start <= self.window_start:
            return
        for sqn in range(self.window_start, new_start):
            instance = self.instances.pop(sqn, None)
            if instance is None:
                continue
            self._unexecuted.discard(sqn)
            for rid in instance.rids:
                self.request_store.pop(rid, None)
                self.proposed_rids.pop(rid, None)
                self._fetching.pop(rid, None)
        self.window_start = new_start

    def _gc_after_execute(self, sqn: int) -> None:
        # Executing an instance is itself an observation of its sequence
        # number; implicit GC replaces the base window truncation.
        self._advance_window(sqn)

    def _lag_threshold(self) -> int:
        # Implicit GC only retains r_max instances behind the newest
        # observed sequence number, so a replica further behind than
        # that can no longer recover proposals and needs a checkpoint.
        return self.config.r_max

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------

    def _after_state_transfer(self) -> None:
        # Drop active slots, stored bodies, leader bookkeeping and
        # pending fetches for requests the snapshot already covers —
        # without this a replica that catches up via checkpoint (e.g.
        # after recovering from a crash) keeps fetching and re-proposing
        # ids that are long executed.
        def covered(rid: Rid) -> bool:
            return self.executed_onr.get(rid[0], 0) >= rid[1]

        for rid in [r for r in self.active if covered(r)]:
            self._pop_active(rid)
        for rid in [r for r in self.request_store if covered(r)]:
            del self.request_store[rid]
        for rid in [r for r in self.proposed_rids if covered(r)]:
            del self.proposed_rids[rid]
        for rid in [r for r in self._fetching if covered(r)]:
            del self._fetching[rid]
        for rid in [r for r in self.require_counts if covered(r)]:
            del self.require_counts[rid]
            self._require_first_seen.pop(rid, None)

    def _after_view_installed(self) -> None:
        """Re-anchor leader bookkeeping and re-require active requests.

        Accepted requests whose REQUIREs reached only the old leader
        must be re-announced so the new leader can propose them.
        """
        self.require_counts.clear()
        self._require_first_seen.clear()
        self.proposed_rids = self._unexecuted_rids()
        self._require_outbox.clear()
        if self.is_leader:
            for rid in self.active:
                self._note_require(rid, self.index)
        else:
            self._require_outbox.extend(self.active)
            if self._require_outbox:
                self._require_timer.cancel()
                self._flush_requires()

    def crash(self) -> None:
        super().crash()
        self._require_timer.cancel()
