"""Multi-leader IDEM (Mencius-style), with collaborative rejection.

The paper's related-work section expects that "the concept of
collaborative overload prevention can be integrated into such
multi-leader protocols with little adjustments"; this module is that
integration, built in the style of Mencius (Mao et al., OSDI '08):

* In the fault-free fast mode (**view 0**) the sequence space is
  partitioned round-robin: replica ``i`` owns slots ``i+1, i+n+1, ...``
  and proposes only on its own slots — there is no single leader to
  saturate.
* Each request has a static **coordinator** (``cid mod n``): replicas
  that accept the request send their REQUIREs to the coordinator, which
  proposes the id on its own slots once ``f+1`` replicas back it, and
  answers the client after execution.  Acceptance tests, forwarding,
  caching and fetching are inherited from IDEM unchanged — proactive
  rejection is untouched by the ordering change, exactly the
  separation-of-concerns argument of the paper's Section 4.2.
* Idle owners release their slots with bulk **SKIP** messages whenever
  they observe a proposal beyond their next owned slot, keeping
  execution contiguous (the Mencius "skip" idea).
* Any crash suspicion falls back to **single-leader IDEM**: the
  ordinary view change elects the leader of view ``v >= 1`` and from
  then on the protocol behaves exactly like `IdemReplica` (the fast
  mode is not re-entered).  This trades Mencius' revocation machinery
  for the already-verified view-change path — a deliberate
  simplification, documented here.
"""

from __future__ import annotations

from typing import Any

from repro.core.replica import IdemReplica
from repro.net.addresses import Address
from repro.protocols.messages import (
    Propose,
    Rid,
    RequireBatch,
    Skip,
    SkipAck,
)

# Upper bound on slots released by a single SKIP message.
_MAX_SKIP_RANGE = 4096


class MultiLeaderIdemReplica(IdemReplica):
    """IDEM with Mencius-style partitioned proposing in the fault-free case."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The next slot this replica owns and has not used or skipped.
        self._my_next_slot = self.index + 1
        self._handlers[Skip] = self._on_skip
        self._handlers[SkipAck] = self._on_skip_ack
        self.stats["skips"] = 0

    # ------------------------------------------------------------------
    # Slot ownership (fast mode = view 0)
    # ------------------------------------------------------------------

    @property
    def fast_mode(self) -> bool:
        """Whether the partitioned, leaderless fast mode is active."""
        return self.view == 0 and self._vc_target is None

    def owner_of(self, sqn: int) -> int:
        """The replica owning slot ``sqn`` in fast mode."""
        return (sqn - 1) % self.config.n

    def coordinator_of(self, rid: Rid) -> int:
        """The replica that orders (and answers) this client's requests."""
        return rid[0] % self.config.n

    def _proposer_of(self, view: int, sqn: int) -> int:
        if view == 0:
            return self.owner_of(sqn)
        return self.leader_of(view)

    def _advance_my_slot(self, past: int) -> None:
        """Move our next owned slot to the first one >= ``past``."""
        if self._my_next_slot >= past:
            return
        remainder = (past - 1) % self.config.n
        delta = (self.index - remainder) % self.config.n
        self._my_next_slot = past + delta

    # ------------------------------------------------------------------
    # REQUIRE routing: to the request's coordinator
    # ------------------------------------------------------------------

    def _route_require(self, rid: Rid) -> None:
        if not self.fast_mode:
            super()._route_require(rid)
            return
        if self.coordinator_of(rid) == self.index:
            self._note_require(rid, self.index)
        else:
            self._require_outbox.append(rid)
            if len(self._require_outbox) >= self.config.require_batch_max:
                self._require_timer.cancel()
                self._flush_requires()
            elif not self._require_timer.running:
                self._require_timer.start(self.config.require_flush_delay)

    def _flush_requires(self) -> None:
        if not self.fast_mode:
            super()._flush_requires()
            return
        if self.halted or not self._require_outbox:
            return
        # Split the outbox by coordinator and ship one batch to each.
        by_coordinator: dict[int, list[Rid]] = {}
        for rid in self._require_outbox:
            by_coordinator.setdefault(self.coordinator_of(rid), []).append(rid)
        self._require_outbox.clear()
        from repro.net.addresses import replica_address

        for coordinator, rids in by_coordinator.items():
            if coordinator == self.index:
                for rid in rids:
                    self._note_require(rid, self.index)
            else:
                self.send(replica_address(coordinator), RequireBatch(tuple(rids)))

    def _on_require_batch(self, src: Address, message: RequireBatch) -> None:
        if not self.fast_mode:
            super()._on_require_batch(src, message)
            return
        for rid in message.rids:
            if self.coordinator_of(rid) == self.index:
                self._note_require(rid, src.index)

    # ------------------------------------------------------------------
    # Proposing on our own slots + skips
    # ------------------------------------------------------------------

    def _flush_proposals(self) -> None:
        if not self.fast_mode:
            super()._flush_proposals()
            return
        if self.halted:
            return
        config = self.config
        hint = self.acceptance.threshold_hint()
        while self._propose_queue and self._window_has_room():
            batch = tuple(self._propose_queue[: config.batch_max])
            del self._propose_queue[: len(batch)]
            sqn = self._my_next_slot
            self._my_next_slot += config.n
            for rid in batch:
                self.proposed_rids[rid] = sqn
            self._open_instance(sqn, 0, batch)
            self.multicast_peers(Propose(0, sqn, batch, hint))
            self.stats["proposals"] += 1
            if sqn >= self.next_sqn:
                self.next_sqn = sqn + 1
        if self._propose_queue and not self._batch_timer.running:
            self._batch_timer.start(config.batch_delay)
        if not self._progress_timer.running:
            self._progress_timer.start()
        self._try_execute()

    def _on_propose(self, src: Address, message: Propose) -> None:
        if message.view == 0 and src.index != self.owner_of(message.sqn):
            return  # only the owner may propose on a slot in fast mode
        super()._on_propose(src, message)
        if self.fast_mode:
            self._maybe_skip(message.sqn)

    def _maybe_skip(self, frontier: int) -> None:
        """Release our owned slots below an observed frontier."""
        if self._propose_queue:
            return  # our own proposals will fill those slots
        if self._my_next_slot >= frontier:
            return
        start = self._my_next_slot
        end = min(frontier, start + _MAX_SKIP_RANGE * self.config.n)
        self._advance_my_slot(end)
        self.stats["skips"] += 1
        self._install_skips(self.index, start, end)
        self.multicast_peers(Skip(0, start, end))

    def _install_skips(self, owner: int, from_sqn: int, to_sqn: int) -> None:
        """Create committed-on-fast-path no-op instances for owned slots."""
        for sqn in range(from_sqn, to_sqn):
            if self.owner_of(sqn) != owner:
                continue
            if sqn <= self.exec_sqn or sqn in self.instances:
                continue
            self._open_instance(sqn, 0, ())
            if sqn >= self.next_sqn:
                self.next_sqn = sqn + 1
        self._try_execute()

    def _on_skip(self, src: Address, message: Skip) -> None:
        if not self.fast_mode:
            return
        self._install_skips(src.index, message.from_sqn, message.to_sqn)
        self.send(src, SkipAck(0, message.from_sqn, message.to_sqn))

    def _on_skip_ack(self, src: Address, message: SkipAck) -> None:
        if self.view != 0:
            return
        for sqn in range(message.from_sqn, message.to_sqn):
            if self.owner_of(sqn) != self.index:
                continue
            instance = self.instances.get(sqn)
            if instance is not None and not instance.executed:
                instance.commits.add(src.index)
        self._try_execute()

    # ------------------------------------------------------------------
    # Fallback: skip the suspected owner's view directly
    # ------------------------------------------------------------------

    def _on_progress_timeout(self) -> None:
        if self.halted or not self.fast_mode:
            super()._on_progress_timeout()
            return
        if not self._has_outstanding_work():
            return
        # The stalled slot identifies the suspect: its owner stopped
        # proposing/skipping.  Fall back to the first single-leader view
        # that is NOT led by the suspect, instead of burning a full
        # timeout on a view the dead replica would have to lead.
        missing = self.exec_sqn + 1
        instance = self.instances.get(missing)
        if instance is None or not instance.committed(self.config.quorum):
            self._probe_gap()
            suspect = self.owner_of(missing)
        else:
            suspect = None
        target = 1
        if suspect is not None and self.leader_of(target) == suspect:
            target = suspect + 1  # leader_of(suspect + 1) != suspect for n >= 2
        self._start_view_change(target)

    # ------------------------------------------------------------------
    # Replies: the coordinator answers its clients (fast mode)
    # ------------------------------------------------------------------

    def _on_executed(self, rid: Rid, request, result: Any) -> None:
        entry = self.active.pop(rid, None)
        if entry is not None:
            self.acceptance.observe_completion(self.loop.now - entry.accept_time)
        # Same execute-path sweep as IdemReplica._on_executed: free the
        # client's dedup-dead slots now, not at its next request.
        self._release_dedup_dead(rid[0])
        if self.view == 0:
            responsible = self.coordinator_of(rid) == self.index
        else:
            responsible = self.is_leader
        if responsible:
            self._reply_to_client(rid, result)
        else:
            self._record_reply(rid, result)
