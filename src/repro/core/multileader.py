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

In code: five hook overrides plus SKIP.  The batching loop, REQUIRE
routing and reply path are `IdemReplica`'s and `BaseReplica`'s own;
in fast mode this class answers their questions differently —
``_orderer_of`` and ``_answers`` (the client's coordinator),
``_may_propose`` (everyone), ``_claim_slot`` (my next owned slot),
``_proposer_of`` (the slot's owner) — and adds what is genuinely
Mencius: SKIP/SKIPACK and the suspect-skipping fallback target.
"""

from __future__ import annotations

from typing import Optional

from repro.core.replica import IdemReplica
from repro.net.addresses import Address
from repro.protocols.messages import Propose, Rid, Skip, SkipAck

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

    # ------------------------------------------------------------------
    # The IDEM hooks, answered per slot and per client in fast mode
    # ------------------------------------------------------------------

    def _orderer_of(self, rid: Rid) -> Optional[int]:
        if self.fast_mode:
            return self.coordinator_of(rid)
        return super()._orderer_of(rid)

    def _answers(self, rid: Rid) -> bool:
        # View 0 keeps its coordinators even while a view change is
        # being voted on: they ordered the request, they answer it.
        if self.view == 0:
            return self.coordinator_of(rid) == self.index
        return super()._answers(rid)

    def _may_propose(self) -> bool:
        return self.fast_mode or super()._may_propose()

    def _claim_slot(self) -> int:
        if not self.fast_mode:
            return super()._claim_slot()
        sqn = self._my_next_slot
        self._my_next_slot += self.config.n
        if sqn >= self.next_sqn:
            self.next_sqn = sqn + 1
        return sqn

    def _flush_proposals(self) -> None:
        super()._flush_proposals()
        if self.fast_mode:
            self._try_execute()

    # ------------------------------------------------------------------
    # SKIP: idle owners release their slots
    # ------------------------------------------------------------------

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
        n = self.config.n
        start = self._my_next_slot
        end = min(frontier, start + _MAX_SKIP_RANGE * n)
        # Our next slot becomes the first one we own at or above ``end``.
        self._my_next_slot = end + (self.index - (end - 1)) % n
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
            self._maybe_recover_proposal(missing)
            suspect = self.owner_of(missing)
        else:
            suspect = None
        target = 1
        if suspect is not None and self.leader_of(target) == suspect:
            target = suspect + 1  # leader_of(suspect + 1) != suspect for n >= 2
        self._start_view_change(target)
