"""A Mod-SMaRt-shaped replica standing in for BFT-SMaRt (CFT mode).

The real BFT-SMaRt library, configured crash-fault tolerant, behaves as
follows (Bessani et al., DSN '14): clients multicast their requests to
all replicas, the leader assembles batches of *full requests* and runs a
consensus round on them, and **every** replica sends a reply, the client
keeping the first.  This module reproduces that message pattern — the
triple request dissemination and n-fold replies are what give the
production library its distinct saturation point in Figure 6.
Proposing, re-sending and view-change entries are the full-request
defaults of :class:`~repro.protocols.base.BaseReplica`; the one hook
overridden on that path is ``_on_propose_full``, which also pools.

The cost multiplier applied by the cluster builder models the heavier
code path of a general-purpose BFT library running in CFT mode.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.addresses import Address
from repro.protocols.base import BaseReplica, Instance
from repro.protocols.messages import ProposeFull, Request, Rid


class BftSmartReplica(BaseReplica):
    """One BFT-SMaRt-like replica (crash-fault-tolerant configuration)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The request pool: every replica holds all client requests it
        # has seen until they are executed.
        self.pool: dict[Rid, Request] = {}

    def probe_state(self) -> dict[str, float]:
        state = super().probe_state()
        state["active_slots"] = float(len(self.pool))
        return state

    # ------------------------------------------------------------------
    # Client requests: everyone pools, the leader proposes
    # ------------------------------------------------------------------

    def _on_request(self, src: Address, message: Request) -> None:
        self.stats["requests_seen"] += 1
        rid = message.rid
        if self._maybe_resend_reply(src, rid):
            return
        if rid in self.pool:
            return
        if self.obs is not None:
            self.obs.on_accept(rid, len(self.pool), None)
        self.pool[rid] = message
        self.stats["accepted"] += 1
        if self.is_leader and self._vc_target is None:
            self._queue_proposal(message)
        if not self._progress_timer.running:
            self._progress_timer.start()

    def _on_propose_full(self, src: Address, message: ProposeFull) -> Optional[Instance]:
        instance = super()._on_propose_full(src, message)
        if instance is not None:
            for request in message.requests:
                self.pool.setdefault(request.rid, request)
        return instance

    # ------------------------------------------------------------------
    # Execution: every replica replies
    # ------------------------------------------------------------------

    def _on_executed(self, rid: Rid, request: Request, result: Any) -> None:
        self.pool.pop(rid, None)
        # In BFT-SMaRt all replicas answer; the client keeps the first.
        self._reply_to_client(rid, result)

    def _has_outstanding_work(self) -> bool:
        return bool(self._unexecuted) or bool(self.pool)

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------

    def _after_view_installed(self) -> None:
        if self.is_leader:
            for request in self._lost_in_view_change(self.pool):
                self._queue_proposal(request)
