"""The Paxos baseline replica (Kirsch and Amir's variant, Section 7).

Clients talk to the leader only; the leader batches full requests into
proposals, replicas commit, and the leader answers.  A follower that
receives a request (after client failover) relays it to the leader.
Sharing :class:`~repro.protocols.base.BaseReplica` with IDEM gives the
paper's property that the two systems differ only in the protocol, not
the code base: proposing, re-sending and view-change entries are the
base's full-request defaults (no ``_may_propose`` / ``_claim_slot`` /
``_propose_batch`` override); this module adds admission, relaying,
who replies, and what a new leader proposes again.

With ``leader_rejection`` enabled this becomes Paxos_LBR, the strawman
of Section 3.3: the leader tail-drops requests beyond its threshold and
sends REJECTs — which stops working entirely while the leader is down.
"""

from __future__ import annotations

from typing import Any

from repro.app.state_machine import StateMachine
from repro.net.addresses import Address
from repro.net.network import Network
from repro.protocols.base import BaseReplica
from repro.protocols.messages import Reject, Request, Rid
from repro.protocols.paxos.config import PaxosConfig
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry


class PaxosReplica(BaseReplica):
    """One Paxos (or Paxos_LBR) replica."""

    def __init__(
        self,
        index: int,
        loop: EventLoop,
        network: Network,
        config: PaxosConfig,
        state_machine: StateMachine,
        rng: RngRegistry,
    ):
        super().__init__(index, loop, network, config, state_machine, rng)
        self.config: PaxosConfig = config
        # Leader: requests admitted but not yet executed (LBR counting).
        self.outstanding: dict[Rid, Request] = {}
        # Follower: requests relayed to the leader, re-relayed on view change.
        self.relayed: dict[Rid, Request] = {}

    def probe_state(self) -> dict[str, float]:
        state = super().probe_state()
        state["active_slots"] = float(len(self.outstanding))
        state["relayed"] = float(len(self.relayed))
        if self.config.leader_rejection:
            state["admission_threshold"] = float(self.config.reject_threshold)
        return state

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _on_request(self, src: Address, message: Request) -> None:
        self.stats["requests_seen"] += 1
        rid = message.rid
        if self._maybe_resend_reply(src, rid):
            return
        if not self.is_leader or self._vc_target is not None:
            # Relay to whoever we believe leads; remember it so we can
            # re-relay after a view change.
            if rid not in self.relayed:
                self.relayed[rid] = message
                if not self._vc_target:
                    if self.obs is not None:
                        self.obs.on_forward(rid)
                    self.send(self.leader_address, message)
                if not self._progress_timer.running:
                    self._progress_timer.start()
            return
        if rid in self.outstanding:
            return  # duplicate of an admitted request
        threshold = (
            self.config.reject_threshold if self.config.leader_rejection else None
        )
        if self.config.leader_rejection and (
            len(self.outstanding) >= self.config.reject_threshold
        ):
            self.stats["rejected"] += 1
            if self.obs is not None:
                self.obs.on_reject(
                    rid, len(self.outstanding), threshold, "leader-threshold"
                )
            self.send(src, Reject(rid))
            return
        if self.obs is not None:
            self.obs.on_accept(rid, len(self.outstanding), threshold)
        self.outstanding[rid] = message
        self.stats["accepted"] += 1
        self._queue_proposal(message)
        if not self._progress_timer.running:
            self._progress_timer.start()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _on_executed(self, rid: Rid, request: Request, result: Any) -> None:
        self.outstanding.pop(rid, None)
        self.relayed.pop(rid, None)
        if self.is_leader:
            self._reply_to_client(rid, result)
        else:
            self._record_reply(rid, result)

    def _has_outstanding_work(self) -> bool:
        return bool(self._unexecuted) or bool(self.relayed) or bool(self.outstanding)

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------

    def _after_view_installed(self) -> None:
        if self.is_leader:
            # Requests we admitted (or relayed) that did not survive in
            # the merged window must be proposed again.
            self.outstanding.update(self.relayed)
            self.relayed.clear()
            for request in self._lost_in_view_change(self.outstanding):
                self._queue_proposal(request)
        else:
            self.outstanding.clear()
            lost = self._lost_in_view_change(self.relayed)
            self.relayed = {request.rid: request for request in lost}
            for request in lost:
                self.send(self.leader_address, request)
