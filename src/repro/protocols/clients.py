"""Closed-loop client drivers.

Clients model the paper's benchmark clients (Section 7.1): each has at
most one pending request at a time and issues the next operation as soon
as the previous one completes (closed loop).  The semi-autonomous-client
behaviour from the system model is implemented here too: when an
operation is abandoned (rejection or timeout) an optional *fallback*
callable is invoked, and after a rejection the client backs off for a
random 50–100 ms before its next operation, as in Section 7.1.

What happens after a rejection or timeout is decided by a pluggable
:class:`repro.resilience.RetryPolicy` (``config.retry_policy``): the
default ``none`` abandons exactly as above, while retrying policies
re-issue the same command under a fresh request id — each operation is
then a sequence of *attempts* and the latency of its final outcome is
measured from the first send, the way an impatient real client
experiences it.  A :class:`repro.resilience.HedgePolicy`
(``config.hedge_delay``) can additionally race a duplicate of a
still-pending request against the original; the duplicate reuses the
request id, so at-most-once execution suppresses it server-side.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.app.commands import Command
from repro.cluster.metrics import MetricsCollector
from repro.net.addresses import Address, client_address, replica_address
from repro.net.message import Message
from repro.net.network import Network, NetworkNode
from repro.protocols.config import ProtocolConfig
from repro.protocols.messages import Reject, Reply, Request, Rid
from repro.resilience import ABANDON, make_hedge_policy, make_retry_policy
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry
from repro.sim.timers import Timer
from repro.workload.schedule import LoadSchedule
from repro.workload.ycsb import YcsbWorkload

# How long an inactive scheduled client waits before re-checking whether
# the load schedule has activated it.
_SCHEDULE_POLL = 0.02


class BaseClient(NetworkNode):
    """A closed-loop client issuing one request at a time.

    Subclasses choose the request-dissemination strategy by overriding
    :meth:`_send_request` and may add response handling (rejections).
    """

    def __init__(
        self,
        cid: int,
        loop: EventLoop,
        network: Network,
        config: ProtocolConfig,
        metrics: MetricsCollector,
        workload: YcsbWorkload,
        rng: RngRegistry,
        stop_time: float = math.inf,
        schedule: Optional[LoadSchedule] = None,
        fallback: Optional[Callable[[Command], None]] = None,
    ):
        self.cid = cid
        self.loop = loop
        self.network = network
        self.config = config
        self.metrics = metrics
        self.workload = workload
        self.address = client_address(cid)
        self.replicas = [replica_address(i) for i in range(config.n)]
        self.stop_time = stop_time
        self.schedule = schedule
        self.fallback = fallback
        self._ops_rng = rng.stream(f"client.{cid}.ops")
        self._timing_rng = rng.stream(f"client.{cid}.timing")
        self.retry_policy = make_retry_policy(config, cid, rng, self._timing_rng)
        self.hedge_policy = make_hedge_policy(config)
        self.onr = 0
        self.current_rid: Optional[Rid] = None
        self.current_command: Optional[Command] = None
        # First send of the current operation (latency reference point)
        # and of the current attempt; identical unless a retry happened.
        self.send_time = 0.0
        self.first_send_time = 0.0
        self.attempt = 0
        self._request_timer = Timer(loop, self._on_request_timeout)
        self._retransmit_timer = Timer(loop, self._on_retransmit)
        self._hedge_timer = Timer(loop, self._on_hedge_timeout)
        self._hedges_this_attempt = 0
        # When a driver is attached (open-loop load generation), the
        # client reports completion instead of self-scheduling its next
        # operation; see repro.workload.open_loop.
        self.driver = None
        # Clients that resend through another mechanism (leader failover)
        # disable the generic retransmission timer.
        self.retransmit_enabled = True
        self.stopped = False
        # Per-client outcome counters (fairness analysis, Section 5.1).
        self.successes = 0
        self.rejections = 0
        self.timeouts = 0
        # Resilience accounting: distinct commands started, every copy
        # put on the wire (first sends, retransmits, failovers, retries,
        # hedges), and the policy's decisions.  sends / commands_started
        # is the client's load-amplification factor.
        self.commands_started = 0
        self.sends = 0
        self.retries = 0
        self.hedges = 0
        self.give_ups = 0
        # When set (safety checking), every successfully answered rid is
        # appended so a checker can match replies against executions.
        self.reply_log: Optional[list[Rid]] = None
        # Optional observability facade (repro.obs.ClientObserver).
        self.obs = None

    def probe_state(self) -> dict[str, float]:
        """Flat counter snapshot for the probe layer (read-only; the
        sampler aggregates these over the whole client population)."""
        return {
            "commands": float(self.commands_started),
            "sends": float(self.sends),
            "retries": float(self.retries),
            "hedges": float(self.hedges),
            "give_ups": float(self.give_ups),
            "successes": float(self.successes),
            "rejections": float(self.rejections),
            "timeouts": float(self.timeouts),
        }

    # -- lifecycle -----------------------------------------------------

    def start(self, at: float) -> None:
        """Begin the closed loop at simulated time ``at``."""
        self.loop.call_at(at, self._issue_next)

    def stop(self) -> None:
        """Stop issuing new operations (the pending one is abandoned)."""
        self.stopped = True
        self._request_timer.cancel()
        self._retransmit_timer.cancel()
        self._hedge_timer.cancel()

    # -- the closed loop -----------------------------------------------

    def _issue_next(self) -> None:
        """Begin a fresh operation: draw a command, issue attempt 1."""
        if self.stopped or self.loop.now >= self.stop_time:
            return
        if self.schedule is not None and (
            self.cid >= self.schedule.active_clients(self.loop.now)
        ):
            self.loop.call_after(_SCHEDULE_POLL, self._issue_next)
            return
        self.current_command = self.workload.next_command(self._ops_rng)
        self.commands_started += 1
        self.attempt = 0
        self.first_send_time = self.loop.now
        self.retry_policy.on_operation_start(self.loop.now)
        self._issue_attempt()

    def _issue_attempt(self) -> None:
        """Send one attempt of the current command under a fresh rid."""
        if self.stopped or self.current_command is None:
            return
        self.onr += 1
        self.attempt += 1
        self.current_rid = (self.cid, self.onr)
        self.send_time = self.loop.now
        self._reset_operation_state()
        if self.obs is not None:
            self.obs.on_send(self.current_rid)
        self.sends += 1
        self._send_request(Request(self.current_rid, self.current_command))
        self._request_timer.start(self.config.request_timeout)
        if self.retransmit_enabled:
            self._retransmit_timer.start(self.config.retransmit_interval)
        if self.hedge_policy is not None:
            self._hedges_this_attempt = 0
            self._hedge_timer.start(self.hedge_policy.delay())

    def _schedule_next(self, delay: float, outcome: str) -> None:
        if self.driver is not None:
            self.driver.client_finished(self, delay, outcome)
        else:
            self.loop.call_after(delay, self._issue_next)

    def _reset_operation_state(self) -> None:
        """Hook: clear per-operation state before sending a new request."""

    def _send_request(self, request: Request) -> None:
        raise NotImplementedError

    def _send_hedge(self, request: Request) -> None:
        """Put the hedged duplicate on the wire (same rid, another path)."""
        self._send_request(request)

    def _on_retransmit(self) -> None:
        """Resend the pending request over the fair-loss links."""
        if self.stopped or self.current_rid is None:
            return
        if self.obs is not None:
            self.obs.on_send(self.current_rid, retransmit=True)
        self.sends += 1
        self._send_request(Request(self.current_rid, self.current_command))
        self._retransmit_timer.start(self.config.retransmit_interval)

    def _on_hedge_timeout(self) -> None:
        """The attempt outlived the hedge delay: race a duplicate."""
        if self.stopped or self.current_rid is None or self.hedge_policy is None:
            return
        if self._hedges_this_attempt >= self.hedge_policy.max_hedges:
            return
        self._hedges_this_attempt += 1
        self.hedges += 1
        self.sends += 1
        if self.obs is not None:
            self.obs.on_hedge(self.current_rid)
        self._send_hedge(Request(self.current_rid, self.current_command))
        if self._hedges_this_attempt < self.hedge_policy.max_hedges:
            self._hedge_timer.start(self.hedge_policy.delay())

    # -- responses -------------------------------------------------------

    def deliver(self, src: Address, message: Message) -> None:
        if isinstance(message, Reply):
            self._on_reply(src, message)
        elif isinstance(message, Reject):
            self._on_reject(src, message)

    def _on_reply(self, src: Address, message: Reply) -> None:
        if message.rid != self.current_rid:
            return  # late reply for an operation we already finished
        self._finish_success()

    def _on_reject(self, src: Address, message: Reject) -> None:
        """Default: protocols without rejection ignore REJECTs."""

    # -- outcomes --------------------------------------------------------

    def _finish_success(self) -> None:
        self._request_timer.cancel()
        self._retransmit_timer.cancel()
        self._hedge_timer.cancel()
        now = self.loop.now
        latency = now - self.first_send_time
        self.metrics.record_success(now, latency)
        self.successes += 1
        if self.hedge_policy is not None:
            self.hedge_policy.observe(latency)
        if self.reply_log is not None:
            self.reply_log.append(self.current_rid)
        if self.obs is not None:
            self.obs.on_outcome(self.current_rid, "success", latency)
        self.current_rid = None
        self.current_command = None
        self._schedule_next(self.config.think_time, "success")

    def _finish_rejected(self) -> None:
        """The operation's attempt was rejected: ask the policy."""
        self._request_timer.cancel()
        self._retransmit_timer.cancel()
        self._hedge_timer.cancel()
        now = self.loop.now
        decision = self.retry_policy.next_action(
            "reject", self.attempt, now - self.first_send_time, now
        )
        if decision.kind != ABANDON:
            self._begin_retry("rejected", decision)
            return
        self.metrics.record_reject(now, now - self.first_send_time)
        self.rejections += 1
        if self.obs is not None:
            self.obs.on_outcome(
                self.current_rid, "rejected", now - self.first_send_time
            )
        self._abandon_operation(decision, "reject")

    def _on_request_timeout(self) -> None:
        self._retransmit_timer.cancel()
        self._hedge_timer.cancel()
        now = self.loop.now
        decision = self.retry_policy.next_action(
            "timeout", self.attempt, now - self.first_send_time, now
        )
        if decision.kind != ABANDON:
            self._begin_retry("timeout", decision)
            return
        self.metrics.record_timeout(now, now - self.first_send_time)
        self.timeouts += 1
        if self.obs is not None and self.current_rid is not None:
            self.obs.on_outcome(
                self.current_rid, "timeout", now - self.first_send_time
            )
        self._abandon_operation(decision, "timeout")

    def _begin_retry(self, outcome: str, decision) -> None:
        """Re-issue the same command under a new rid after the backoff."""
        self.retries += 1
        if self.obs is not None:
            self.obs.on_retry(self.current_rid, outcome, self.attempt, decision.delay)
        self.current_rid = None
        self.loop.call_after(decision.delay, self._issue_attempt)

    def _abandon_operation(self, decision, outcome: str) -> None:
        """Terminal abandonment: fallback (while the per-operation state
        is still intact), then clear it and schedule the next command."""
        if decision.reason != "no-retry":
            self.give_ups += 1
            if self.obs is not None and self.current_rid is not None:
                self.obs.on_give_up(self.current_rid, decision.reason)
        if self.fallback is not None:
            self.fallback(self.current_command)
        self.current_rid = None
        self.current_command = None
        self._schedule_next(decision.delay, outcome)


class SingleTargetClient(BaseClient):
    """A Paxos-style client that talks to the presumed leader only.

    On silence it fails over to the next replica (client-side timeout),
    which is what makes rejections unavailable for several seconds after
    a leader crash in Paxos_LBR (Figure 3 / Figure 10d).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.presumed_leader = 0
        self._failover_timer = Timer(self.loop, self._on_failover_timeout)
        # The failover timer already resends; the generic retransmission
        # timer would only duplicate it.
        self.retransmit_enabled = False

    def _send_request(self, request: Request) -> None:
        self.network.send(
            self.address, replica_address(self.presumed_leader), request
        )
        self._failover_timer.start(self.config.client_failover_timeout)

    def _send_hedge(self, request: Request) -> None:
        # Hedge to a replica other than the presumed leader (it relays
        # to the leader) without disturbing the failover timer.
        target = (self.presumed_leader + self._hedges_this_attempt) % self.config.n
        self.network.send(self.address, replica_address(target), request)

    def _on_failover_timeout(self) -> None:
        if self.current_rid is None or self.stopped:
            return
        self.presumed_leader = (self.presumed_leader + 1) % self.config.n
        if self.obs is not None:
            self.obs.on_send(self.current_rid, retransmit=True)
        self.sends += 1
        self.network.send(
            self.address,
            replica_address(self.presumed_leader),
            Request(self.current_rid, self.current_command),
        )
        self._failover_timer.start(self.config.client_failover_timeout)

    def _on_reply(self, src: Address, message: Reply) -> None:
        # Learn the current leader from the reply's view.
        self.presumed_leader = self.config.leader_of(message.view)
        if message.rid != self.current_rid:
            return
        self._failover_timer.cancel()
        self._finish_success()

    def _finish_rejected(self) -> None:
        self._failover_timer.cancel()
        super()._finish_rejected()

    def _on_request_timeout(self) -> None:
        self._failover_timer.cancel()
        super()._on_request_timeout()


class LbrClient(SingleTargetClient):
    """Paxos_LBR client: a single REJECT from the leader aborts the operation."""

    def _on_reject(self, src: Address, message: Reject) -> None:
        self.metrics.note_reject_message(self.loop.now)
        if message.rid != self.current_rid:
            return
        self._finish_rejected()


class BroadcastClient(BaseClient):
    """A BFT-SMaRt-style client: multicast the request, first reply wins."""

    def _send_request(self, request: Request) -> None:
        self.network.multicast(self.address, self.replicas, request)
