"""One network node standing in for N closed-loop clients.

The :class:`AggregateClientNode` keeps what only a population can do —
and nothing that a client does.  N virtual clients in their think phase
are a *counter*, not objects: arrivals are an inhomogeneous Poisson
process at ``lambda_eff(t) = m(t) * thinkers(t) / Z`` (``m`` is the
MMPP/schedule modulation), integrated with the standard unit-exponential
residual so rate changes need no re-draws; the rate is re-derived on a
periodic *feedback tick* from the think-pool population — the analytic
stand-in for N per-client think timers.

Each arrival *lends* a virtual-client identity to a real protocol
client: the node draws a free cid from the seeded ``population.cids``
stream, takes an idle object of the system's registry client class from
a LIFO pool (building one only when the pool is empty, so client
objects are O(peak in-flight), not O(N)), stamps it with the cid and
the shared operation-number counter, and calls its ``_issue_next()``.
The node's own state is O(peak in-flight) too: a free cid is any id not
in the lent map.  Everything
that happens to the request — replies, rejections, the optimistic grace
period, timeouts, retransmissions, leader failover, retries, hedges —
is the client class's own code (``repro.protocols.clients`` /
``repro.core.client``); the client hands itself back through the same
``driver.client_finished`` hook
:class:`~repro.workload.open_loop.OpenLoopDriver` uses, and the virtual
client rejoins the think pool.

Identities stay safe for the replicas' at-most-once window: at most one
operation is in flight per cid (a lent cid is not free), and onrs come
from one monotone counter — a lent client starts from the node's
high-water mark and the node takes the client's back on return, so
per-cid onrs are strictly increasing across lends and retries.

The node is observer-pure in the same sense as the object clients: it
forwards its ``obs``/``reply_log`` hooks to whichever client it lends,
and they never feed back into timing.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.addresses import Address, client_address
from repro.net.message import Message
from repro.resilience import TokenBucket
from repro.sim.timers import Timer


def _summed(counter: str) -> property:
    """A BaseClient counter, summed over every client object built."""
    return property(
        lambda node: sum(getattr(client, counter) for client in node._clients)
    )


class AggregateClientNode:
    """N virtual closed-loop clients folded into one network node."""

    def __init__(
        self,
        population,
        client_class: type,
        loop,
        network,
        config,
        metrics,
        workload,
        rng,
        n_clients: int,
        stop_time: float = math.inf,
        schedule=None,
    ) -> None:
        if n_clients < 1:
            raise ValueError(f"need at least one virtual client, got {n_clients}")
        self.population = population
        self.loop = loop
        self.n_clients = n_clients
        self.stop_time = stop_time
        self.schedule = schedule
        # Nominal identity (the node is routed, not attached; every
        # message carries its lent client's per-virtual-client source).
        self.address = client_address(0)
        self.cid = "population"
        self.think_time = population.effective_think_time(config)

        self._cid_rng = rng.stream("population.cids")
        self._arrival_rng = rng.stream("population.arrivals")
        self._mmpp_rng = rng.stream("population.mmpp")

        self._client_class = client_class
        self._client_args = (loop, network, config, metrics, workload, rng)
        # Object clients own one retry budget each; the population
        # shares a single bucket scaled by N, keeping the population-wide
        # budget identical however few pool objects carry it.
        self._retry_budget: Optional[TokenBucket] = None
        if config.retry_policy != "none" and config.retry_budget_rate > 0.0:
            self._retry_budget = TokenBucket(
                config.retry_budget_rate * n_clients,
                max(1.0, config.retry_budget_cap * n_clients),
            )

        # Identity fabrication: a cid is free while it is not in _lent
        # (see _lend), and one monotone operation-number counter is
        # shared by all cids.
        self._onr = 0
        self._clients: list = []  # every client object built
        self._pool: list = []  # the idle ones (LIFO)
        self._lent: dict[int, object] = {}  # cid -> client, in flight

        self._think = 0  # think-pool population
        self._lambda = 0.0
        self._exp_remaining = 0.0  # residual of the unit-exponential draw
        self._int_anchor = 0.0  # time the residual was last consumed to
        self._arrival_timer = Timer(loop, self._on_arrival)
        self._mmpp_burst = False
        self._mmpp_timer = Timer(loop, self._on_mmpp_flip)
        self._reject_to_think = population.reject_reentry == "think"

        self.stopped = False
        self.arrivals_generated = 0
        self.lost_arrivals = 0  # arrivals that found no thinker
        self.feedback_ticks = 0
        # Forwarded to each client as it is lent (SafetyChecker / hub).
        self.reply_log: Optional[list] = None
        self.obs = None

    # -- compatibility surface ------------------------------------------

    # Cluster.client_stats reads these BaseClient attribute names.
    commands_started = _summed("commands_started")
    sends = _summed("sends")
    retries = _summed("retries")
    hedges = _summed("hedges")
    give_ups = _summed("give_ups")
    successes = _summed("successes")
    rejections = _summed("rejections")
    timeouts = _summed("timeouts")

    def probe_state(self) -> dict[str, float]:
        """BaseClient's probe counters plus aggregate-pool gauges."""
        state: dict[str, float] = {}
        for client in self._clients:
            for name, value in client.probe_state().items():
                state[name] = state.get(name, 0.0) + value
        state["virtual_clients"] = float(self.n_clients)
        state["active_requests"] = float(len(self._lent))
        state["think_pool"] = float(self._think)
        return state

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin generating load: all N virtual clients start thinking."""
        self._think = self.n_clients
        self._exp_remaining = self._arrival_rng.expovariate(1.0)
        self._int_anchor = self.loop.now
        self._refresh_rate()
        if self.population.process == "mmpp":
            self._mmpp_timer.start(
                self._mmpp_rng.expovariate(1.0 / self.population.dwell_normal)
            )
        self._schedule_tick()

    def stop(self) -> None:
        """Stop issuing new operations (pending ones are abandoned)."""
        self.stopped = True
        self._arrival_timer.cancel()
        self._mmpp_timer.cancel()
        for client in self._lent.values():
            client.stop()

    # -- lending ----------------------------------------------------------

    def _new_client(self):
        """Build one more pool object of the system's client class.

        All are built under the node's cid, so the registry hands every
        one of them the same ops / timing / resilience streams: draws
        depend on event order only, never on how many objects exist.
        """
        client = self._client_class(
            self.cid, *self._client_args, stop_time=self.stop_time
        )
        client.driver = self
        if self._retry_budget is not None:
            client.retry_policy.budget = self._retry_budget
        self._clients.append(client)
        return client

    def _lend(self) -> None:
        """Lend a free virtual-client identity to a pooled client."""
        if self.stopped or self.loop.now >= self.stop_time:
            return
        # Draw a currently-idle virtual client id, uniformly: redrawing
        # a lent id is uniform over the free ids, at lent / (N - lent)
        # expected redraws.  Every virtual client is thinking, lent or
        # waiting on a backoff re-entry (think + lent + backing-off = N),
        # and a lend is reached only from an arrival that took a thinker
        # or from a re-entry, so at least one id is free and this ends.
        cid = self._cid_rng.randrange(self.n_clients)
        while cid in self._lent:
            cid = self._cid_rng.randrange(self.n_clients)
        client = self._pool.pop() if self._pool else self._new_client()
        client.cid = cid
        client.address = client_address(cid)
        client.onr = self._onr
        client.obs = self.obs
        client.reply_log = self.reply_log
        self._lent[cid] = client
        client._issue_next()

    def client_finished(self, client, delay: float, outcome: str) -> None:
        """A lent client's operation ended: take the client and its cid
        back, and recycle the virtual client.

        Success and timeout return it to the think pool (a timeout's
        ``delay`` *is* the think time).  A rejection's 50-100 ms backoff
        gets a precise re-issue event — unless the population opts into
        "think" re-entry, where the rejected virtual client (served by
        its fallback) rejoins the think pool and rejection sheds load.
        """
        self._onr = max(self._onr, client.onr)
        del self._lent[client.cid]
        self._pool.append(client)
        if outcome == "reject" and not self._reject_to_think:
            self.loop.call_after(delay, self._lend)
        else:
            self._think += 1

    def deliver(self, src: Address, message: Message) -> None:
        """Route a reply or rejection to the client holding its cid.

        A late message for a cid already returned goes to any client
        object, which ignores it exactly as an object client ignores a
        message for an operation it has finished (and still counts a
        late REJECT into ``metrics.reject_gaps``).
        """
        client = self._lent.get(message.rid[0]) or self._clients[0]
        client.deliver(src, message)

    # -- aggregate arrival process ---------------------------------------

    def _current_rate(self, now: float) -> float:
        rate = self._think / self.think_time
        if self.schedule is not None:
            # Proportional thinning: only the scheduled fraction of the
            # population participates.
            frac = self.schedule.active_clients(now) / self.n_clients
            rate *= min(1.0, max(0.0, frac))
        if self._mmpp_burst:
            rate *= self.population.burst_multiplier
        return rate

    def _refresh_rate(self) -> None:
        """Re-derive lambda_eff and re-arm the next-arrival timer.

        Uses the unit-exponential integral: an arrival fires once the
        integral of lambda(t) dt reaches the pending Exp(1) draw, so a
        rate change only rescales the residual wait — no re-draws, and
        the process stays exact for piecewise-constant rates.
        """
        now = self.loop.now
        lam = self._lambda
        if lam > 0.0:
            consumed = lam * (now - self._int_anchor)
            self._exp_remaining = max(0.0, self._exp_remaining - consumed)
        self._int_anchor = now
        self._lambda = self._current_rate(now)
        if self._lambda <= 0.0 or now >= self.stop_time:
            self._arrival_timer.cancel()
            return
        self._arrival_timer.start(self._exp_remaining / self._lambda)

    def _on_arrival(self) -> None:
        now = self.loop.now
        if self.stopped or now >= self.stop_time:
            return
        self._int_anchor = now
        self._exp_remaining = self._arrival_rng.expovariate(1.0)
        self.arrivals_generated += 1
        if self._think > 0:
            self._think -= 1
            self._lend()
        else:
            # lambda_eff is re-derived on the tick; until then a drained
            # think pool can still fire — drop silently, like a Poisson
            # thinning step.
            self.lost_arrivals += 1
        if self._lambda > 0.0:
            self._arrival_timer.start(self._exp_remaining / self._lambda)

    def _on_mmpp_flip(self) -> None:
        if self.stopped or self.loop.now >= self.stop_time:
            return
        self._mmpp_burst = not self._mmpp_burst
        dwell = (
            self.population.dwell_burst
            if self._mmpp_burst
            else self.population.dwell_normal
        )
        self._mmpp_timer.start(self._mmpp_rng.expovariate(1.0 / dwell))
        self._refresh_rate()

    # -- feedback tick ----------------------------------------------------

    def _schedule_tick(self) -> None:
        interval = self.population.feedback_interval
        if self.loop.now + interval <= self.stop_time:
            self.loop.call_after(interval, self._tick)

    def _tick(self) -> None:
        if self.stopped:
            return
        self.feedback_ticks += 1
        self._refresh_rate()
        self._schedule_tick()
