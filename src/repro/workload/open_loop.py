"""Open-loop (Poisson) load generation.

Closed-loop clients self-limit: when latency grows, their request rate
drops.  Real edge populations (Section 2.3's game players, web
frontends) do not — arrivals keep coming regardless of how slow the
service is, which is exactly the regime where overload turns
*metastable*.  The :class:`OpenLoopDriver` generates request arrivals at
a (possibly time-varying) Poisson rate and hands each one to an idle
client from a finite pool; arrivals that find no idle client count as
*shed* load (an unbounded queue would otherwise make every experiment
end in trivial collapse).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.sim.loop import EventLoop

RateLike = Union[float, Callable[[float], float]]

# Re-check cadence while the rate is zero and the driver cannot know
# when it will change (opaque rate callables only; ArrivalSpec plans
# suspend until the exact phase boundary instead).
_ZERO_RATE_POLL = 0.01


@dataclass(frozen=True)
class ArrivalSpec:
    """A serialisable piecewise-constant Poisson arrival plan.

    ``steps`` is ``[(start_time, rate), ...]`` sorted by start time;
    before the first step the rate is zero.  Being a frozen dataclass of
    primitives (like the fault types), an :class:`ArrivalSpec` rides a
    :class:`~repro.cluster.runner.RunSpec` through the campaign
    planner's JSON payloads, which is what makes open-loop experiments
    (the retry-storm family) cacheable and distributable.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("arrival spec needs at least one step")
        times = [time for time, _ in self.steps]
        if times != sorted(times):
            raise ValueError("arrival steps must be sorted by time")
        if any(rate < 0.0 for _, rate in self.steps):
            raise ValueError("arrival rates must be non-negative")

    def rate_at(self, time: float) -> float:
        """The instantaneous arrival rate at simulated ``time``.

        Phase boundaries belong to the *new* phase: at exactly
        ``time == start`` the step's rate applies (``>=``), so an
        arrival landing precisely on a boundary deterministically draws
        its next gap from the new rate.
        """
        rate = 0.0
        for start, step_rate in self.steps:
            if time >= start:
                rate = step_rate
            else:
                break
        return rate

    def next_change(self, time: float) -> Optional[float]:
        """The first phase-boundary time strictly after ``time``.

        ``None`` once the last phase has begun — the rate is constant
        from there on, which lets a driver sleeping through a zero-rate
        phase suspend itself forever instead of polling.
        """
        for start, _ in self.steps:
            if start > time:
                return start
        return None

    def max_rate(self) -> float:
        """The plan's peak rate (pool-sizing aid)."""
        return max(rate for _, rate in self.steps)


class OpenLoopDriver:
    """Drives a pool of protocol clients with Poisson arrivals.

    ``rate`` is a constant (arrivals per second), a callable mapping
    simulated time to the instantaneous rate (piecewise rates model
    load spikes), or an :class:`ArrivalSpec` — the spec form draws the
    identical arrival sequence as passing ``spec.rate_at`` but lets the
    driver *suspend* through zero-rate phases (sleep until the exact
    phase boundary) instead of polling.  Clients must be built by the
    cluster builder but not started; the driver takes ownership of
    their scheduling.
    """

    def __init__(
        self,
        loop: EventLoop,
        clients: list,
        rate: Union[RateLike, ArrivalSpec],
        rng,
        stop_time: float = float("inf"),
    ):
        if not clients:
            raise ValueError("open-loop driver needs at least one client")
        self.loop = loop
        self.clients = clients
        if isinstance(rate, ArrivalSpec):
            self._spec: Optional[ArrivalSpec] = rate
            self.rate: RateLike = rate.rate_at
        else:
            self._spec = None
            self.rate = rate
        self.rng = rng
        self.stop_time = stop_time
        self._idle: deque = deque(clients)
        for client in clients:
            client.driver = self
        self.arrivals = 0
        self.shed_arrivals = 0

    # -- arrival process -------------------------------------------------

    def start(self, at: float = 0.0) -> None:
        """Begin generating arrivals at simulated time ``at``."""
        self.loop.call_at(at, self._arrival)

    def current_rate(self) -> float:
        """The instantaneous arrival rate at the current simulated time."""
        if callable(self.rate):
            return max(0.0, self.rate(self.loop.now))
        return self.rate

    def _arrival(self) -> None:
        now = self.loop.now
        if now >= self.stop_time:
            return
        rate = self.current_rate()
        if rate <= 0.0:
            # No load right now.  With a declarative plan we know the
            # exact next phase boundary: sleep until it (or suspend
            # forever if the rate stays zero) — no busy-wait churn.
            # Opaque callables still need the short re-check poll.
            if self._spec is not None:
                boundary = self._spec.next_change(now)
                if boundary is not None and boundary < self.stop_time:
                    self.loop.call_at(boundary, self._arrival)
                return
            self.loop.call_after(_ZERO_RATE_POLL, self._arrival)
            return
        self.arrivals += 1
        if self._idle:
            client = self._idle.popleft()
            client._issue_next()
        else:
            self.shed_arrivals += 1
        self.loop.call_after(self.rng.expovariate(rate), self._arrival)

    # -- client pool -------------------------------------------------------

    def client_finished(self, client, delay: float, outcome: str) -> None:
        """Called by a client when its operation completes or aborts.

        ``delay`` is the client's requested unavailability (e.g. the
        post-rejection backoff); the client only rejoins the idle pool
        afterwards, whatever the ``outcome`` was.
        """
        if delay > 0:
            self.loop.call_after(delay, self._idle.append, client)
        else:
            self._idle.append(client)

    @property
    def busy_clients(self) -> int:
        """Clients currently executing (or backing off from) an operation."""
        return len(self.clients) - len(self._idle)


def spike_rate(
    base: float, spike: float, start: float, duration: float
) -> Callable[[float], float]:
    """A rate function with one load spike: ``base`` everywhere, ``spike``
    during ``[start, start + duration)``."""
    def rate(time: float) -> float:
        if start <= time < start + duration:
            return spike
        return base

    return rate
