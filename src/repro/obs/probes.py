"""The probe layer: periodic sampling of protocol-internal state.

Where :mod:`repro.obs.spans` traces *request lifecycles* (events), the
probe layer samples *replica state* (levels): active-set occupancy,
admission threshold, queue depth, busy fraction, in-flight consensus
rounds, timer population, and the client population's retry
amplification.  Each protocol object answers through one introspection
method, ``probe_state()``, returning a flat ``{series name: float}``
dict; the sampler records every entry into the flight recorder
(:mod:`repro.obs.timeseries`) under the node's name.

``probe_state`` implementations live on the protocol classes
(``BaseReplica`` and its paxos/bftsmart/IDEM subclasses, and
``BaseClient``) because only they know their own state dicts; the
contract is that the method is **read-only** and returns plain floats.
The observability hub drives the sampler every :data:`SAMPLE_INTERVAL`
of sim time; that tick is the only loop event ``repro.obs`` schedules.

Derived series the sampler computes from deltas between ticks:

* ``busy_frac`` — processor busy time accrued this tick / interval;
* ``reject_rate`` / ``exec_rate`` — rejections / executions per second
  this tick;
* ``retry_amplification`` / ``max_retry_amplification`` — wire sends
  per started command, aggregated and worst-case over all clients.

Per-client series are aggregated onto the synthetic node ``"clients"``
(summing counters over the population) so recorder size is independent
of the client count; the event loop contributes a ``"sim"`` node with
its pending-event population.  A halted replica reports only ``up=0``
— its state dicts are in a pre-recovery limbo not worth charting.

Observer-purity contract: this module only *reads* protocol state and
writes to the recorder it owns.  It never schedules events, draws
randomness, or mutates simulation objects (enforced at run time by
``tools/overhead_guard.py``, which requires bare, traced and probed runs
of the same seed to measure identically).
"""

from __future__ import annotations

from repro.obs.timeseries import FlightRecorder

#: Sim-time seconds between two probe passes.
SAMPLE_INTERVAL = 0.01


class ProbeSampler:
    """Samples every probeable node of a cluster into a recorder.

    Holds the tick-to-tick state needed for derived rate series (last
    busy time, last counter totals per node) — observer-side bookkeeping
    only, keyed by node name so replica recovery (a fresh object under
    the same name) keeps the delta baseline.
    """

    def __init__(self, recorder: FlightRecorder):
        self.recorder = recorder
        self._last_busy: dict[str, float] = {}
        self._last_rejected: dict[str, float] = {}
        self._last_executed: dict[str, float] = {}

    def sample(self, cluster) -> None:
        """Record one probe sample of every node at the cluster's now."""
        now = cluster.loop.now
        recorder = self.recorder
        recorder.record(now, "sim", "pending_events", float(cluster.loop.pending_events))

        for replica in cluster.replicas:
            node = f"replica-{replica.index}"
            if replica.halted:
                recorder.record(now, node, "up", 0.0)
                continue
            recorder.record(now, node, "up", 1.0)
            state = replica.probe_state()
            for name in sorted(state):
                recorder.record(now, node, name, float(state[name]))
            self._record_rates(now, node, state)

        self._sample_clients(now, cluster)

    def _record_rates(self, now: float, node: str, state: dict) -> None:
        """Derived per-tick series: busy fraction and event rates."""
        busy = state.get("busy_time", 0.0)
        previous_busy = self._last_busy.get(node, 0.0)
        self._last_busy[node] = busy
        # A recovery gap spans several ticks of accrued busy time; the
        # clamp keeps the fraction honest after it.
        busy_frac = min(1.0, max(0.0, busy - previous_busy) / SAMPLE_INTERVAL)
        recorder = self.recorder
        recorder.record(now, node, "busy_frac", busy_frac)

        rejected = state.get("rejected_total", 0.0)
        previous_rejected = self._last_rejected.get(node, 0.0)
        self._last_rejected[node] = rejected
        rate = max(0.0, rejected - previous_rejected) / SAMPLE_INTERVAL
        recorder.record(now, node, "reject_rate", rate)

        executed = state.get("executed_total", 0.0)
        previous_executed = self._last_executed.get(node, 0.0)
        self._last_executed[node] = executed
        rate = max(0.0, executed - previous_executed) / SAMPLE_INTERVAL
        recorder.record(now, node, "exec_rate", rate)

    def _sample_clients(self, now: float, cluster) -> None:
        """Aggregate the client population onto the ``clients`` node."""
        totals: dict[str, float] = {}
        max_amplification = 0.0
        for client in cluster.clients:
            state = client.probe_state()
            for name, value in sorted(state.items()):
                totals[name] = totals.get(name, 0.0) + float(value)
            commands = state.get("commands", 0.0)
            if commands > 0:
                amplification = state.get("sends", 0.0) / commands
                if amplification > max_amplification:
                    max_amplification = amplification
        recorder = self.recorder
        for name in sorted(totals):
            recorder.record(now, "clients", name, totals[name])
        commands = totals.get("commands", 0.0)
        amplification = totals.get("sends", 0.0) / commands if commands > 0 else 0.0
        recorder.record(now, "clients", "retry_amplification", amplification)
        recorder.record(now, "clients", "max_retry_amplification", max_amplification)
