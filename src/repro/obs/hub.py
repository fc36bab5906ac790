"""The observability hub: one object wiring tracing and probing into a cluster.

Attach a hub to a built (not yet run) cluster and it drives the probe
sampler (:mod:`repro.obs.probes`) into its flight recorder every
:data:`~repro.obs.probes.SAMPLE_INTERVAL` of sim time.  A tracing hub
also gives every replica and client an observer facade (``node.obs``)
that records request lifecycles into its tracer.  Fault windows from a
:class:`~repro.cluster.faults.FaultSchedule` are annotated into both.

Observer-only contract: the sample tick is a pure *read* callback on
the event loop.  Scheduling it shifts the loop's internal sequence
numbers, but never the relative order of simulation events (ties
between simulation events keep their original scheduling order), and
it touches no protocol state and no RNG stream — so a run with a hub
attached produces byte-identical results to one without.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.obs.probes import SAMPLE_INTERVAL, ProbeSampler
from repro.obs.spans import FAULT, ClientObserver, ReplicaObserver, RequestTracer
from repro.obs.timeseries import FlightRecorder


class ObservabilityHub:
    """A flight recorder, and with ``trace=True`` a tracer, for one cluster.

    Tracing and probing share the one sample tick, so a traced run and
    a probes-only run see the identical event sequence.
    """

    def __init__(self, trace: bool = True):
        self.tracer: Optional[RequestTracer] = RequestTracer() if trace else None
        self.recorder = FlightRecorder()
        self._sampler = ProbeSampler(self.recorder)
        self.cluster = None
        self._sampling_until = -math.inf

    def attach(self, cluster, horizon: float) -> "ObservabilityHub":
        """Wire the hub into ``cluster`` and sample until ``horizon``."""
        self.cluster = cluster
        if self.tracer is not None:
            cluster.observability = self
            for replica in cluster.replicas:
                self.attach_replica(replica)
            for client in cluster.clients:
                client.obs = ClientObserver(self.tracer, client)
        self._sampling_until = horizon
        cluster.loop.call_after(SAMPLE_INTERVAL, self._sample_tick)
        return self

    def attach_replica(self, replica) -> None:
        """Attach a fresh observer to ``replica`` (also used on recovery)."""
        replica.obs = ReplicaObserver(self.tracer, replica)

    def _sample_tick(self) -> None:
        cluster = self.cluster
        self._sampler.sample(cluster)
        if cluster.loop.now + SAMPLE_INTERVAL <= self._sampling_until:
            cluster.loop.call_after(SAMPLE_INTERVAL, self._sample_tick)

    # -- fault-window annotation --------------------------------------

    def annotate_faults(self, schedule, horizon: float) -> None:
        """Record each fault of ``schedule`` as a window in both stores.

        Crashes extend to the matching recovery (or the horizon),
        partitions to the matching heal; duration-bearing faults carry
        their own end.  Windows land on the synthetic ``faults`` node.
        """
        from repro.cluster.faults import (
            CrashFault,
            HealFault,
            LatencySpike,
            LossWindow,
            PartitionFault,
            RecoverFault,
            SlowReplica,
        )

        faults = sorted(schedule.faults, key=lambda fault: fault.time)
        for position, fault in enumerate(faults):
            label = None
            end = fault.time
            if isinstance(fault, CrashFault):
                label = f"crash {fault.target}"
                end = horizon
                for later in faults[position + 1:]:
                    if isinstance(later, RecoverFault) and (
                        later.target is None or later.target == fault.target
                    ):
                        end = later.time
                        break
            elif isinstance(fault, PartitionFault):
                label = f"partition {fault.a}<->{fault.b}"
                end = horizon
                for later in faults[position + 1:]:
                    if isinstance(later, HealFault) and {later.a, later.b} == {
                        fault.a, fault.b,
                    }:
                        end = later.time
                        break
            elif isinstance(fault, LossWindow):
                label = f"loss p={fault.probability:.2f}"
                end = fault.time + fault.duration
            elif isinstance(fault, SlowReplica):
                label = f"slow replica-{fault.target} x{fault.factor:.1f}"
                end = fault.time + fault.duration
            elif isinstance(fault, LatencySpike):
                label = f"latency spike replica-{fault.target} x{fault.factor:.1f}"
                end = fault.time + fault.duration
            elif isinstance(fault, RecoverFault):
                continue  # represented as the end of its crash window
            else:
                label = fault.describe()
            end = min(end, horizon)
            if self.tracer is not None:
                self.tracer.emit(
                    fault.time, "faults", FAULT, None,
                    {"label": label, "begin": fault.time, "end": end},
                )
            self.recorder.mark(fault.time, end, str(label))
