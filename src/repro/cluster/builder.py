"""Cluster assembly: one function builds any of the paper's systems.

The registry maps the system names used throughout the evaluation to
their configuration, replica class and client class:

=============== ======================================================
``idem``          IDEM as presented in Sections 4-5 (AQM acceptance,
                  optimistic clients)
``idem-nopr``     IDEM with proactive rejection disabled
``idem-noaqm``    IDEM with plain tail-drop acceptance (Section 7.7)
``idem-pessimistic``  IDEM with pessimistic clients (Section 5.3)
``idem-cost``     IDEM with the cost-aware acceptance test (Section 5.1)
``idem-adaptive``  IDEM with the self-tuning reject threshold (Section 7.5)
``idem-multileader``  Mencius-style multi-leader IDEM (related-work claim)
``paxos``         Kirsch-Amir Paxos sharing IDEM's code base
``paxos-lbr``     Paxos with leader-based rejection (Section 3.3)
``bftsmart``      the BFT-SMaRt-like production-library stand-in
=============== ======================================================
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.app.kvstore import KeyValueStore
from repro.cluster.metrics import MetricsCollector
from repro.cluster.profile import ClusterProfile
from repro.core.client import IdemClient
from repro.core.config import IdemConfig
from repro.core.multileader import MultiLeaderIdemReplica
from repro.core.replica import IdemReplica
from repro.net.network import Network
from repro.protocols.base import BaseReplica
from repro.protocols.bftsmart.replica import BftSmartReplica
from repro.protocols.clients import (
    BaseClient,
    BroadcastClient,
    LbrClient,
    SingleTargetClient,
)
from repro.protocols.config import ProtocolConfig
from repro.protocols.paxos.config import PaxosConfig
from repro.protocols.paxos.replica import PaxosReplica
from repro.population.aggregate import AggregateClientNode
from repro.population.spec import PopulationSpec
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry
from repro.workload.schedule import LoadSchedule
from repro.workload.ycsb import YcsbWorkload

# How long after t=0 the last client starts (staggered ramp-up).
CLIENT_RAMP = 0.1


@dataclass
class SystemSpec:
    """Registry entry: how to build one system."""

    config_class: type
    replica_class: type
    client_class: type
    config_defaults: dict[str, Any]
    # CPU cost multiplier; None means "use the profile's BFT-SMaRt factor".
    cost_factor: Optional[float] = 1.0


SYSTEMS: dict[str, SystemSpec] = {
    "idem": SystemSpec(IdemConfig, IdemReplica, IdemClient, {}),
    "idem-nopr": SystemSpec(
        IdemConfig, IdemReplica, IdemClient, {"rejection_enabled": False}
    ),
    "idem-noaqm": SystemSpec(
        IdemConfig, IdemReplica, IdemClient, {"acceptance": "taildrop"}
    ),
    "idem-pessimistic": SystemSpec(
        IdemConfig, IdemReplica, IdemClient, {"optimistic_client": False}
    ),
    "idem-cost": SystemSpec(
        IdemConfig, IdemReplica, IdemClient, {"acceptance": "cost"}
    ),
    "idem-adaptive": SystemSpec(
        IdemConfig, IdemReplica, IdemClient, {"acceptance": "adaptive"}
    ),
    "idem-multileader": SystemSpec(
        IdemConfig, MultiLeaderIdemReplica, IdemClient, {}
    ),
    "paxos": SystemSpec(PaxosConfig, PaxosReplica, SingleTargetClient, {}),
    "paxos-lbr": SystemSpec(
        PaxosConfig, PaxosReplica, LbrClient, {"leader_rejection": True}
    ),
    "bftsmart": SystemSpec(
        ProtocolConfig, BftSmartReplica, BroadcastClient, {}, cost_factor=None
    ),
}


class Cluster:
    """A fully assembled system: loop, network, replicas, clients, metrics."""

    def __init__(
        self,
        system: str,
        loop: EventLoop,
        rng: RngRegistry,
        network: Network,
        config: ProtocolConfig,
        replicas: list[BaseReplica],
        clients: list[BaseClient],
        metrics: MetricsCollector,
        workload: YcsbWorkload,
        replica_factory: Optional[Callable[[int], BaseReplica]] = None,
    ):
        self.system = system
        self.loop = loop
        self.rng = rng
        self.network = network
        self.config = config
        self.replicas = replicas
        self.clients = clients
        self.metrics = metrics
        self.workload = workload
        # Builds a fresh replica for an index (crash-recovery rejoin).
        self.replica_factory = replica_factory
        self.recoveries = 0
        # Set by ObservabilityHub.attach (repro.obs); None when tracing
        # is disabled, which keeps the per-hook cost to one None check.
        self.observability = None

    def run_until(self, horizon: float) -> None:
        """Advance the simulation to ``horizon`` seconds."""
        self.loop.run_until(horizon)

    def crash_replica(self, index: int) -> None:
        """Crash replica ``index`` (processor halted, links severed)."""
        self.replicas[index].crash()

    def recover_replica(self, index: int) -> BaseReplica:
        """Rejoin crashed replica ``index`` with fresh volatile state.

        Crash-recovery without stable storage: the old incarnation's
        in-memory state is gone, so a *new* replica object (preloaded
        initial state machine, view 0, empty log) is attached under the
        reused address and catches up through the group's regular paths
        — DECIDED replay while instances are retained, checkpoint/state
        transfer once it is behind the window.  Recovering a live
        replica is a no-op (randomized schedules may race their own
        crashes).
        """
        old = self.replicas[index]
        if not old.halted:
            return old
        if self.replica_factory is None:
            raise ValueError("cluster was built without a replica factory")
        # Detach purges every trace of the old incarnation from the
        # fabric (crash marking, partitions, egress backlog, latency
        # degradation) so the newcomer starts from a clean slate.
        self.network.detach(old.address)
        replica = self.replica_factory(index)
        replica.incarnation = old.incarnation + 1
        replica.exec_observer = old.exec_observer
        if self.observability is not None:
            self.observability.attach_replica(replica)
        self.network.attach(replica)
        self.replicas[index] = replica
        self.recoveries += 1
        replica.bootstrap()
        return replica

    def current_leader(self) -> int:
        """Leader index of the highest view among live replicas."""
        views = [replica.view for replica in self.replicas if not replica.halted]
        return self.config.leader_of(max(views)) if views else -1

    def replica_stats(self) -> list[dict[str, float]]:
        """Per-replica protocol statistics plus CPU utilisation."""
        stats = []
        for replica in self.replicas:
            entry: dict[str, float] = dict(replica.stats)
            entry["utilization"] = replica.processor.utilization(self.loop.now)
            entry["view"] = replica.view
            stats.append(entry)
        return stats

    def client_stats(self) -> dict[str, float]:
        """Aggregate client-side resilience counters over all clients.

        ``load_amplification`` is the run's send amplification: every
        request copy put on the wire (first sends, retransmits,
        failovers, retries, hedges) divided by distinct commands.
        """
        totals = {
            "commands": 0,
            "sends": 0,
            "retries": 0,
            "hedges": 0,
            "give_ups": 0,
            "successes": 0,
            "rejections": 0,
            "timeouts": 0,
        }
        for client in self.clients:
            totals["commands"] += client.commands_started
            totals["sends"] += client.sends
            totals["retries"] += client.retries
            totals["hedges"] += client.hedges
            totals["give_ups"] += client.give_ups
            totals["successes"] += client.successes
            totals["rejections"] += client.rejections
            totals["timeouts"] += client.timeouts
        totals["load_amplification"] = (
            totals["sends"] / totals["commands"] if totals["commands"] else 1.0
        )
        return totals

    def stop_clients(self) -> None:
        """Stop all closed-loop clients (end of measurement)."""
        for client in self.clients:
            client.stop()


def build_config(
    system: str,
    profile: ClusterProfile,
    overrides: Optional[dict[str, Any]] = None,
) -> ProtocolConfig:
    """Build the protocol configuration for ``system`` under ``profile``."""
    spec = SYSTEMS[system]
    factor = (
        profile.bftsmart_cost_factor if spec.cost_factor is None else spec.cost_factor
    )
    values: dict[str, Any] = {
        "n": profile.n,
        "f": profile.f,
        "cost_client_request": profile.cost_client_request * factor,
        "cost_message": profile.cost_message * factor,
        "cost_per_id": profile.cost_per_id * factor,
        "cost_send": profile.cost_send * factor,
        "cost_per_byte": profile.cost_per_byte * factor,
        "cost_execution_overhead": profile.cost_execution_overhead * factor,
        "cpu_jitter_sigma": profile.cpu_jitter_sigma,
    }
    values.update(spec.config_defaults)
    if overrides:
        values.update(overrides)
    field_names = {f.name for f in dataclasses.fields(spec.config_class)}
    unknown = set(values) - field_names
    if unknown:
        raise ValueError(f"unknown config overrides for {system}: {sorted(unknown)}")
    return spec.config_class(**values)


def build_cluster(
    system: str,
    clients: int,
    seed: int = 0,
    profile: Optional[ClusterProfile] = None,
    overrides: Optional[dict[str, Any]] = None,
    window_start: float = 0.0,
    window_end: float = math.inf,
    schedule: Optional[LoadSchedule] = None,
    bucket_width: float = 0.25,
    stop_time: float = math.inf,
    fallback_factory: Optional[Callable[[int], Callable]] = None,
    start_clients: bool = True,
    population: Optional[PopulationSpec] = None,
) -> Cluster:
    """Assemble a ready-to-run cluster of ``system`` with ``clients`` clients.

    ``window_start``/``window_end`` bound the measurement window of the
    metrics collector (warm-up exclusion); ``schedule`` optionally
    activates only a subset of clients over time; ``fallback_factory``
    builds each semi-autonomous client's local fallback procedure
    (called with the client id, returns a callable taking the abandoned
    command).  Pass ``start_clients=False`` when an external driver
    (e.g. :class:`repro.workload.OpenLoopDriver`) owns client
    scheduling.

    When ``population`` is set the per-object clients are replaced by a
    single :class:`~repro.population.AggregateClientNode` standing in
    for all ``clients`` virtual clients, which lends their identities
    to a small pool of ``client_class`` objects (see
    ``docs/WORKLOADS.md``).  It needs a positive think time.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {sorted(SYSTEMS)}")
    if clients < 1:
        raise ValueError(f"need at least one client, got {clients}")
    profile = profile or ClusterProfile()
    spec = SYSTEMS[system]
    loop = EventLoop()
    rng = RngRegistry(seed)
    network = Network(
        loop,
        rng,
        latency_model=profile.latency_model(),
        loss_probability=profile.loss_probability,
        egress_bandwidth=profile.egress_bandwidth,
    )
    config = build_config(system, profile, overrides)
    if population is not None and population.think_time is not None:
        # The population's think time governs the whole run — including
        # the retry policies' timeout backoff, exactly as it would for
        # per-object clients configured with the same value.
        config = dataclasses.replace(config, think_time=population.think_time)
    metrics = MetricsCollector(window_start, window_end, bucket_width)
    workload = YcsbWorkload(profile.workload)

    def make_replica(index: int) -> BaseReplica:
        state_machine = KeyValueStore(base_execution_cost=profile.execution_cost)
        workload.preload(state_machine)
        return spec.replica_class(index, loop, network, config, state_machine, rng)

    replicas: list[BaseReplica] = []
    for index in range(config.n):
        replica = make_replica(index)
        network.attach(replica)
        replicas.append(replica)

    if population is not None:
        if fallback_factory is not None:
            raise ValueError(
                "the aggregate population backend does not support "
                "per-client fallback procedures"
            )
        if config.think_time <= 0.0:
            raise ValueError(
                "a population needs a positive think time (its arrival rate "
                f"is thinkers / Z), got {config.think_time}; zero-think "
                "closed-loop clients are the per-object backend: drop "
                "population= and run the same clients= directly"
            )
        node = AggregateClientNode(
            population,
            spec.client_class,
            loop,
            network,
            config,
            metrics,
            workload,
            rng,
            clients,
            stop_time=stop_time,
            schedule=schedule,
        )
        # The node is routed, not attached: replies to any fabricated
        # client address land on it.
        network.client_router = node
        if start_clients:
            node.start()
        return Cluster(
            system,
            loop,
            rng,
            network,
            config,
            replicas,
            [node],
            metrics,
            workload,
            replica_factory=make_replica,
        )

    client_nodes: list[BaseClient] = []
    for cid in range(clients):
        client = spec.client_class(
            cid,
            loop,
            network,
            config,
            metrics,
            workload,
            rng,
            stop_time=stop_time,
            schedule=schedule,
            fallback=fallback_factory(cid) if fallback_factory else None,
        )
        network.attach(client)
        client_nodes.append(client)
        if start_clients:
            client.start(at=CLIENT_RAMP * (cid + 1) / clients)

    return Cluster(
        system,
        loop,
        rng,
        network,
        config,
        replicas,
        client_nodes,
        metrics,
        workload,
        replica_factory=make_replica,
    )
