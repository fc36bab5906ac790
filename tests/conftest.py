"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.profile import ClusterProfile


def small_profile(**overrides) -> ClusterProfile:
    """A cluster profile with a small keyspace for fast test runs."""
    from dataclasses import replace

    from repro.workload.ycsb import WORKLOAD_UPDATE_HEAVY

    workload = replace(WORKLOAD_UPDATE_HEAVY, record_count=50)
    return ClusterProfile(workload=workload, **overrides)


def run_cluster(
    system: str = "idem",
    clients: int = 3,
    duration: float = 0.5,
    seed: int = 1,
    drain: float = 0.5,
    **kwargs,
) -> Cluster:
    """Build a small cluster, run it, stop the clients and drain.

    After draining, every live replica has executed everything that was
    agreed on, so cross-replica assertions are meaningful.
    """
    kwargs.setdefault("profile", small_profile())
    cluster = build_cluster(system, clients, seed=seed, stop_time=duration, **kwargs)
    cluster.run_until(duration)
    cluster.stop_clients()
    cluster.run_until(duration + drain)
    return cluster


def live_replicas(cluster: Cluster):
    return [replica for replica in cluster.replicas if not replica.halted]


def assert_replicas_consistent(cluster: Cluster) -> None:
    """All live replicas executed the same sequence of requests."""
    replicas = live_replicas(cluster)
    assert replicas, "no live replicas"
    transfers = sum(r.stats["state_transfers"] for r in replicas)
    if transfers == 0:
        assert len({r.exec_sqn for r in replicas}) == 1, (
            f"diverging exec positions: {[r.exec_sqn for r in replicas]}"
        )
        assert len({r.exec_order_digest for r in replicas}) == 1
    assert len({r.app.digest() for r in replicas}) == 1, "diverging app state"


def assert_active_index_consistent(replica) -> None:
    """An IDEM replica's per-client index holds exactly its active rids,
    each under its own client, and no client keeps an empty record."""
    indexed = set()
    for cid, (_, rids) in replica._client_active.items():
        assert rids, f"client {cid} keeps an empty record"
        assert all(rid[0] == cid for rid in rids)
        indexed.update(rids)
    assert indexed == set(replica.active)


def total_successes(cluster: Cluster) -> int:
    return sum(client.successes for client in cluster.clients)
