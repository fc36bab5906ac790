"""Tests for the Mencius-style multi-leader IDEM variant.

The paper's related-work claim: collaborative overload prevention
integrates into multi-leader protocols with little adjustment.  The
variant partitions the sequence space in the fault-free fast mode,
routes REQUIREs to per-client coordinators, skips idle slots, and falls
back to single-leader IDEM through the ordinary view change on any
crash suspicion.
"""

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.faults import FaultSchedule

from tests.conftest import (
    assert_replicas_consistent,
    live_replicas,
    run_cluster,
    small_profile,
    total_successes,
)


class TestFastMode:
    def test_operations_complete(self):
        cluster = run_cluster("idem-multileader", clients=6, duration=0.5)
        assert total_successes(cluster) > 100

    def test_replicas_stay_consistent(self):
        cluster = run_cluster("idem-multileader", clients=6, duration=0.5)
        assert_replicas_consistent(cluster)

    def test_no_single_proposer(self):
        """Every replica proposes — the defining multi-leader property."""
        cluster = run_cluster("idem-multileader", clients=6, duration=0.5)
        proposals = [replica.stats["proposals"] for replica in cluster.replicas]
        assert all(count > 0 for count in proposals)
        assert max(proposals) < 2 * min(proposals)  # roughly even

    def test_replies_come_from_coordinators(self):
        cluster = run_cluster("idem-multileader", clients=6, duration=0.5)
        replies = [replica.stats["replies_sent"] for replica in cluster.replicas]
        assert all(count > 0 for count in replies)

    def test_coordinator_assignment_is_by_client_id(self):
        cluster = run_cluster("idem-multileader", clients=6, duration=0.3)
        replica = cluster.replicas[0]
        for cid in range(6):
            assert replica.coordinator_of((cid, 1)) == cid % 3

    def test_slot_ownership_partitions_the_sequence_space(self):
        cluster = run_cluster("idem-multileader", clients=6, duration=0.3)
        replica = cluster.replicas[0]
        assert replica.owner_of(1) == 0
        assert replica.owner_of(2) == 1
        assert replica.owner_of(3) == 2
        assert replica.owner_of(4) == 0

    def test_idle_owners_skip_their_slots(self):
        """With one client, only one coordinator proposes; the others
        must release their slots for execution to stay contiguous."""
        cluster = run_cluster("idem-multileader", clients=1, duration=0.4)
        skips = [replica.stats["skips"] for replica in cluster.replicas]
        assert sum(skips) > 0
        assert cluster.replicas[0].stats["skips"] == 0  # the busy coordinator
        assert_replicas_consistent(cluster)

    def test_rejection_works_in_fast_mode(self):
        cluster = run_cluster(
            "idem-multileader",
            clients=20,
            duration=0.6,
            overrides={"reject_threshold": 2},
        )
        assert sum(r.stats["rejected"] for r in cluster.replicas) > 0
        assert sum(c.rejections for c in cluster.clients) > 0
        assert all(c.successes > 0 for c in cluster.clients)
        # The latency plateau survives the ordering change.
        assert cluster.metrics.latency_summary().mean < 2.0e-3

    def test_throughput_comparable_to_single_leader(self):
        multi = run_cluster("idem-multileader", clients=10, duration=0.6)
        single = run_cluster("idem", clients=10, duration=0.6)
        assert total_successes(multi) > 0.7 * total_successes(single)


class TestCrashFallback:
    def crash_run(self, target_index: int):
        cluster = build_cluster(
            "idem-multileader",
            9,
            seed=1,
            profile=small_profile(),
            overrides={"view_change_timeout": 0.4},
            stop_time=3.0,
        )
        FaultSchedule().crash_replica(0.5, target_index).install(cluster)
        cluster.run_until(3.0)
        cluster.stop_clients()
        cluster.run_until(4.5)
        return cluster

    @pytest.mark.parametrize("target_index", [0, 1, 2])
    def test_any_crash_falls_back_to_single_leader(self, target_index):
        cluster = self.crash_run(target_index)
        survivors = live_replicas(cluster)
        assert all(replica.view >= 1 for replica in survivors)
        assert not replica_is_halted(cluster, cluster.current_leader())
        post = cluster.metrics.reply_counter.rate_between(2.0, 3.0)
        assert post > 0
        assert len({r.app.digest() for r in survivors}) == 1

    def test_clients_of_the_dead_coordinator_recover(self):
        cluster = self.crash_run(1)
        # Clients 1, 4, 7 were coordinated by the dead replica.
        for cid in (1, 4, 7):
            assert cluster.clients[cid].successes > 0

    def test_rejection_continues_through_a_crash(self):
        """Collaborative rejection needs no leader, so an overloaded
        group keeps rejecting while it falls back to single-leader mode."""
        cluster = build_cluster(
            "idem-multileader",
            30,
            seed=1,
            profile=small_profile(),
            overrides={"view_change_timeout": 0.4, "reject_threshold": 10},
            stop_time=2.0,
        )
        FaultSchedule().crash_replica(0.5, 1).install(cluster)
        cluster.run_until(2.0)
        metrics = cluster.metrics
        assert metrics.reject_gaps.longest_gap_overlapping(0.5, until=2.0) < 0.5
        pre = metrics.reply_counter.rate_between(0.1, 0.5)
        assert metrics.reply_counter.rate_between(1.25, 2.0) > 0.5 * pre

    def test_fast_mode_is_not_reentered(self):
        cluster = self.crash_run(2)
        survivors = live_replicas(cluster)
        assert all(not replica.fast_mode for replica in survivors)


def replica_is_halted(cluster, index: int) -> bool:
    return cluster.replicas[index].halted
