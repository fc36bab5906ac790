"""Tests for the fault-plan DSL, crash recovery, and the chaos runner."""

import tracemalloc

import pytest

from repro.cluster import chaos as chaos_module
from repro.cluster.builder import build_cluster
from repro.cluster.chaos import (
    ChaosOptions,
    SafetyChecker,
    generate_plan,
    run_chaos,
)
from repro.cluster.faults import (
    CrashFault,
    FaultSchedule,
    HealFault,
    LatencySpike,
    LossWindow,
    PartitionFault,
    RecoverFault,
    SlowReplica,
    resolve_target,
)
from repro.net.addresses import replica_address
from repro.net.latency import ConstantLatency
from repro.net.network import Network, NetworkNode
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry

from tests.conftest import assert_active_index_consistent, small_profile


class TestFaultTargeting:
    """Regression tests for crash-target resolution edge cases."""

    def test_out_of_range_index_is_ignored(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        assert resolve_target(cluster, 99) is None
        assert resolve_target(cluster, -1) is None

    def test_out_of_range_crash_fault_fires_without_error(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        FaultSchedule().crash_replica(0.01, 99).install(cluster)
        cluster.run_until(0.05)  # must not raise
        assert all(not replica.halted for replica in cluster.replicas)

    def test_leader_target_with_all_replicas_down(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        for index in range(len(cluster.replicas)):
            cluster.crash_replica(index)
        assert resolve_target(cluster, "leader") is None
        assert resolve_target(cluster, "follower") is None

    def test_crashing_an_already_halted_index_is_a_noop(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        cluster.crash_replica(1)
        assert resolve_target(cluster, 1) is None
        FaultSchedule().crash_replica(0.01, 1).install(cluster)
        cluster.run_until(0.05)  # must not raise
        assert sum(replica.halted for replica in cluster.replicas) == 1

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            CrashFault(-1.0, "leader")
        with pytest.raises(ValueError):
            CrashFault(1.0, "bystander")
        with pytest.raises(ValueError):
            LossWindow(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            SlowReplica(1.0, 0, 0.5, 1.0)
        with pytest.raises(ValueError):
            LatencySpike(1.0, 0, 3.0, -0.1)

    def test_schedule_chaining_and_describe(self):
        schedule = (
            FaultSchedule()
            .crash_leader(1.0)
            .recover_replica(2.0)
            .partition_replicas(3.0, 0, 1)
            .heal_replicas(4.0, 0, 1)
            .loss_window(5.0, 0.5, 0.1)
            .slow_replica(6.0, 1, 2.0, 0.5)
            .latency_spike(7.0, 2, 4.0, 0.5)
        )
        assert len(schedule.faults) == 7
        described = schedule.describe()
        assert described[0].startswith("t=1.000 CrashFault")
        assert described == sorted(described, key=lambda s: float(s[2:7]))


class _Sink(NetworkNode):
    def __init__(self, address):
        self.address = address
        self.received = []

    def deliver(self, src, message):
        self.received.append((src, message))


class _Probe:
    """Minimal message with the Network's expected interface."""

    def type_name(self):
        return "probe"

    def size_bytes(self):
        return 100


class TestDetachPurgesState:
    def _network(self, egress=None):
        loop = EventLoop()
        return loop, Network(
            loop,
            RngRegistry(0),
            latency_model=ConstantLatency(0.001),
            egress_bandwidth=egress,
        )

    def test_detach_clears_crash_marking(self):
        loop, network = self._network()
        a = replica_address(0)
        network.attach(_Sink(a))
        network.crash(a)
        network.detach(a)
        assert not network.is_crashed(a)

    def test_detach_clears_partitions_and_egress(self):
        loop, network = self._network(egress=1000.0)
        a, b = replica_address(0), replica_address(1)
        network.attach(_Sink(a))
        network.attach(_Sink(b))
        network.send(a, b, _Probe())  # queues serialisation backlog on a
        assert network.egress_backlog(a) > 0
        network.partition(a, b)
        network.detach(a)
        assert network.egress_backlog(a) == 0.0
        # Re-attach under the same address: the partition must be gone.
        fresh = _Sink(a)
        network.attach(fresh)
        sink_b = network.node(b)
        network.send(a, b, _Probe())
        loop.run_until(1.0)
        # Both the in-flight and the fresh message deliver: detach purged
        # the partition, so neither is dropped at delivery time.
        assert len(sink_b.received) == 2

    def test_detach_clears_latency_scale(self):
        _, network = self._network()
        a = replica_address(0)
        network.attach(_Sink(a))
        network.set_latency_scale(a, 5.0)
        network.detach(a)
        assert network.latency_scale(a) == 1.0


class TestPartitionHealDelivery:
    def test_message_in_flight_across_a_heal_is_delivered(self):
        loop = EventLoop()
        network = Network(loop, RngRegistry(0), latency_model=ConstantLatency(0.010))
        a, b = replica_address(0), replica_address(1)
        sink = _Sink(b)
        network.attach(_Sink(a))
        network.attach(sink)
        network.send(a, b, _Probe())  # arrives at t=10 ms
        loop.run_until(0.002)
        network.partition(a, b)  # partition forms mid-flight...
        loop.run_until(0.005)
        network.heal(a, b)  # ...and heals before delivery
        loop.run_until(0.020)
        assert len(sink.received) == 1

    def test_message_in_flight_into_an_unhealed_partition_is_dropped(self):
        loop = EventLoop()
        network = Network(loop, RngRegistry(0), latency_model=ConstantLatency(0.010))
        a, b = replica_address(0), replica_address(1)
        sink = _Sink(b)
        network.attach(_Sink(a))
        network.attach(sink)
        network.send(a, b, _Probe())
        loop.run_until(0.002)
        network.partition(a, b)
        loop.run_until(0.020)
        assert sink.received == []
        assert network.dropped_messages == 1


class TestRecovery:
    def test_recovered_replica_catches_up(self):
        cluster = build_cluster(
            "idem", 4, seed=1, profile=small_profile(), stop_time=2.0
        )
        cluster.run_until(0.8)
        cluster.crash_replica(1)
        cluster.run_until(1.5)
        recovered = cluster.recover_replica(1)
        assert recovered.incarnation == 1
        assert not cluster.network.is_crashed(recovered.address)
        cluster.run_until(2.0)
        cluster.stop_clients()
        cluster.run_until(3.0)
        positions = [replica.exec_sqn for replica in cluster.replicas]
        lag = max(positions) - min(positions)
        assert lag <= cluster.replicas[0]._lag_threshold()
        digests = {replica.app.digest() for replica in cluster.replicas}
        assert len(digests) == 1
        assert recovered.stats["state_transfers"] >= 1

    def test_recovering_a_live_replica_is_a_noop(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        replica = cluster.replicas[2]
        assert cluster.recover_replica(2) is replica
        assert cluster.recoveries == 0

    def test_recover_fault_without_target_recovers_all_crashed(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        cluster.crash_replica(1)
        RecoverFault(0.0, None).fire(cluster)
        assert not cluster.replicas[1].halted
        assert cluster.recoveries == 1

    def test_scheduled_crash_recover_cycle(self):
        cluster = build_cluster(
            "paxos", 3, seed=2, profile=small_profile(), stop_time=2.5
        )
        schedule = FaultSchedule().crash_leader(0.8).recover_replica(1.6)
        schedule.install(cluster)
        cluster.run_until(2.5)
        cluster.stop_clients()
        cluster.run_until(4.0)
        assert all(not replica.halted for replica in cluster.replicas)
        assert cluster.recoveries == 1
        digests = {replica.app.digest() for replica in cluster.replicas}
        assert len(digests) == 1


class TestGrayFailures:
    def test_slow_replica_degrades_and_restores_speed(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        SlowReplica(0.0, 1, 4.0, 0.5).fire(cluster)
        assert cluster.replicas[1].processor.speed == pytest.approx(0.25)
        cluster.run_until(0.6)
        assert cluster.replicas[1].processor.speed == pytest.approx(1.0)

    def test_latency_spike_sets_and_clears_scale(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        address = cluster.replicas[2].address
        LatencySpike(0.0, 2, 6.0, 0.5).fire(cluster)
        assert cluster.network.latency_scale(address) == pytest.approx(6.0)
        cluster.run_until(0.6)
        assert cluster.network.latency_scale(address) == 1.0

    def test_loss_window_restores_base_probability(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        base = cluster.network.loss_probability
        LossWindow(0.0, 0.5, 0.2).fire(cluster)
        assert cluster.network.loss_probability == pytest.approx(0.2)
        cluster.run_until(0.6)
        assert cluster.network.loss_probability == pytest.approx(base)

    def test_gray_faults_on_crashed_or_invalid_targets_are_noops(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        cluster.crash_replica(0)
        SlowReplica(0.0, 0, 4.0, 0.5).fire(cluster)  # halted target
        SlowReplica(0.0, 99, 4.0, 0.5).fire(cluster)  # out of range
        LatencySpike(0.0, 99, 4.0, 0.5).fire(cluster)
        assert cluster.replicas[0].processor.speed == pytest.approx(1.0)


class TestSafetyChecker:
    """Exact violation lists: every string and its order are pinned."""

    class _FakeReplica:
        def __init__(self, index, incarnation=0):
            self.index = index
            self.incarnation = incarnation

    A, B = _FakeReplica(0), _FakeReplica(1)
    OLD, NEW = _FakeReplica(0, incarnation=0), _FakeReplica(0, incarnation=1)

    @staticmethod
    def _violations(executions):
        checker = SafetyChecker()
        for replica, sqn, rid in executions:
            checker._note_execution(replica, sqn, rid)
        checker._check_agreement()
        return checker.violations

    def test_detects_divergent_batches(self):
        assert self._violations([(self.A, 1, (1, 1)), (self.B, 1, (2, 1))]) == [
            "agreement: divergent batches at sqn 1 across replicas "
            "[(0, 0), (1, 0)]: [((1, 1),), ((2, 1),)]"
        ]

    def test_detects_double_execution_on_one_incarnation(self):
        assert self._violations([(self.A, 1, (1, 1)), (self.A, 2, (1, 1))]) == [
            "at-most-once: rid (1, 1) executed at sqn 1 and sqn 2",
            "at-most-once: replica (0, 0) executed rid (1, 1) twice",
        ]

    def test_fresh_incarnation_may_reexecute(self):
        assert self._violations([(self.OLD, 1, (1, 1)), (self.NEW, 1, (1, 1))]) == []

    def test_detects_rid_under_two_sqns(self):
        assert self._violations([(self.A, 1, (1, 1)), (self.B, 2, (1, 1))]) == [
            "at-most-once: rid (1, 1) executed at sqn 1 and sqn 2"
        ]

    def test_detects_out_of_order_execution(self):
        assert self._violations([(self.A, 5, (1, 1)), (self.A, 3, (2, 1))]) == [
            "order: replica (0, 0) executed sqn 3 after sqn 5"
        ]

    def test_detects_unbacked_client_reply(self):
        class _FakeClient:
            reply_log = [(9, 9)]

        checker = SafetyChecker()
        checker._clients = [_FakeClient()]
        checker._check_replies()
        assert checker.violations == [
            "reply validity: client accepted a reply for (9, 9) but no replica "
            "executed it"
        ]

    def test_detects_duplicate_inside_one_batch(self):
        a, b = self.A, self.B
        executions = [(a, 1, (1, 1)), (a, 1, (2, 1)), (a, 1, (1, 1))]
        executions += [(b, 1, (1, 1)), (b, 1, (2, 1))]
        assert self._violations(executions) == [
            "at-most-once: replica (0, 0) executed rid (1, 1) twice",
            "agreement: divergent batches at sqn 1 across replicas "
            "[(0, 0), (1, 0)]: [((1, 1), (2, 1)), ((1, 1), (2, 1), (1, 1))]",
        ]

    def test_detects_reexecution_at_a_third_sqn(self):
        # B re-executes at sqn 3 after the sqn 1 / sqn 2 violation, then
        # at the rid's first sqn: both are repeats by B, found through
        # the sqns the rid already executed at.
        a, b = self.A, self.B
        executions = [(a, 1, (1, 1)), (b, 2, (1, 1)), (b, 3, (1, 1)), (b, 1, (1, 1))]
        assert self._violations(executions) == [
            "at-most-once: rid (1, 1) executed at sqn 1 and sqn 2",
            "at-most-once: rid (1, 1) executed at sqn 1 and sqn 3",
            "at-most-once: replica (1, 0) executed rid (1, 1) twice",
            "at-most-once: replica (1, 0) executed rid (1, 1) twice",
            "order: replica (1, 0) executed sqn 1 after sqn 3",
        ]

    def test_recovered_incarnation_at_a_new_sqn(self):
        # The rid moved sqn (a violation), but the newcomer executing it
        # once is not a repeat of its previous incarnation's execution.
        old, new = self.OLD, self.NEW
        executions = [(old, 1, (1, 1)), (old, 2, (2, 1))]
        executions += [(new, 2, (1, 1)), (new, 2, (2, 1)), (new, 3, (3, 1))]
        assert self._violations(executions) == [
            "at-most-once: rid (1, 1) executed at sqn 1 and sqn 2",
            "agreement: divergent batches at sqn 2 across replicas "
            "[(0, 0), (0, 1)]: [((1, 1), (2, 1)), ((2, 1),)]",
        ]

    def test_retained_state_per_executed_request(self):
        # The checker keeps one batch slot per execution and one entry
        # per distinct rid — nothing per (incarnation, rid) pair, which
        # cost about 600 B per executed request.
        cluster = build_cluster(
            "idem", 20, seed=1, profile=small_profile(), stop_time=1.0
        )
        checker = SafetyChecker()
        checker.attach(cluster)
        FaultSchedule().crash_leader(0.3).install(cluster)
        tracemalloc.start()
        try:
            cluster.run_until(1.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, chaos_module.__file__)]
            ).statistics("filename")
        )
        executed = len(checker._rid_sqn)
        assert executed > 5000
        assert checker.finish(cluster, lag_slack=2.0) == []
        assert retained / executed <= 250


class TestChaosRunner:
    def test_plan_generation_is_deterministic_and_self_healing(self):
        plan_a = generate_plan(5, 12.0, 3)
        plan_b = generate_plan(5, 12.0, 3)
        assert plan_a.describe() == plan_b.describe()
        crashes = sum(isinstance(f, CrashFault) for f in plan_a.faults)
        recovers = sum(isinstance(f, RecoverFault) for f in plan_a.faults)
        partitions = sum(isinstance(f, PartitionFault) for f in plan_a.faults)
        heals = sum(isinstance(f, HealFault) for f in plan_a.faults)
        assert crashes == recovers
        assert partitions == heals
        # Nothing fires in the settle tail.
        horizon = 12.0 - 3.0
        assert all(fault.time <= horizon for fault in plan_a.faults)

    @pytest.mark.parametrize("fault_type", [CrashFault, SlowReplica, LatencySpike])
    def test_plan_targets_cover_a_five_replica_group(self, fault_type):
        # Index targets are drawn from the group size, so at n = 5 the
        # nemesis reaches replicas 3 and 4 too, not only the first three.
        targets = {
            fault.target
            for seed in range(20)
            for fault in generate_plan(seed, 30.0, 5).faults
            if type(fault) is fault_type and isinstance(fault.target, int)
        }
        assert targets == set(range(5))

    def test_chaos_run_is_deterministic(self):
        options = ChaosOptions(system="idem", clients=4, duration=6.0, seed=11)
        first = run_chaos(options).summary()
        second = run_chaos(options).summary()
        assert first == second

    @staticmethod
    def _run_keeping_cluster(monkeypatch, options):
        """``run_chaos`` that also hands back the cluster it ran."""
        built = []

        def build(*args, **kwargs):
            built.append(build_cluster(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(chaos_module, "build_cluster", build)
        return run_chaos(options), built[0]

    def test_chaos_run_holds_invariants_and_recovers(self, monkeypatch):
        # Seed chosen so the plan includes a crash + recovery.
        report, cluster = self._run_keeping_cluster(
            monkeypatch, ChaosOptions(system="idem", clients=5, duration=8.0, seed=3)
        )
        assert report.ok, report.violations
        assert report.recoveries >= 1
        assert report.executions > 0
        assert len(set(report.app_digests)) == 1
        assert "safety: OK (0 violations)" in report.summary()
        for replica in cluster.replicas:
            assert_active_index_consistent(replica)

    def test_executed_rids_leave_no_fetch_entries(self, monkeypatch):
        # Seed 2's plan makes replica 1 fetch bodies 35 times; before the
        # window's garbage collection dropped them, 29 entries outlived
        # their execution.
        report, cluster = self._run_keeping_cluster(
            monkeypatch, ChaosOptions(system="idem", clients=5, duration=8.0, seed=2)
        )
        assert report.ok, report.violations
        assert cluster.replicas[1].stats["fetches"] > 0
        for replica in cluster.replicas:
            stale = [
                rid
                for rid in replica._fetching
                if replica.executed_onr.get(rid[0], 0) >= rid[1]
            ]
            assert stale == []
            assert_active_index_consistent(replica)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ChaosOptions(duration=2.0, warmup=1.0, settle=3.0)
