"""View-change payloads: what each protocol carries through a view change."""

from repro.app.commands import Command, KvOp
from repro.app.kvstore import KeyValueStore
from repro.core.config import IdemConfig
from repro.core.replica import IdemReplica
from repro.net.addresses import client_address, replica_address
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.protocols.base import Instance
from repro.protocols.config import ProtocolConfig
from repro.protocols.bftsmart.replica import BftSmartReplica
from repro.protocols.messages import Request
from repro.protocols.paxos.config import PaxosConfig
from repro.protocols.paxos.replica import PaxosReplica
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry


def build(replica_class, config):
    loop = EventLoop()
    rng = RngRegistry(3)
    network = Network(loop, rng, latency_model=ConstantLatency(1e-5))
    replica = replica_class(0, loop, network, config, KeyValueStore(), rng)
    network.attach(replica)
    return replica


def instance_with_bodies(sqn=1):
    request = Request((0, 1), Command(KvOp.UPDATE, "k", 10))
    instance = Instance(sqn, 0, ((0, 1),))
    instance.bodies = {(0, 1): request}
    return instance, request


def test_idem_entries_carry_ids_only():
    replica = build(IdemReplica, IdemConfig(cpu_jitter_sigma=0.0))
    # What IDEM's proposing hook opens: ids, bodies stay in the store.
    instance, _ = replica._propose_batch(1, ((0, 1),))
    entry = replica._make_window_entry(instance)
    assert entry.rids == ((0, 1),)
    assert entry.requests is None


def test_paxos_entries_carry_full_requests():
    replica = build(PaxosReplica, PaxosConfig(cpu_jitter_sigma=0.0))
    instance, request = instance_with_bodies()
    entry = replica._make_window_entry(instance)
    assert entry.requests == (request,)
    # Installing such an entry restores the bodies.
    replica._install_entry(entry, view=1)
    assert replica.instances[1].bodies == {(0, 1): request}


def test_bftsmart_entries_carry_full_requests():
    replica = build(BftSmartReplica, ProtocolConfig(cpu_jitter_sigma=0.0))
    instance, request = instance_with_bodies()
    entry = replica._make_window_entry(instance)
    assert entry.requests == (request,)


def test_install_entry_never_replaces_executed_instances():
    replica = build(IdemReplica, IdemConfig(cpu_jitter_sigma=0.0))
    instance, _ = instance_with_bodies()
    instance.executed = True
    replica.instances[1] = instance
    entry = replica._make_window_entry(instance)
    replica._install_entry(entry, view=2)
    assert replica.instances[1] is instance  # untouched


def test_install_entry_advances_next_sqn():
    replica = build(IdemReplica, IdemConfig(cpu_jitter_sigma=0.0))
    instance, _ = instance_with_bodies(sqn=7)
    entry = replica._make_window_entry(instance)
    replica._install_entry(entry, view=1)
    assert replica.next_sqn == 8
