"""The network fabric connecting simulated nodes.

Implements the system model of Section 2.1: fair-loss point-to-point
links.  Messages may be dropped (loss probability, partitions) but the
fabric never duplicates or corrupts them; retransmission is the job of
the protocol layer.  Crashed nodes silently drop everything.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.net.addresses import Address, CLIENT
from repro.net.latency import LatencyModel, LogNormalLatency
from repro.net.message import Message
from repro.net.traffic import TrafficMeter
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry


class NetworkNode(ABC):
    """Anything that can be attached to the network and receive messages."""

    address: Address

    @abstractmethod
    def deliver(self, src: Address, message: Message) -> None:
        """Called by the network when a message arrives at this node."""


class Network:
    """A full mesh of fair-loss point-to-point links.

    One instance connects all replicas and clients of an experiment.
    Latency is drawn per message from ``latency_model``; loss is an
    independent coin flip per message.  Partitions are directed pairs of
    addresses between which delivery is suppressed; crashing a node
    suppresses all its traffic in both directions.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: RngRegistry,
        latency_model: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        egress_bandwidth: Optional[float] = None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {loss_probability}")
        if egress_bandwidth is not None and egress_bandwidth <= 0:
            raise ValueError(
                f"egress bandwidth must be positive, got {egress_bandwidth}"
            )
        self._loop = loop
        self._latency_rng = rng.stream("net.latency")
        self._loss_rng = rng.stream("net.loss")
        self.latency_model = latency_model or LogNormalLatency(median=100e-6, sigma=0.25)
        self.loss_probability = loss_probability
        # Optional per-node egress link capacity in bytes/second.  Each
        # sender serialises its outgoing messages onto its link; a
        # saturated link delays everything behind it — the leader-link
        # bottleneck that motivates id-based agreement (paper Section
        # 4.2, citing S-Paxos).  ``None`` disables serialisation delay.
        self.egress_bandwidth = egress_bandwidth
        self._egress_free_at: dict[Address, float] = {}
        self.traffic = TrafficMeter()
        # Optional catch-all for client-kind addresses that have no
        # attached node: an aggregate population node (repro.population)
        # fabricates per-virtual-client source addresses, and replies to
        # them all land on the one router.  ``None`` (the default)
        # preserves the classic drop-if-unattached behaviour exactly.
        self.client_router: Optional[NetworkNode] = None
        self._nodes: dict[Address, NetworkNode] = {}
        self._crashed: set[Address] = set()
        self._partitions: set[tuple[Address, Address]] = set()
        # Gray failures: per-address multiplier applied to the sampled
        # latency of every message the address sends or receives (a slow
        # NIC/link rather than a dead one).
        self._latency_scale: dict[Address, float] = {}
        self.dropped_messages = 0

    def attach(self, node: NetworkNode) -> None:
        """Register a node under its address; the address must be unused."""
        if node.address in self._nodes:
            raise ValueError(f"address already attached: {node.address}")
        self._nodes[node.address] = node

    def detach(self, address: Address) -> None:
        """Remove a node from the network, purging all per-address state.

        The address may be reused later (a recovered replica re-attaches
        under the same address), so everything keyed by it — crash
        marking, egress-link backlog, partitions and latency degradation
        — must go with the node, or the newcomer would inherit a dead
        node's fate.
        """
        self._nodes.pop(address, None)
        self._crashed.discard(address)
        self._egress_free_at.pop(address, None)
        self._latency_scale.pop(address, None)
        # Deterministic sweep order (DET005): partition pairs contain
        # str-keyed Addresses, so raw set order varies with the hash seed.
        stale = [
            pair
            for pair in sorted(self._partitions, key=lambda pair: (pair[0], pair[1]))
            if address in pair
        ]
        for pair in stale:
            self._partitions.discard(pair)

    def node(self, address: Address) -> NetworkNode:
        """Look up the node attached at ``address``."""
        return self._nodes[address]

    def crash(self, address: Address) -> None:
        """Mark a node crashed: it no longer sends or receives anything."""
        self._crashed.add(address)

    def recover(self, address: Address) -> None:
        """Undo a crash (used for recovery experiments)."""
        self._crashed.discard(address)

    def is_crashed(self, address: Address) -> bool:
        """Whether the node at ``address`` is currently crashed."""
        return address in self._crashed

    def set_latency_scale(self, address: Address, factor: float) -> None:
        """Multiply the latency of all traffic to/from ``address`` by ``factor``.

        Models a gray failure: the node is alive but its link is
        degraded.  A factor of 1.0 clears the degradation.
        """
        if factor <= 0:
            raise ValueError(f"latency scale must be positive, got {factor}")
        if factor == 1.0:
            self._latency_scale.pop(address, None)
        else:
            self._latency_scale[address] = factor

    def clear_latency_scale(self, address: Address) -> None:
        """Remove any latency degradation on ``address``.  Idempotent."""
        self._latency_scale.pop(address, None)

    def latency_scale(self, address: Address) -> float:
        """The current latency multiplier on ``address`` (1.0 = healthy)."""
        return self._latency_scale.get(address, 1.0)

    def partition(self, a: Address, b: Address) -> None:
        """Block delivery between ``a`` and ``b`` in both directions."""
        self._partitions.add((a, b))
        self._partitions.add((b, a))

    def heal(self, a: Address, b: Address) -> None:
        """Remove a partition between ``a`` and ``b``."""
        self._partitions.discard((a, b))
        self._partitions.discard((b, a))

    def send(self, src: Address, dst: Address, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst`` over the fabric.

        Traffic is metered at send time whenever the sender is alive
        (bytes hit the wire even if the message is later lost).  The
        message is sized exactly once per send — ``size_bytes()`` walks
        the payload, so the meter and the serialisation delay share one
        measurement.
        """
        if src in self._crashed:
            return
        size = message.size_bytes()
        type_name = message.type_name()
        self.traffic.record(src, dst, type_name, size)
        self._transmit(src, dst, message, size)

    def _transmit(self, src: Address, dst: Address, message: Message, size: int) -> None:
        """Drop checks, latency sampling and delivery scheduling for one link.

        Shared tail of :meth:`send` and :meth:`multicast`; per-link
        randomness is drawn in the same order as a serial ``send`` loop
        (loss coin flip, then latency sample) so the two paths are
        byte-identical under a fixed seed.
        """
        if dst in self._crashed:
            self.dropped_messages += 1
            return
        if dst not in self._nodes and (
            self.client_router is None or dst.kind != CLIENT
        ):
            self.dropped_messages += 1
            return
        if (src, dst) in self._partitions:
            self.dropped_messages += 1
            return
        loss = self.loss_probability
        if loss > 0.0 and self._loss_rng.random() < loss:
            self.dropped_messages += 1
            return
        delay = self.latency_model.sample(self._latency_rng)
        scale = self._latency_scale
        if scale:
            delay *= scale.get(src, 1.0) * scale.get(dst, 1.0)
        if self.egress_bandwidth is not None:
            delay += self._serialization_delay(src, size)
        self._loop.call_after(delay, self._deliver, src, dst, message)

    def _serialization_delay(self, src: Address, size: int) -> float:
        """Queue ``size`` bytes onto the sender's egress link.

        Returns the time until the last byte leaves the link, measured
        from now; the link is busy until then for subsequent sends.
        """
        now = self._loop.now
        start = max(now, self._egress_free_at.get(src, 0.0))
        free_at = start + size / self.egress_bandwidth
        self._egress_free_at[src] = free_at
        return free_at - now

    def egress_backlog(self, src: Address) -> float:
        """Seconds of queued serialisation delay on ``src``'s link."""
        return max(0.0, self._egress_free_at.get(src, 0.0) - self._loop.now)

    def multicast(self, src: Address, dsts: list[Address], message: Message) -> None:
        """Send the same message to every destination (independent links).

        Equivalent to a serial ``send`` loop — same metering, same
        per-destination randomness order — but the message is sized and
        type-named once for the whole fan-out instead of per
        destination, and the hot callables are bound outside the loop.
        """
        if src in self._crashed:
            return
        size = message.size_bytes()
        type_name = message.type_name()
        record_traffic = self.traffic.record
        transmit = self._transmit
        for dst in dsts:
            record_traffic(src, dst, type_name, size)
            transmit(src, dst, message, size)

    def _deliver(self, src: Address, dst: Address, message: Message) -> None:
        # Re-check state at delivery time: the destination may have
        # crashed, or a partition may have formed, while in flight.
        if dst in self._crashed or src in self._crashed:
            self.dropped_messages += 1
            return
        if (src, dst) in self._partitions:
            self.dropped_messages += 1
            return
        node = self._nodes.get(dst)
        if node is None:
            if self.client_router is not None and dst.kind == CLIENT:
                node = self.client_router
            else:
                self.dropped_messages += 1
                return
        node.deliver(src, message)
