"""Simulated network substrate.

Models the paper's data-center environment (Section 2.1): fair-loss
point-to-point connections between nodes, with configurable latency
distributions, message loss, partitions and node crashes, plus
byte-accurate traffic accounting used to reproduce Table 1.
"""

from repro.net.addresses import Address, client_address, replica_address
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.message import Message
from repro.net.network import Network, NetworkNode
from repro.net.traffic import TrafficMeter

__all__ = [
    "Address",
    "ConstantLatency",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "Network",
    "NetworkNode",
    "TrafficMeter",
    "UniformLatency",
    "client_address",
    "replica_address",
]
