"""The ledger's frozen contract: workloads, metrics, layers.

Pure data, no ``repro`` import.  ``BENCHMARK.json`` at the repository
root repeats the workload names, the gated end-to-end metrics and the
per-layer metric names; ``ledger/tests/test_spec.py`` keeps the two in
step.  The simulated sizes below are part of the contract: to fit a time
budget change the number of repeats (``--seconds``), never a size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

# The process pool width of ``campaign_grid`` (= nproc on the reference box).
GRID_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One named set of simulated inputs (LAN profile = ``ClusterProfile()``)."""

    name: str
    why: str
    system: str = ""
    clients: int = 0
    duration: float = 0.0
    warmup: float = 0.0
    # Crash the leader at this simulated time; turns on the SafetyChecker
    # and the 5 ms reply buckets that `sim_outage_ms` reads.
    crash_at: Optional[float] = None
    # Aggregate population backend with this mean think time (seconds).
    think_time: Optional[float] = None
    # Campaign grid: (system, clients) cells, each run at seeds {seed, seed+1}.
    grid: tuple[tuple[str, int], ...] = ()

    def scaled(self, scale: float) -> "Workload":
        """Same shape with simulated times multiplied by ``scale`` (the
        warm-up repeat and the test smoke; recorded runs use 1.0)."""
        if scale == 1.0:
            return self
        return replace(
            self,
            duration=self.duration * scale,
            warmup=self.warmup * scale,
            crash_at=None if self.crash_at is None else self.crash_at * scale,
        )


OUTAGE_BUCKET = 0.005

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paxos_saturated",
            "Paxos at saturation, 150 closed-loop clients: protocols does most of the "
            "work and core none, so it is the bypass workload for IDEM-side changes",
            system="paxos", clients=150, duration=2.0, warmup=0.5,
        ),
        Workload(
            "idem_overload",
            "IDEM at 8x saturation, 400 closed-loop clients: the paper's headline regime; "
            "acceptance test, reject path and client back-off carry the load",
            system="idem", clients=400, duration=1.25, warmup=0.5,
        ),
        Workload(
            "idem_leader_crash",
            "IDEM, 200 clients, leader crashed at t=1.0 s with the safety checker on: "
            "timers, view change and forwarding set the outage and the p99.9",
            system="idem", clients=200, duration=3.0, warmup=0.5, crash_at=1.0,
        ),
        Workload(
            "population_1m",
            "IDEM serving 1,000,000 virtual clients (think 20 s, ~50k req/s offered): "
            "same replicas, the aggregate population layer replaces per-object clients",
            system="idem", clients=1_000_000, duration=1.0, warmup=0.25, think_time=20.0,
        ),
        Workload(
            "campaign_grid",
            "8 short jobs through the 2-worker campaign pool, cold then warm cache: cluster "
            "build, worker spawn, pickling and cache I/O dominate, so set-up cost shows here",
            duration=0.5, warmup=0.25,
            grid=(("paxos", 150), ("idem", 400), ("idem-nopr", 400), ("bftsmart", 150)),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    # End-to-end only.  `bound` is the share of the parent's median by which
    # the metric may worsen between two commits measured at the same seed
    # (`ledger.compare`); `floor` is an absolute allowance in the unit.
    bound: float = 0.0
    floor: float = 0.0
    # The bound in BENCHMARK.json, where the driver's runs each use another
    # seed: it has to cover the seed-to-seed spread (README, "Noise").  None
    # keeps the metric out of BENCHMARK.json's end_to_end list.
    seed_bound: Optional[float] = None


END_TO_END: tuple[Metric, ...] = (
    # Host times: two records of one commit differed by 11-15 % in host_s
    # and the set-up probes swing over a 40 ms band (README, "Noise"), so
    # nothing tighter than the contract's maximum resolves on this box.
    Metric("setup_s", "s", "lower", bound=0.25, floor=0.040, seed_bound=0.25),
    Metric("host_s", "s", "lower", bound=0.25, seed_bound=0.25),
    Metric("sim_req_per_host_s", "ops/s", "higher", bound=0.25, seed_bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.05, seed_bound=0.12),
    Metric("sim_goodput_rps", "req/s", "higher", bound=0.01, seed_bound=0.18),
    Metric("sim_p50_ms", "ms", "lower", bound=0.01, seed_bound=0.06),
    Metric("sim_p99_ms", "ms", "lower", bound=0.01, seed_bound=0.22),
    # Bimodal across seeds on idem_leader_crash (the failover cohort is near
    # 0.1 % of the samples), so no seed-spanning bound can hold it.
    Metric("sim_p999_ms", "ms", "lower", bound=0.01),
    # 0 by design on some workloads, which the driver's contract forbids.
    Metric("sim_reject_p99_ms", "ms", "lower", bound=0.01),
    Metric("sim_outage_ms", "ms", "lower", bound=0.01),
)

# Packages of src/repro, plus `rng` (stdlib random/_random/math) and
# `other` (self time no repro frame can be charged with).
LAYERS: tuple[str, ...] = (
    "sim", "net", "protocols", "core", "app", "workload", "population",
    "cluster", "resilience", "obs", "campaign", "rng", "other",
)

TRACED: tuple[Metric, ...] = tuple(
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_share", "ratio", "lower"),
        Metric(f"{layer}.calls_per_req", "calls/req", "lower"),
    )
) + (
    Metric("trace.calls_per_req", "calls/req", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

COUNTED: tuple[Metric, ...] = (
    Metric("sim.events_per_req", "ev/req", "lower"),
    Metric("sim.events_per_host_s", "ev/s", "higher"),
    Metric("sim.peak_heap", "count", "lower"),
    Metric("sim.tombstones_per_req", "count/req", "lower"),
    Metric("sim.samples", "count", "higher"),
    Metric("net.msgs_per_req", "msg/req", "lower"),
    Metric("net.bytes_per_req", "B/req", "lower"),
    Metric("net.replica_bytes_share", "ratio", "lower"),
    Metric("protocols.reqs_per_proposal", "req/proposal", "higher"),
    Metric("protocols.view_changes", "count", "lower"),
    Metric("protocols.leader_utilization", "ratio", "lower"),
    Metric("core.reject_ratio", "ratio", "lower"),
    Metric("core.forwards_per_req", "count/req", "lower"),
    Metric("core.fetches_per_req", "count/req", "lower"),
    Metric("resilience.load_amplification", "ratio", "lower"),
    Metric("resilience.timeout_ratio", "ratio", "lower"),
    Metric("population.arrivals_per_tick", "count", "higher"),
    Metric("population.lost_arrival_ratio", "ratio", "lower"),
    Metric("cluster.build_s", "s", "lower"),
    Metric("host.min_s", "s", "lower"),
    Metric("host.iqr_s", "s", "lower"),
    Metric("host.repeats", "count", "higher"),
    Metric("campaign.cold_wall_s", "s", "lower"),
    Metric("campaign.warm_wall_s", "s", "lower"),
    Metric("campaign.job_wall_sum_s", "s", "lower"),
    Metric("campaign.pool_efficiency", "ratio", "higher"),
    Metric("campaign.warm_hit_ratio", "ratio", "higher"),
    Metric("campaign.cache_bytes_per_job", "B/job", "lower"),
)

GATED: tuple[Metric, ...] = tuple(m for m in END_TO_END if m.seed_bound is not None)
# What `--trace 1` prints for the driver: every layer metric, plus the
# end-to-end metrics BENCHMARK.json cannot gate.
PER_LAYER: tuple[Metric, ...] = (
    TRACED + COUNTED + tuple(m for m in END_TO_END if m.seed_bound is None)
)
