"""The experiment runner: one run = one seeded simulation.

A :class:`RunSpec` describes everything about a run (system, load,
duration, faults, overrides); :func:`run_experiment` executes it and
returns an :class:`~repro.cluster.metrics.ExperimentResult`.  The
conventions follow the paper's methodology (Section 7.1): a warm-up
period is excluded from measurement, and results are averaged over
multiple seeded runs by the experiment layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.faults import FaultSchedule
from repro.cluster.metrics import ExperimentResult
from repro.cluster.profile import ClusterProfile
from repro.population.aggregate import AggregateClientNode
from repro.population.spec import PopulationSpec
from repro.workload.open_loop import ArrivalSpec, OpenLoopDriver
from repro.workload.schedule import LoadSchedule


@dataclass
class RunSpec:
    """A complete description of one experiment run."""

    system: str = "idem"
    clients: int = 20
    duration: float = 1.0
    warmup: float = 0.3
    seed: int = 0
    profile: Optional[ClusterProfile] = None
    overrides: dict[str, Any] = field(default_factory=dict)
    faults: Optional[FaultSchedule] = None
    schedule: Optional[LoadSchedule] = None
    # Open-loop load generation: when set, clients are not started as a
    # closed loop; an OpenLoopDriver feeds them Poisson arrivals at the
    # spec's piecewise rates instead (metastability experiments).
    arrivals: Optional[ArrivalSpec] = None
    # Aggregate client population (repro.population): when set, the
    # ``clients`` count becomes N *virtual* clients folded into one
    # AggregateClientNode.  Composes with ``schedule`` (modulates the
    # active population) but not with ``arrivals``.  When None, nothing
    # changes — runs are byte-identical to the per-object client path.
    population: Optional[PopulationSpec] = None
    bucket_width: float = 0.25
    keep_metrics: bool = False
    # Attach a SafetyChecker and report invariant violations in the
    # result (crash/chaos experiments).
    safety: bool = False
    # Attach an ObservabilityHub (repro.obs): request-lifecycle tracing
    # plus the periodically probed flight recorder.  Observer-only — a
    # seeded run returns byte-identical results with this on or off.
    observe: bool = False
    # Run the drift detectors over the hub's flight recorder (the hub
    # probes without tracing unless `observe` is set too); findings land
    # in ExperimentResult.findings.  Observer-pure like `observe`: both
    # ride the same sample tick, so a probed run is byte-identical to an
    # observed one (and to a bare one).
    probes: bool = False

    def __post_init__(self) -> None:
        if self.warmup >= self.duration:
            raise ValueError(
                f"warmup ({self.warmup}) must be shorter than the run "
                f"duration ({self.duration})"
            )
        if self.population is not None and self.arrivals is not None:
            raise ValueError(
                "population and arrivals are both load generators and cannot "
                "be combined: for open-loop arrivals over a finite client "
                "pool drop population= (arrivals= alone runs OpenLoopDriver "
                "over `clients` per-object clients)"
            )


def run_experiment(spec: RunSpec) -> ExperimentResult:
    """Execute one run and collect its results."""
    cluster = build_cluster(
        spec.system,
        spec.clients,
        seed=spec.seed,
        profile=spec.profile,
        overrides=spec.overrides,
        window_start=spec.warmup,
        window_end=spec.duration,
        schedule=spec.schedule,
        bucket_width=spec.bucket_width,
        stop_time=spec.duration,
        start_clients=spec.arrivals is None,
        population=spec.population,
    )
    driver = None
    if spec.arrivals is not None:
        driver = OpenLoopDriver(
            cluster.loop,
            cluster.clients,
            spec.arrivals,
            cluster.rng.stream("open_loop.arrivals"),
            stop_time=spec.duration,
        )
        driver.start()
    checker = None
    if spec.safety:
        from repro.cluster.chaos import SafetyChecker

        checker = SafetyChecker()
        checker.attach(cluster)
    hub = None
    if spec.observe or spec.probes:
        from repro.obs import ObservabilityHub

        hub = ObservabilityHub(trace=spec.observe)
        hub.attach(cluster, horizon=spec.duration)
        if spec.faults is not None:
            hub.annotate_faults(spec.faults, spec.duration)
    if spec.faults is not None:
        spec.faults.install(cluster)
    cluster.run_until(spec.duration)
    return collect_result(spec, cluster, checker, hub, driver)


def collect_result(
    spec: RunSpec, cluster: Cluster, checker=None, hub=None, driver=None
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from a finished cluster."""
    metrics = cluster.metrics
    client_stats = cluster.client_stats()
    if driver is not None:
        client_stats["arrivals"] = driver.arrivals
        client_stats["shed_arrivals"] = driver.shed_arrivals
    elif len(cluster.clients) == 1 and isinstance(
        cluster.clients[0], AggregateClientNode
    ):
        node = cluster.clients[0]
        client_stats["virtual_clients"] = node.n_clients
        client_stats["arrivals"] = node.arrivals_generated
        client_stats["lost_arrivals"] = node.lost_arrivals
        client_stats["feedback_ticks"] = node.feedback_ticks
    findings = None
    if spec.probes:
        from repro.obs import findings_jsonable, run_detectors

        findings = findings_jsonable(run_detectors(hub.recorder))
    return ExperimentResult(
        system=spec.system,
        clients=spec.clients,
        seed=spec.seed,
        duration=spec.duration,
        warmup=spec.warmup,
        throughput=metrics.throughput(),
        latency=metrics.latency_summary(),
        reject_throughput=metrics.reject_throughput(),
        reject_latency=metrics.reject_latency_summary(),
        timeouts=metrics.timeouts,
        traffic=cluster.network.traffic.snapshot(),
        replica_stats=cluster.replica_stats(),
        metrics=metrics if spec.keep_metrics else None,
        # The run stops mid-flight (no drain), so window-deep lag
        # between live replicas is legitimate; allow double slack.
        safety_violations=(
            checker.finish(cluster, lag_slack=2.0) if checker is not None else None
        ),
        obs=hub,
        findings=findings,
        sim_stats={
            "dispatched_events": cluster.loop.dispatched_events,
            "peak_heap": cluster.loop.peak_heap,
            "drained_tombstones": cluster.loop.drained_tombstones,
        },
        client_stats=client_stats,
    )
