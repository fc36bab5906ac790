"""Shared machinery for the experiment suite.

Runs are averaged over multiple seeds like the paper averages over three
runs (Section 7.1).  Durations and run counts scale down in *quick* mode
(used by the test suite); explicit ``runs``/``duration`` arguments win
over :data:`DEFAULT_RUNS` and :data:`DEFAULT_DURATION`, and nothing is
read from the environment.

Every simulation an experiment needs goes through :func:`execute_run`
(and :func:`execute_tab1_cell` for Table 1's traffic cells).  By default
these execute inline; the campaign engine (``repro.campaign``) installs
an executor via :func:`use_executor` to serve results from its parallel,
content-addressed job store instead.  Experiments therefore stay plain
serial code — the aggregation order, and hence the rendered output, is
identical whether results are computed inline or fanned out.

A figure's verdict lives beside its data: every experiment module
returns a list of :class:`Claim` from ``claims(data)`` — the paper's
qualitative statements (who wins, where the knee is, by what factor)
evaluated on the measured numbers — and :func:`render_claims` formats
them as the paper-vs-measured table ``campaign`` prints and gates on.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Protocol

from repro.cluster.faults import FaultSchedule
from repro.cluster.metrics import ExperimentResult
from repro.cluster.profile import ClusterProfile
from repro.cluster.runner import RunSpec, run_experiment

#: Seeded runs per data point (the paper averages 3).
DEFAULT_RUNS = 2
#: Measured simulated seconds per steady-state run.
DEFAULT_DURATION = 1.0


class ExperimentExecutor(Protocol):
    """Where experiment jobs actually run (inline by default).

    ``repro.campaign`` provides implementations that serve results from
    a process pool and a content-addressed cache.
    """

    def run_spec(self, spec: RunSpec) -> ExperimentResult:
        """Produce the result of one seeded simulation run."""
        ...

    def run_cell(self, kwargs: dict[str, Any]) -> Any:
        """Produce one Table 1 traffic cell (``tab1_overhead.measure_cell``)."""
        ...


_executor: Optional[ExperimentExecutor] = None


@contextmanager
def use_executor(executor: ExperimentExecutor) -> Iterator[ExperimentExecutor]:
    """Route :func:`execute_run`/:func:`execute_tab1_cell` through ``executor``."""
    global _executor
    previous = _executor
    _executor = executor
    try:
        yield executor
    finally:
        _executor = previous


def execute_run(spec: RunSpec) -> ExperimentResult:
    """Execute one run, through the installed executor if there is one."""
    if _executor is not None:
        return _executor.run_spec(spec)
    return run_experiment(spec)


def execute_tab1_cell(**kwargs: Any) -> Any:
    """Execute one Table 1 cell, through the installed executor if any."""
    if _executor is not None:
        return _executor.run_cell(dict(kwargs))
    from repro.experiments.tab1_overhead import measure_cell

    return measure_cell(**kwargs)


@dataclass
class Point:
    """One averaged data point of a sweep (one marker in a paper figure)."""

    system: str
    clients: int
    load_factor: float
    throughput: float
    throughput_std: float
    latency_ms: float
    latency_std_ms: float
    reject_throughput: float
    reject_latency_ms: float
    reject_latency_std_ms: float
    timeouts: int
    runs: int
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_kops(self) -> float:
        """Successful throughput in thousands of requests per second."""
        return self.throughput / 1e3

    @property
    def reject_share(self) -> float:
        """Fraction of operations that ended in rejection."""
        total = self.throughput + self.reject_throughput
        return self.reject_throughput / total if total else 0.0


def point_specs(
    system: str,
    clients: int,
    runs: Optional[int] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    seed0: int = 0,
    overrides: Optional[dict[str, Any]] = None,
    profile: Optional[ClusterProfile] = None,
    faults: Optional[FaultSchedule] = None,
) -> list[RunSpec]:
    """The ``runs`` seeded specs behind one averaged data point.

    This is the single place where sweep defaults (run count, duration,
    warm-up, profile) are resolved, so the campaign planner and the
    inline execution path always agree on the exact specs of a point.
    """
    runs = runs or DEFAULT_RUNS
    duration = duration or DEFAULT_DURATION
    warmup = warmup if warmup is not None else min(0.3, duration / 3)
    profile = profile or ClusterProfile()
    return [
        RunSpec(
            system=system,
            clients=clients,
            duration=duration,
            warmup=warmup,
            seed=seed0 + run_index,
            overrides=dict(overrides or {}),
            profile=profile,
            faults=faults,
        )
        for run_index in range(runs)
    ]


def sweep_specs(
    system: str,
    client_counts: list[int],
    **kwargs: Any,
) -> list[RunSpec]:
    """All specs of a sweep, in execution order (campaign planning)."""
    return [
        spec
        for clients in client_counts
        for spec in point_specs(system, clients, **kwargs)
    ]


def averaged_point(
    system: str,
    clients: int,
    runs: Optional[int] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    seed0: int = 0,
    overrides: Optional[dict[str, Any]] = None,
    profile: Optional[ClusterProfile] = None,
    faults: Optional[FaultSchedule] = None,
) -> Point:
    """Run ``runs`` seeded simulations and average the paper's metrics."""
    specs = point_specs(
        system,
        clients,
        runs=runs,
        duration=duration,
        warmup=warmup,
        seed0=seed0,
        overrides=overrides,
        profile=profile,
        faults=faults,
    )
    profile = specs[0].profile or ClusterProfile()
    runs = len(specs)
    results = [execute_run(spec) for spec in specs]
    throughputs = [result.throughput for result in results]
    latencies = [result.latency.mean * 1e3 for result in results]
    latency_stds = [result.latency.std * 1e3 for result in results]
    reject_tputs = [result.reject_throughput for result in results]
    reject_lats = [result.reject_latency.mean * 1e3 for result in results]
    reject_stds = [result.reject_latency.std * 1e3 for result in results]
    return Point(
        system=system,
        clients=clients,
        load_factor=clients / profile.baseline_clients,
        throughput=_mean(throughputs),
        throughput_std=_spread(throughputs),
        latency_ms=_mean(latencies),
        latency_std_ms=_mean(latency_stds),
        reject_throughput=_mean(reject_tputs),
        reject_latency_ms=_mean(reject_lats),
        reject_latency_std_ms=_mean(reject_stds),
        timeouts=sum(result.timeouts for result in results),
        runs=runs,
    )


def sweep(
    system: str,
    client_counts: list[int],
    **kwargs: Any,
) -> list[Point]:
    """One averaged point per client count."""
    return [averaged_point(system, clients, **kwargs) for clients in client_counts]


def jain_fairness(shares: list[float]) -> float:
    """Jain's fairness index of per-client shares: 1.0 = perfectly fair,
    ``1/len`` = one client gets everything.  Used to check the paper's
    claim that AQM's rotating prioritisation keeps client outcomes even
    (Section 5.1)."""
    if not shares:
        return 1.0
    total = sum(shares)
    squares = sum(share * share for share in shares)
    if squares == 0:
        return 1.0
    return (total * total) / (len(shares) * squares)


@dataclass(frozen=True)
class Claim:
    """One qualitative claim of the paper, evaluated on measured data."""

    id: str  # "<experiment>.<slug>", stable across runs
    paper: str  # what the paper says, with its section
    measured: str  # the measured values the verdict rests on
    holds: bool
    note: str = ""  # only where EXPERIMENTS.md documents a deviation


def render_claims(claims: list[Claim]) -> str:
    """The paper-vs-measured table, its notes and the ``N/N hold`` line."""
    rows = [
        [
            claim.id + ("*" if claim.note else ""),
            "holds" if claim.holds else "FAILS",
            claim.measured,
            claim.paper,
        ]
        for claim in claims
    ]
    lines = [
        render_table(
            "Paper claims:", ["claim", "verdict", "measured", "paper"], rows
        )
    ]
    lines.extend(f"* {claim.id}: {claim.note}" for claim in claims if claim.note)
    failed = [claim.id for claim in claims if not claim.holds]
    lines.append(
        f"claims: {len(claims) - len(failed)}/{len(claims)} hold"
        + (f"; FAILS: {', '.join(failed)}" if failed else "")
    )
    return "\n".join(lines)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def render_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """Format an aligned plain-text table, paper style."""
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def point_rows(points: list[Point], with_rejects: bool = False) -> list[list[str]]:
    """Standard table rows for a list of points."""
    rows = []
    for point in points:
        row = [
            point.system,
            str(point.clients),
            f"{point.load_factor:.1f}x",
            f"{point.throughput_kops:.1f}k",
            f"{point.latency_ms:.2f}",
            f"{point.latency_std_ms:.2f}",
        ]
        if with_rejects:
            row.extend(
                [
                    f"{point.reject_throughput:.0f}",
                    f"{100 * point.reject_share:.1f}%",
                    f"{point.reject_latency_ms:.2f}",
                ]
            )
        rows.append(row)
    return rows


POINT_HEADERS = ["system", "clients", "load", "tput", "lat ms", "lat std"]
REJECT_HEADERS = POINT_HEADERS + ["rej/s", "rej %", "rej lat ms"]
