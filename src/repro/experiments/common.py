"""Shared machinery for the experiment suite.

Every figure of the paper is a grid of seeded runs averaged per point
(Section 7.1).  Each experiment module states its grid once, as a
:data:`Plan`: ``plan(quick, runs, seed0, duration)`` returns the
figure's cells as ``(label, jobs)`` pairs, and a pure ``assemble(plan,
results)`` builds the figure's data from ``results[i][j]``, the result
of ``plan[i][1][j]``.  ``repro.campaign`` executes the jobs (in
parallel, against its content-addressed cache) and calls ``assemble``,
so nothing here simulates anything.

Durations and run counts scale down in *quick* mode (used by the test
suite); explicit ``runs``/``duration`` arguments win over
:data:`DEFAULT_RUNS` and :data:`DEFAULT_DURATION`, and nothing is read
from the environment.

A figure's verdict lives beside its data: every experiment module
returns a list of :class:`Claim` from ``claims(data)`` — the paper's
qualitative statements (who wins, where the knee is, by what factor)
evaluated on the measured numbers — and :func:`render_claims` formats
them as the paper-vs-measured table ``campaign`` prints and gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.faults import FaultSchedule
from repro.cluster.metrics import ExperimentResult
from repro.cluster.profile import ClusterProfile
from repro.cluster.runner import RunSpec

#: Seeded runs per data point (the paper averages 3).
DEFAULT_RUNS = 2
#: Measured simulated seconds per steady-state run.
DEFAULT_DURATION = 1.0

#: An experiment's grid: ``(label, jobs)`` cells, where a job is a
#: :class:`RunSpec` or, for Table 1, a ``measure_cell`` kwargs dict.
Plan = list[tuple[Any, list[Any]]]


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
    warm-up, profile) are resolved.
    """
    runs = DEFAULT_RUNS if runs is None else runs
    duration = DEFAULT_DURATION if duration is None else duration
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


def sweep(
    system: str,
    client_counts: list[int],
    quick: bool = False,
    runs: Optional[int] = None,
    label: Any = None,
    **kwargs: Any,
) -> Plan:
    """One plan cell per client count: ``(label, the point's specs)``.

    ``label`` defaults to ``system``; a quick sweep defaults to one run
    per point, a full one to :data:`DEFAULT_RUNS`.
    """
    if runs is None:
        runs = 1 if quick else DEFAULT_RUNS
    return [
        (system if label is None else label, point_specs(system, clients, runs, **kwargs))
        for clients in client_counts
    ]


def point(specs: list[RunSpec], results: list[ExperimentResult]) -> Point:
    """Average one data point's seeded results into the paper's metrics."""
    first = specs[0]
    profile = first.profile or ClusterProfile()
    throughputs = [result.throughput for result in results]
    latencies = [result.latency.mean * 1e3 for result in results]
    latency_stds = [result.latency.std * 1e3 for result in results]
    reject_tputs = [result.reject_throughput for result in results]
    reject_lats = [result.reject_latency.mean * 1e3 for result in results]
    reject_stds = [result.reject_latency.std * 1e3 for result in results]
    return Point(
        system=first.system,
        clients=first.clients,
        load_factor=first.clients / profile.baseline_clients,
        throughput=_mean(throughputs),
        throughput_std=_spread(throughputs),
        latency_ms=_mean(latencies),
        latency_std_ms=_mean(latency_stds),
        reject_throughput=_mean(reject_tputs),
        reject_latency_ms=_mean(reject_lats),
        reject_latency_std_ms=_mean(reject_stds),
        timeouts=sum(result.timeouts for result in results),
        runs=len(specs),
    )


def curves(plan: Plan, results: list[list[ExperimentResult]]) -> dict[Any, list[Point]]:
    """A sweep plan's averaged points, grouped by cell label in plan order."""
    grouped: dict[Any, list[Point]] = {}
    for (label, specs), cell in zip(plan, results):
        grouped.setdefault(label, []).append(point(specs, cell))
    return grouped


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
