"""Figure 6: performance comparison under increasing request load.

IDEM vs IDEM_noPR vs Paxos vs BFT-SMaRt.  The paper's headline result:
the traditional protocols' latency escalates past saturation, while
IDEM's collaborative overload prevention caps latency in a plateau, and
IDEM_noPR shows that the rejection mechanism itself costs nothing below
the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import common

SYSTEMS = ["idem", "idem-nopr", "paxos", "bftsmart"]
FULL_CLIENTS = [5, 10, 25, 50, 75, 100, 150, 200]
QUICK_CLIENTS = [10, 50, 200]


@dataclass
class Fig6Data:
    """One load/latency curve per system."""

    curves: dict[str, list[common.Point]]

    def max_throughput(self, system: str) -> float:
        """Highest successful throughput the system reached."""
        return max(point.throughput for point in self.curves[system])

    def latency_at_max_load(self, system: str) -> float:
        """Mean latency (ms) at the heaviest client count."""
        return self.curves[system][-1].latency_ms

    def latency_at_saturation(self, system: str) -> float:
        """Mean latency (ms) at the knee: the lightest load achieving
        (within 5%) the system's maximum throughput."""
        points = self.curves[system]
        peak = max(point.throughput for point in points)
        for point in points:
            if point.throughput >= 0.95 * peak:
                return point.latency_ms
        return points[-1].latency_ms


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """One cell per (system, client count), labelled with the system."""
    clients = QUICK_CLIENTS if quick else FULL_CLIENTS
    return [
        cell
        for system in SYSTEMS
        for cell in common.sweep(system, clients, quick, runs, seed0=seed0, duration=duration)
    ]


def assemble(plan: common.Plan, results: list) -> Fig6Data:
    """All four systems' curves."""
    return Fig6Data(common.curves(plan, results))


def render(data: Fig6Data) -> str:
    rows = []
    for system in SYSTEMS:
        rows.extend(common.point_rows(data.curves[system]))
    table = common.render_table(
        "Figure 6: performance comparison under increasing load",
        common.POINT_HEADERS,
        rows,
    )
    summary = [
        "",
        "Shape checks (paper Section 7.2):",
    ]
    for system in SYSTEMS:
        summary.append(
            f"  {system:10s} max tput {data.max_throughput(system) / 1e3:6.1f}k, "
            f"latency {data.latency_at_saturation(system):5.2f} ms at saturation -> "
            f"{data.latency_at_max_load(system):5.2f} ms at max load"
        )
    return table + "\n" + "\n".join(summary)


def headlines(data: Fig6Data) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_fig6.json``."""
    metrics: dict[str, float] = {}
    for system in data.curves:
        metrics[f"{system}.max_throughput"] = data.max_throughput(system)
        metrics[f"{system}.saturation_latency_ms"] = data.latency_at_saturation(system)
        metrics[f"{system}.max_load_latency_ms"] = data.latency_at_max_load(system)
    return metrics


def claims(data: Fig6Data) -> list[common.Claim]:
    """Section 7.2's headline comparison, evaluated on the four curves."""
    peaks = {system: data.max_throughput(system) for system in data.curves}
    knee, overload = data.latency_at_saturation, data.latency_at_max_load
    # Below the threshold: the lightest load both IDEM curves measured.
    nopr_at = {point.clients: point for point in data.curves["idem-nopr"]}
    idem = next(p for p in data.curves["idem"] if p.clients in nopr_at)
    nopr = nopr_at[idem.clients]

    def knee_to_max(*systems: str) -> str:
        return "; ".join(f"{s} {knee(s):.2f} -> {overload(s):.2f} ms" for s in systems)

    return [
        common.Claim(
            "fig6.idem-plateau",
            "§7.2: IDEM's latency plateaus once the rejection threshold is reached",
            knee_to_max("idem") + " (knee -> max load)",
            overload("idem") < 1.5 * knee("idem"),
        ),
        common.Claim(
            "fig6.unprotected-explode",
            "§7.2: past their peak, the latency of Paxos, BFT-SMaRt and IDEM_noPR "
            "escalates drastically (>600% of normal at 4x)",
            knee_to_max("idem-nopr", "paxos", "bftsmart"),
            all(overload(s) > 2.5 * knee(s) for s in ("idem-nopr", "paxos", "bftsmart")),
        ),
        common.Claim(
            "fig6.peak-throughput-unaffected",
            "§7.2: the rejection mechanism costs no peak throughput",
            f"idem {peaks['idem'] / 1e3:.1f}k vs idem-nopr "
            f"{peaks['idem-nopr'] / 1e3:.1f}k req/s",
            peaks["idem"] > 0.85 * peaks["idem-nopr"],
        ),
        common.Claim(
            "fig6.identical-below-threshold",
            "§7.2: IDEM and IDEM_noPR only diverge after the rejection threshold",
            f"at {idem.clients} clients: idem {idem.throughput:.0f} req/s "
            f"{idem.latency_ms:.3f} ms {idem.reject_throughput:.0f} rejects/s, "
            f"idem-nopr {nopr.throughput:.0f} req/s {nopr.latency_ms:.3f} ms",
            abs(idem.throughput - nopr.throughput) < 0.02 * nopr.throughput
            and abs(idem.latency_ms - nopr.latency_ms) < 0.05 * nopr.latency_ms
            and idem.reject_throughput == 0,
        ),
        common.Claim(
            "fig6.bftsmart-below-paxos",
            "§7.2: the production library BFT-SMaRt saturates below the lean Paxos",
            f"bftsmart {peaks['bftsmart'] / 1e3:.1f}k vs paxos "
            f"{peaks['paxos'] / 1e3:.1f}k req/s",
            peaks["bftsmart"] < peaks["paxos"],
        ),
        common.Claim(
            "fig6.throughput-regime",
            "§7.2: every system peaks at tens of thousands of requests per second",
            ", ".join(f"{system} {peak / 1e3:.1f}k" for system, peak in peaks.items()),
            all(20_000 < peak < 100_000 for peak in peaks.values()),
        ),
    ]
