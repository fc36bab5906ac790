"""Figure 8: variation of the reject threshold in IDEM.

The reject threshold RT trades throughput against latency: RT=50 sits
just below what the cluster can handle (lower plateau latency), RT=75
slightly above the overload edge (more throughput, slightly higher
plateau), and an artificially low RT=20 caps throughput around 2/3 of
the maximum but pins latency near the floor.  Below the threshold, all
configurations perform identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import common

FULL_THRESHOLDS = [20, 50, 75]
FULL_CLIENTS = [10, 25, 50, 75, 100, 150, 200, 300]
QUICK_THRESHOLDS = [20, 75]
QUICK_CLIENTS = [25, 150]


@dataclass
class Fig8Data:
    """One load/latency curve per reject threshold."""

    curves: dict[int, list[common.Point]]

    def max_throughput(self, threshold: int) -> float:
        return max(point.throughput for point in self.curves[threshold])

    def plateau_latency(self, threshold: int) -> float:
        """Mean latency (ms) at the heaviest load (the plateau level)."""
        return self.curves[threshold][-1].latency_ms


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """One cell per (threshold, client count), labelled with the threshold."""
    clients = QUICK_CLIENTS if quick else FULL_CLIENTS
    return [
        cell
        for threshold in (QUICK_THRESHOLDS if quick else FULL_THRESHOLDS)
        for cell in common.sweep(
            "idem",
            clients,
            quick,
            runs,
            label=threshold,
            seed0=seed0,
            duration=duration,
            overrides={"reject_threshold": threshold},
        )
    ]


def assemble(plan: common.Plan, results: list) -> Fig8Data:
    return Fig8Data(common.curves(plan, results))


def render(data: Fig8Data) -> str:
    headers = ["RT"] + common.POINT_HEADERS
    rows = []
    for threshold, points in data.curves.items():
        for row in common.point_rows(points):
            rows.append([str(threshold)] + row)
    table = common.render_table(
        "Figure 8: variation of the reject threshold in IDEM",
        headers,
        rows,
    )
    summary = ["", "Per-threshold summary:"]
    for threshold in data.curves:
        summary.append(
            f"  RT={threshold:3d}: max tput "
            f"{data.max_throughput(threshold) / 1e3:5.1f}k, plateau latency "
            f"{data.plateau_latency(threshold):5.2f} ms"
        )
    return table + "\n" + "\n".join(summary)


def headlines(data: Fig8Data) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_fig8.json``."""
    metrics: dict[str, float] = {}
    for threshold in data.curves:
        metrics[f"rt{threshold}.max_throughput"] = data.max_throughput(threshold)
        metrics[f"rt{threshold}.plateau_latency_ms"] = data.plateau_latency(threshold)
    return metrics


def claims(data: Fig8Data) -> list[common.Claim]:
    """Section 7.5's threshold trade-off, evaluated on the measured curves."""
    low, high = min(data.curves), max(data.curves)
    ratio = data.max_throughput(low) / data.max_throughput(high)
    rejecting = {
        rt: [point for point in points if point.reject_throughput > 0]
        for rt, points in data.curves.items()
    }
    # Two points with rejection active make a plateau.
    plateaus = {rt: points for rt, points in rejecting.items() if len(points) >= 2}
    lightest = [points[0].latency_ms for points in data.curves.values()]
    return [
        common.Claim(
            "fig8.tradeoff",
            "§7.5: a higher reject threshold buys throughput at a slightly higher "
            "latency plateau",
            "; ".join(
                f"RT={rt} {data.max_throughput(rt) / 1e3:.1f}k req/s @ "
                f"{data.plateau_latency(rt):.2f} ms"
                for rt in (low, high)
            ),
            data.max_throughput(high) > data.max_throughput(low)
            and data.plateau_latency(high) > data.plateau_latency(low),
        ),
        common.Claim(
            "fig8.low-threshold-fraction",
            "§7.5: RT=20 restricts throughput to roughly 2/3 of the maximum",
            f"RT={low} reaches {100 * ratio:.0f}% of RT={high}'s peak",
            0.4 < ratio < 0.95,
        ),
        common.Claim(
            "fig8.all-plateau",
            "§7.5: every threshold plateaus rather than exploding",
            "; ".join(
                f"RT={rt} {points[0].latency_ms:.2f} -> {points[-1].latency_ms:.2f} ms"
                for rt, points in plateaus.items()
            ),
            all(p[-1].latency_ms < 1.6 * p[0].latency_ms for p in plateaus.values()),
        ),
        common.Claim(
            "fig8.identical-below-threshold",
            "§7.5: below the threshold all configurations perform identically",
            f"lightest-load latency {min(lightest):.3f}-{max(lightest):.3f} ms",
            max(lightest) < 1.1 * min(lightest),
        ),
    ]
