"""Figure 2: behaviour of existing replication protocols under load.

The paper's motivating measurement: Paxos delivers low, stable latency
up to its saturation point (the *good tier*), after which latency
escalates with offered load (the *bad tier*).  We sweep closed-loop
clients and report average latency (with its standard deviation) against
achieved throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import common


# Client counts spanning well below saturation (~50 clients) to 4x beyond.
FULL_CLIENTS = [5, 10, 15, 25, 35, 50, 75, 100, 150, 200]
QUICK_CLIENTS = [10, 35, 50, 100, 200]


@dataclass
class Fig2Data:
    """The measured Paxos load/latency curve."""

    points: list[common.Point]

    def saturation_point(self) -> common.Point:
        """The knee of the curve: the *lightest* load that already
        achieves (within 5%) the maximum throughput.

        Past the knee closed-loop clients only add queueing delay, so
        the throughput curve is flat and ``argmax`` would pick an
        arbitrary deep-overload point.
        """
        peak = max(point.throughput for point in self.points)
        for point in self.points:
            if point.throughput >= 0.95 * peak:
                return point
        return self.points[-1]


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """One cell per client count: the seeded Paxos specs of that point."""
    clients = QUICK_CLIENTS if quick else FULL_CLIENTS
    return common.sweep("paxos", clients, quick, runs, seed0=seed0, duration=duration)


def assemble(plan: common.Plan, results: list) -> Fig2Data:
    """The Paxos curve of Figure 2."""
    return Fig2Data(common.curves(plan, results)["paxos"])


def render(data: Fig2Data) -> str:
    """Paper-style series: latency (avg ± std) over throughput."""
    return common.render_table(
        "Figure 2: Paxos under increasing load (good tier -> bad tier)",
        common.POINT_HEADERS,
        common.point_rows(data.points),
    )


def headlines(data: Fig2Data) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_fig2.json``."""
    knee = data.saturation_point()
    return {
        "knee.throughput": knee.throughput,
        "knee.latency_ms": knee.latency_ms,
        "max_load.latency_ms": data.points[-1].latency_ms,
    }


def claims(data: Fig2Data) -> list[common.Claim]:
    """Section 3.1's two service tiers, evaluated on the measured curve."""
    knee = data.saturation_point()
    lightest, heaviest = data.points[0], data.points[-1]
    return [
        common.Claim(
            "fig2.good-tier",
            "§3.1: below saturation Paxos offers low, stable latency (the good tier)",
            f"{lightest.latency_ms:.2f} ms at {lightest.clients} clients, "
            f"{knee.latency_ms:.2f} ms at the knee",
            lightest.latency_ms < 1.5 and lightest.latency_ms <= knee.latency_ms * 1.5,
        ),
        common.Claim(
            "fig2.bad-tier",
            "§3.1: past saturation latency escalates with offered load (the bad tier)",
            f"{heaviest.latency_ms:.2f} ms at {heaviest.clients} clients = "
            f"{heaviest.latency_ms / knee.latency_ms:.1f}x the knee",
            heaviest.latency_ms > 3.0 * knee.latency_ms,
        ),
        common.Claim(
            "fig2.throughput-saturates",
            "§3.1: past the knee additional load buys no throughput",
            f"{heaviest.throughput_kops:.1f}k req/s at max load vs "
            f"{knee.throughput_kops:.1f}k at the knee",
            heaviest.throughput <= knee.throughput * 1.05,
        ),
    ]
