"""Figure 7: reject behaviour in IDEM under increasing load.

Sweeps the client-load factor (1x = 50 clients, the saturation point)
and reports reject throughput and reject latency.  The paper's claims
(Section 7.3): reject latency stays stable (same range as replies) up to
8x overload, and rejects remain a small share of total operations (<3%
in moderate overload, ≈10% at 8x) because rejected clients back off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import common

FULL_FACTORS = [1, 2, 3, 4, 6, 8]
QUICK_FACTORS = [2, 8]


@dataclass
class Fig7Data:
    """Reject throughput/latency per client-load factor."""

    points: list[common.Point]

    def point_at(self, factor: float) -> common.Point:
        """The measured point for a given load factor."""
        for point in self.points:
            if abs(point.load_factor - factor) < 1e-9:
                return point
        raise KeyError(f"no point at load factor {factor}")


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """One cell per load factor: the seeded IDEM specs of that point."""
    clients = [50 * factor for factor in (QUICK_FACTORS if quick else FULL_FACTORS)]
    return common.sweep("idem", clients, quick, runs, seed0=seed0, duration=duration)


def assemble(plan: common.Plan, results: list) -> Fig7Data:
    return Fig7Data(common.curves(plan, results)["idem"])


def render(data: Fig7Data) -> str:
    return common.render_table(
        "Figure 7: reject behaviour in IDEM under increasing load",
        common.REJECT_HEADERS,
        common.point_rows(data.points, with_rejects=True),
    )


def headlines(data: Fig7Data) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_fig7.json``."""
    heaviest = data.points[-1]
    return {
        "max_load.throughput": heaviest.throughput,
        "max_load.reject_share": heaviest.reject_share,
        "max_load.reject_latency_ms": heaviest.reject_latency_ms,
    }


def claims(data: Fig7Data) -> list[common.Claim]:
    """Section 7.3's reject behaviour, evaluated on the measured sweep."""
    rejecting = [point for point in data.points if point.reject_throughput > 0]
    reject_latencies = [point.reject_latency_ms for point in rejecting]
    heavy, moderate = data.point_at(8.0), data.point_at(2.0)
    return [
        common.Claim(
            "fig7.reject-latency-stable",
            "§7.3: reject latency is stable across overload levels and in the same "
            "range as a timely reply, even at 8x",
            "reject latency "
            + ", ".join(
                f"{p.reject_latency_ms:.2f} ms at {p.load_factor:.0f}x" for p in rejecting
            ),
            bool(rejecting)
            and max(reject_latencies) < 2.5 * min(reject_latencies)
            # The optimistic 5 ms grace skews the mean upward.
            and all(p.reject_latency_ms < 5.0 * p.latency_ms for p in rejecting),
        ),
        common.Claim(
            "fig7.reject-share-small",
            "§7.3: rejects stay a small share of operations (<3% in moderate "
            "overload, about 10% at 8x) because rejected clients back off",
            f"{100 * moderate.reject_share:.1f}% at 2x, "
            f"{100 * heavy.reject_share:.1f}% at 8x",
            0.02 < heavy.reject_share < 0.25 and moderate.reject_share < 0.05,
        ),
        common.Claim(
            "fig7.reply-latency-plateau",
            "§7.3: reply latency stays on the plateau at every overload level",
            f"max reply latency {max(p.latency_ms for p in data.points):.2f} ms",
            all(point.latency_ms < 2.0 for point in data.points),
        ),
    ]
