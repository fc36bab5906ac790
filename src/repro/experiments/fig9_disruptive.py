"""Figure 9: IDEM under disruptive conditions.

(a) *Misconfiguration*: a reject threshold of 100 — well above what the
cluster can handle — lets the system enter overload before rejection
bites; latency climbs beyond the healthy plateau but the mechanism still
arrests the explosion that plain protocols exhibit.

(b) *Extreme load*: up to 14x the baseline client load.  Throughput
degrades gracefully (the paper measures ≈55% of peak at 14x) while
latency stays low, because most clients are rejected quickly and back
off.

Known deviation (see EXPERIMENTS.md): in this reproduction the 9a
arrest is weaker than the paper's — with RT above the CPU-sustainable
level, queueing concentrates in the leader's processor where followers'
acceptance tests cannot see it, so latency keeps growing with load
(without collapse).  The adaptive-threshold extension
(``idem-adaptive``) closes exactly this gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import common

MISCONFIG_FACTORS = [1, 2, 4, 6, 8]
EXTREME_FACTORS = [2, 4, 6, 8, 10, 12, 14]
QUICK_MISCONFIG = [1, 6]
QUICK_EXTREME = [2, 14]


@dataclass
class Fig9Data:
    """Both panels of Figure 9."""

    misconfigured: list[common.Point]  # RT = 100
    extreme: list[common.Point]  # RT = 50, up to 14x

    def extreme_peak_throughput(self) -> float:
        return max(point.throughput for point in self.extreme)

    def extreme_final(self) -> common.Point:
        return self.extreme[-1]


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """Panel a's cells (RT=100, label ``"misconfigured"``), then panel b's
    (label ``"extreme"``)."""
    misconfig = QUICK_MISCONFIG if quick else MISCONFIG_FACTORS
    extreme = QUICK_EXTREME if quick else EXTREME_FACTORS
    return common.sweep(
        "idem",
        [50 * factor for factor in misconfig],
        quick,
        runs,
        label="misconfigured",
        seed0=seed0,
        duration=duration,
        overrides={"reject_threshold": 100},
    ) + common.sweep(
        "idem",
        [50 * factor for factor in extreme],
        quick,
        runs,
        label="extreme",
        seed0=seed0,
        duration=duration,
    )


def assemble(plan: common.Plan, results: list) -> Fig9Data:
    panels = common.curves(plan, results)
    return Fig9Data(panels["misconfigured"], panels["extreme"])


def render(data: Fig9Data) -> str:
    part_a = common.render_table(
        "Figure 9a: misconfigured reject threshold (RT=100)",
        common.REJECT_HEADERS,
        common.point_rows(data.misconfigured, with_rejects=True),
    )
    part_b = common.render_table(
        "Figure 9b: extreme load (RT=50, up to 14x baseline)",
        common.REJECT_HEADERS,
        common.point_rows(data.extreme, with_rejects=True),
    )
    final = data.extreme_final()
    summary = (
        f"\nextreme load: peak {data.extreme_peak_throughput() / 1e3:.1f}k req/s; "
        f"at {final.load_factor:.0f}x -> {final.throughput_kops:.1f}k req/s "
        f"({100 * final.throughput / data.extreme_peak_throughput():.0f}% of peak) "
        f"at {final.latency_ms:.2f} ms"
    )
    return part_a + "\n\n" + part_b + summary


def headlines(data: Fig9Data) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_fig9.json``."""
    final = data.extreme_final()
    peak = data.extreme_peak_throughput()
    return {
        "extreme.peak_throughput": peak,
        "extreme.final_fraction_of_peak": final.throughput / peak if peak else 0.0,
        "extreme.final_latency_ms": final.latency_ms,
        "misconfig.max_load_latency_ms": data.misconfigured[-1].latency_ms,
    }


def claims(data: Fig9Data) -> list[common.Claim]:
    """Section 7.6's disruptive conditions, evaluated on both panels."""
    base, heavy = data.misconfigured[0], data.misconfigured[-1]
    worst = max(point.latency_ms for point in data.misconfigured)
    throughputs = [point.throughput for point in data.misconfigured]
    final, peak = data.extreme_final(), data.extreme_peak_throughput()
    extreme_worst = max(point.latency_ms for point in data.extreme)
    return [
        common.Claim(
            "fig9.a-misconfig-costs-latency",
            "§7.6: with RT=100 latency climbs past the healthy plateau before "
            "rejection slows the growth",
            f"{base.latency_ms:.2f} ms at {base.load_factor:.0f}x -> worst {worst:.2f} ms",
            worst > 1.3 * base.latency_ms,
            note="the paper holds latency near 2 ms between 4x and 6x; here the "
            "leader's CPU queue keeps it growing with load, without collapse "
            "(EXPERIMENTS.md, Figure 9a)",
        ),
        common.Claim(
            "fig9.a-no-collapse",
            "§7.6: no Paxos-style collapse — the misconfigured system keeps serving "
            "at its peak rate and rejection does activate",
            f"throughput {min(throughputs) / 1e3:.1f}k-{max(throughputs) / 1e3:.1f}k "
            f"req/s, {heavy.reject_throughput:.0f} rejects/s at {heavy.load_factor:.0f}x",
            min(throughputs) > 0.8 * max(throughputs) and heavy.reject_throughput > 0,
        ),
        common.Claim(
            "fig9.b-graceful-degradation",
            "§7.6: under extreme load throughput degrades gracefully (about 55% of "
            "peak at 14x): most clients are rejected quickly and back off",
            f"{100 * final.throughput / peak:.0f}% of peak at "
            f"{final.load_factor:.0f}x, {100 * final.reject_share:.1f}% rejected",
            final.throughput > 0.4 * peak and final.reject_share > 0.05,
        ),
        common.Claim(
            "fig9.b-latency-stays-low",
            "§7.6: latency stays low up to 14x the baseline load",
            f"{final.latency_ms:.2f} ms at {final.load_factor:.0f}x, "
            f"worst {extreme_worst:.2f} ms",
            final.latency_ms < 2.0 and extreme_worst < 2.0,
        ),
    ]
