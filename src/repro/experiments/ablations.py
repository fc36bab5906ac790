"""Ablations of IDEM's design choices (beyond the paper's plots).

DESIGN.md calls out the load-bearing mechanisms; each ablation removes
or varies one at 4x overload (200 clients, rejection active throughout):
the leader's batch size, optimistic vs pessimistic clients (Section
5.3), the forward timeout and the recently-rejected cache (Section 5.2),
and AQM vs plain tail drop with all replicas alive (Section 5.1; the
difference only matters in the f+1 regime of Figure 10).

Scenario-fixed like Figure 10: every arm is one calibrated operating
point, not a sweep that can be thinned, so :func:`plan` reads only
``seed0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.runner import RunSpec
from repro.experiments import common

OVERLOAD_CLIENTS = 200  # 4x baseline: rejection active throughout


@dataclass
class Arm:
    """One ablation arm, averaged over its seeded runs."""

    ablation: str
    value: str  # the varied setting, as a label
    throughput: float
    latency_ms: float
    reject_throughput: float
    reject_latency_ms: float
    forwards: float
    fetches: float


@dataclass
class AblData:
    """Every arm of every ablation."""

    arms: list[Arm]

    def arm(self, ablation: str, value: str) -> Arm:
        for arm in self.arms:
            if (arm.ablation, arm.value) == (ablation, value):
                return arm
        raise KeyError((ablation, value))


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """Every arm as ``((ablation, value label), its seeded specs)``."""

    def one(system: str, **overrides: Any) -> list[RunSpec]:
        return [
            RunSpec(
                system=system,
                clients=OVERLOAD_CLIENTS,
                duration=1.0,
                warmup=0.3,
                seed=seed0,
                overrides=overrides,
            )
        ]

    def two(system: str) -> list[RunSpec]:
        return common.point_specs(
            system, OVERLOAD_CLIENTS, runs=2, duration=1.0, seed0=seed0
        )

    return [
        *((("batch_size", str(b)), one("idem", batch_max=b)) for b in (4, 32, 128)),
        (("client_strategy", "optimistic"), one("idem")),
        (("client_strategy", "pessimistic"), one("idem-pessimistic")),
        *(
            (("forward_timeout", f"{t * 1e3:.0f}ms"), one("idem", forward_timeout=t))
            for t in (0.002, 0.010, 0.040)
        ),
        *(
            (("reject_cache", str(size)), one("idem", rejected_cache_size=size))
            for size in (256, 0)
        ),
        (("aqm", "aqm"), two("idem")),
        (("aqm", "taildrop"), two("idem-noaqm")),
    ]


def _arm(ablation: str, value: str, results: list) -> Arm:
    def mean(metric) -> float:
        return sum(metric(result) for result in results) / len(results)

    return Arm(
        ablation,
        value,
        throughput=mean(lambda r: r.throughput),
        latency_ms=mean(lambda r: r.latency.mean * 1e3),
        reject_throughput=mean(lambda r: r.reject_throughput),
        reject_latency_ms=mean(lambda r: r.reject_latency.mean * 1e3),
        forwards=mean(lambda r: sum(s["forwards"] for s in r.replica_stats)),
        fetches=mean(lambda r: sum(s["fetches"] for s in r.replica_stats)),
    )


def assemble(plan: common.Plan, results: list) -> AblData:
    """Average every arm over its seeded results."""
    return AblData([_arm(*label, cell) for (label, _specs), cell in zip(plan, results)])


def render(data: AblData) -> str:
    return common.render_table(
        f"Ablations: IDEM's design choices at 4x overload ({OVERLOAD_CLIENTS} clients)",
        ["ablation", "arm", "tput", "lat ms", "rej/s", "rej lat ms", "forwards", "fetches"],
        [
            [
                arm.ablation,
                arm.value,
                f"{arm.throughput / 1e3:.1f}k",
                f"{arm.latency_ms:.2f}",
                f"{arm.reject_throughput:.0f}",
                f"{arm.reject_latency_ms:.2f}",
                f"{arm.forwards:.0f}",
                f"{arm.fetches:.0f}",
            ]
            for arm in data.arms
        ],
    )


def headlines(data: AblData) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_abl.json``."""
    count = {"forward_timeout": "forwards", "reject_cache": "fetches"}
    metrics: dict[str, float] = {}
    for arm in data.arms:
        key = f"{arm.ablation}.{arm.value}"
        metrics[f"{key}.throughput"] = arm.throughput
        metrics[f"{key}.reject_latency_ms"] = arm.reject_latency_ms
        if arm.ablation in count:
            metrics[f"{key}.{count[arm.ablation]}"] = getattr(arm, count[arm.ablation])
    return metrics


def claims(data: AblData) -> list[common.Claim]:
    """What each mechanism is in the design for, evaluated on its arms."""
    tiny, default, large = (data.arm("batch_size", b) for b in ("4", "32", "128"))
    optimistic = data.arm("client_strategy", "optimistic")
    pessimistic = data.arm("client_strategy", "pessimistic")
    timeouts = [arm for arm in data.arms if arm.ablation == "forward_timeout"]
    forward_tputs = [arm.throughput for arm in timeouts]
    cached, uncached = data.arm("reject_cache", "256"), data.arm("reject_cache", "0")
    aqm, taildrop = data.arm("aqm", "aqm"), data.arm("aqm", "taildrop")
    return [
        common.Claim(
            "abl.batch-size",
            "DESIGN.md: batching amortises agreement; tiny batches cost throughput",
            f"{tiny.throughput / 1e3:.1f}k / {default.throughput / 1e3:.1f}k / "
            f"{large.throughput / 1e3:.1f}k req/s at batch 4 / 32 / 128",
            tiny.throughput < default.throughput
            and large.throughput > 0.9 * default.throughput,
        ),
        common.Claim(
            "abl.client-strategy",
            "§5.3: pessimistic clients reject sooner; the optimistic grace never "
            "adds rejections",
            f"reject latency {pessimistic.reject_latency_ms:.2f} vs "
            f"{optimistic.reject_latency_ms:.2f} ms, rejects "
            f"{pessimistic.reject_throughput:.0f} vs {optimistic.reject_throughput:.0f}/s",
            pessimistic.reject_latency_ms < optimistic.reject_latency_ms
            and optimistic.reject_throughput <= pessimistic.reject_throughput * 1.05,
        ),
        common.Claim(
            "abl.forward-timeout",
            "§5.2: a shorter forward timeout forwards more; throughput barely cares",
            f"{timeouts[0].forwards:.0f} forwards at {timeouts[0].value} vs "
            f"{timeouts[-1].forwards:.0f} at {timeouts[-1].value}; throughput "
            f"{min(forward_tputs) / 1e3:.1f}k-{max(forward_tputs) / 1e3:.1f}k req/s",
            timeouts[0].forwards >= timeouts[-1].forwards
            and max(forward_tputs) < 1.3 * min(forward_tputs),
        ),
        common.Claim(
            "abl.reject-cache",
            "§5.2: the recently-rejected cache avoids fetches; the plateau holds "
            "either way",
            f"{cached.fetches:.0f} fetches @ {cached.latency_ms:.2f} ms with, "
            f"{uncached.fetches:.0f} @ {uncached.latency_ms:.2f} ms without",
            cached.fetches <= uncached.fetches
            and max(cached.latency_ms, uncached.latency_ms) < 2.0,
        ),
        common.Claim(
            "abl.aqm-vs-taildrop",
            "§5.1: with all replicas alive AQM and tail drop perform alike; AQM "
            "rejects cheaper",
            f"{aqm.throughput / 1e3:.1f}k vs {taildrop.throughput / 1e3:.1f}k req/s, "
            f"reject latency {aqm.reject_latency_ms:.2f} vs "
            f"{taildrop.reject_latency_ms:.2f} ms",
            abs(aqm.throughput - taildrop.throughput) < 0.15 * taildrop.throughput
            and aqm.reject_latency_ms <= taildrop.reject_latency_ms * 1.1,
        ),
    ]
