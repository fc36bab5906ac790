"""Figure 3: impact of a leader crash on rejections in Paxos_LBR.

The motivating counter-example for leader-based rejection (Section 3.3):
when rejection is the leader's job, a leader crash silences rejection
notifications until the view change completes *and* clients have failed
over to the new leader.  We run Paxos_LBR under overload, crash the
leader mid-run, and measure the rejection-throughput timeline and the
longest period without any rejection reaching a client.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.faults import FaultSchedule
from repro.cluster.runner import RunSpec
from repro.experiments import common


@dataclass
class Fig3Data:
    """Reject timeline of Paxos_LBR across a leader crash."""

    crash_time: float
    duration: float
    reject_rate_series: list[tuple[float, float]]  # (time, rejects/s)
    reject_downtime: float
    pre_crash_reject_rate: float
    post_crash_reject_rate: float
    # Safety-invariant violations observed across the crash (must be empty).
    safety_violations: list[str] = field(default_factory=list)


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """The single crash-timeline run, labelled with its crash time.

    The timeline is scenario-fixed: ``runs`` and ``duration`` do not
    apply to it.
    """
    crash_time = 2.5 if quick else 3.5
    spec = RunSpec(
        system="paxos-lbr",
        clients=150,  # well past the leader's rejection threshold
        duration=6.0 if quick else 9.0,
        warmup=0.5,
        seed=seed0,
        faults=FaultSchedule().crash_leader(crash_time),
        keep_metrics=True,
        bucket_width=0.25,
        safety=True,
    )
    return [(crash_time, [spec])]


def assemble(plan: common.Plan, results: list) -> Fig3Data:
    """The reject timeline of the Paxos_LBR leader-crash run."""
    [(crash_time, [spec])] = plan
    [[result]] = results
    duration = spec.duration
    metrics = result.metrics
    return Fig3Data(
        crash_time=crash_time,
        duration=duration,
        reject_rate_series=metrics.reject_counter.series(),
        # The longest inter-rejection gap: the crash-induced one dominates.
        reject_downtime=metrics.reject_gaps.longest_gap(),
        pre_crash_reject_rate=metrics.reject_counter.rate_between(1.0, crash_time),
        post_crash_reject_rate=metrics.reject_counter.rate_between(
            duration - 1.0, duration
        ),
        safety_violations=result.safety_violations or [],
    )


def render(data: Fig3Data) -> str:
    rows = [
        [f"{time:.2f}", f"{rate:.0f}"]
        for time, rate in data.reject_rate_series
        if rate > 0 or data.crash_time - 1 <= time <= data.crash_time + 5
    ]
    table = common.render_table(
        "Figure 3: rejections/s over time, Paxos_LBR, leader crash "
        f"at t={data.crash_time:.1f}s",
        ["time s", "rejects/s"],
        rows,
    )
    if data.safety_violations:
        safety = "safety invariants VIOLATED:\n  " + "\n  ".join(
            data.safety_violations
        )
    else:
        safety = "safety invariants across the crash: OK (0 violations)"
    return table + (
        f"\n\nreject downtime after the crash: {data.reject_downtime:.2f} s"
        f"\nreject rate before crash: {data.pre_crash_reject_rate:.0f}/s, "
        f"after recovery: {data.post_crash_reject_rate:.0f}/s"
        f"\n{safety}"
    )


def headlines(data: Fig3Data) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_fig3.json``."""
    return {
        "reject_downtime_s": data.reject_downtime,
        "pre_crash_reject_rate": data.pre_crash_reject_rate,
        "post_crash_reject_rate": data.post_crash_reject_rate,
    }


def claims(data: Fig3Data) -> list[common.Claim]:
    """Section 3.3: leader-based rejection dies with the leader."""
    return [
        common.Claim(
            "fig3.reject-outage",
            "§3.3: after a leader crash Paxos_LBR sends no rejections until the view "
            "change completes and clients fail over (several seconds)",
            f"longest rejection gap {data.reject_downtime:.2f} s; "
            f"{data.pre_crash_reject_rate:.0f} rejects/s before the crash, "
            f"{data.post_crash_reject_rate:.0f}/s after recovery",
            data.pre_crash_reject_rate > 100
            and data.reject_downtime > 1.0
            and data.post_crash_reject_rate > 100,
        )
    ]
