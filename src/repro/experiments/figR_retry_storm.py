"""Figure R: retry storms and metastable failure across a load spike.

This figure is not in the paper; it extends the reproduction with the
resilience layer (``repro.resilience``) to test the paper's central
claim from the clients' side.  Proactive rejection is advertised as the
cure for *metastable failures* (Bronson et al., HotOS'21): overloads
that are triggered by a transient spike but sustained by the system's
own recovery traffic after the trigger has passed.

The scenario is an open-loop piecewise-constant arrival ramp (the
trigger): load ramps from well below the knee, over it for one phase,
and back down, then holds below the knee for three more phases.  The
sustaining effect is the naive client: it re-issues any request that
*times out* (``retry_on="timeout"``), exactly the ubiquitous real-world
client wrapper the metastability literature blames.

* **Paxos** has no admission control, so overload manifests as silence:
  queues grow, requests time out, the naive clients double the load,
  and the system stays wedged at zero goodput long after arrivals are
  back below the knee — the load/capacity hysteresis loop.
* **IDEM** converts overload into *explicit, early* rejection.  Replies
  (accept or reject) come back far inside the client's timeout, so the
  naive timeout-retry logic never fires at all: with a calibrated
  threshold the naive arm is byte-identical to the no-retry arm
  (amplification 1.00) and the system recovers as soon as the spike
  ends.
* A **retry budget** (token bucket) is the client-side mitigation: it
  caps amplification and lets even Paxos escape the loop after roughly
  one phase.

A chaos arm crashes a follower mid-spike under IDEM with naive clients
and checks the safety invariants: rejection plus retries plus a crash
must never break linearizability of the replicated log.

The ``naive-any`` arm retries *every* failed outcome, rejections
included — the client behaviour that defeats proactive rejection's
backoff guidance and historically exposed the IDEM active-slot leak
(dedup-dead request ids pinning a replica at its threshold; fixed by
``IdemReplica._release_dedup_dead``, see ``docs/RESILIENCE.md``).
The arm must recover once the spike passes, and it runs with
replica-state probes on (``RunSpec.probes``) so the drift detectors
(``active_set_leak`` among them) audit every run of the figure — its
finding count is a gated headline and must stay zero.

The CPU cost model is scaled up ~30x (``STORM_COST_SCALE``) so the knee
sits at a few hundred requests/second and a 400-client open-loop pool
is comfortably above saturation; this keeps the figure's runtime in CI
territory while preserving the knee/overload geometry of the paper's
testbed calibration.

Scenario-fixed like Figure 10: :func:`plan` reads only ``seed0``.
(Longer spike phases than the calibrated ``PHASE`` erode IDEM's margin
too — see ``docs/RESILIENCE.md`` for that sensitivity and for the
protocol-level slot-leak analysis behind the reject-retry variant of
this storm.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.faults import FaultSchedule
from repro.cluster.metrics import ExperimentResult
from repro.cluster.profile import ClusterProfile
from repro.cluster.runner import RunSpec
from repro.experiments import common
from repro.experiments.charts import timeline_sparkline
from repro.workload.open_loop import ArrivalSpec

#: CPU cost scale-up versus the calibrated testbed profile.
STORM_COST_SCALE = 30.0

#: Seconds per arrival-rate phase.
PHASE = 1.2

#: Offered load (requests/second) per phase.  Phase 2 is the trigger
#: spike (above the ~800/s Paxos knee under ``STORM_COST_SCALE``); the
#: three trailing phases measure hysteresis: load is back at the
#: pre-spike level, so a healthy system must be back at pre-spike
#: goodput.
RATES = (450.0, 700.0, 1100.0, 700.0, 450.0, 450.0, 450.0)

#: Index of the trigger phase in :data:`RATES`.
SPIKE_PHASE = 2

#: Open-loop client pool size (arrivals are shed when all are busy).
POOL = 400

#: Measurement starts after this warmup (inside phase 0).
WARMUP = 0.3

#: A post-spike phase counts as recovered when its goodput is at least
#: this fraction of the pre-spike goodput.
RECOVERY_FRACTION = 0.7

#: Shared scenario overrides: a tight client deadline (the storm's
#: fuel) and retransmits disabled so the *policy layer* is the only
#: source of duplicate traffic.
BASE_OVERRIDES = {"request_timeout": 0.25, "retransmit_interval": 60.0}

#: IDEM's rejection threshold, recalibrated for the scaled cost model
#: (the default 50 is a request count sized for 30x more capacity).
#: At 5 the spike is shed early enough that latency stays far inside
#: the client deadline: zero timeouts, so naive retries never fire.
IDEM_OVERRIDES = {"reject_threshold": 5}

#: The naive client: exponential backoff with full jitter, but applied
#: to *timeouts only* — it honours an explicit rejection's backoff
#: guidance, yet treats silence as "try again".
NAIVE_RETRY = {
    "retry_policy": "exponential",
    "retry_on": "timeout",
    "retry_max_attempts": 6,
    "retry_base_delay": 0.02,
    "retry_max_delay": 0.08,
    "retry_jitter": "full",
}

#: The mitigated client: same naive shape plus a token-bucket retry
#: budget (0.5 tokens/s, burst 2 per client).
BUDGET_RETRY = dict(
    NAIVE_RETRY, retry_budget_rate=0.5, retry_budget_cap=2.0
)

#: The reject-retrying client: treats a rejection like any other
#: failure and re-issues the command (``retry_on="any"``), defeating
#: IDEM's backoff guidance.  Fewer attempts and a wider backoff than
#: NAIVE_RETRY keep the post-spike retry pressure bounded — with
#: NAIVE_RETRY's cadence the reject-retry feedback loop saturates the
#: replicas permanently (the paxos-style metastable wedge, with no
#: admission mechanism left to break it).
ANY_RETRY = dict(
    NAIVE_RETRY,
    retry_on="any",
    retry_max_attempts=3,
    retry_base_delay=0.05,
    retry_max_delay=0.2,
)

#: Mid-spike follower crash time for the chaos arm.
CHAOS_CRASH_TIME = (SPIKE_PHASE + 0.5) * PHASE


@dataclass
class StormRun:
    """One system/policy arm of the retry-storm scenario."""

    system: str
    policy: str
    seed: int
    duration: float
    phase_goodput: list[float]  # replies/s per arrival phase
    throughput_series: list[tuple[float, float]]
    pre_goodput: float  # replies/s before the spike (post-warmup)
    recovered: bool  # back to >= RECOVERY_FRACTION * pre at the end
    wedged_phases: int  # post-spike phases below the recovery bar
    amplification: float  # wire sends per distinct command
    retries: int
    give_ups: int
    timeouts: int
    rejections: int
    shed_arrivals: int
    crashed: bool = False
    safety_violations: list[str] = field(default_factory=list)
    # Drift-detector finding count for probed arms; None when the arm
    # ran without probes.
    drift_findings: int | None = None


def storm_profile() -> ClusterProfile:
    """The scaled-cost cluster profile of the storm scenario."""
    base = ClusterProfile()
    return replace(
        base,
        execution_cost=base.execution_cost * STORM_COST_SCALE,
        cost_client_request=base.cost_client_request * STORM_COST_SCALE,
        cost_message=base.cost_message * STORM_COST_SCALE,
        cost_per_id=base.cost_per_id * STORM_COST_SCALE,
        cost_send=base.cost_send * STORM_COST_SCALE,
        cost_per_byte=base.cost_per_byte * STORM_COST_SCALE,
        cost_execution_overhead=base.cost_execution_overhead * STORM_COST_SCALE,
    )


def arrival_spec() -> ArrivalSpec:
    """The piecewise-constant Poisson arrival ramp (the trigger)."""
    return ArrivalSpec(
        steps=tuple((index * PHASE, rate) for index, rate in enumerate(RATES))
    )


def scenario_duration() -> float:
    return PHASE * len(RATES)


def storm_spec(
    system: str,
    policy: str,
    overrides: dict,
    seed: int = 0,
    faults: FaultSchedule | None = None,
    safety: bool = False,
    probes: bool = False,
) -> RunSpec:
    """The spec of one storm arm."""
    return RunSpec(
        system=system,
        clients=POOL,
        duration=scenario_duration(),
        warmup=WARMUP,
        seed=seed,
        profile=storm_profile(),
        arrivals=arrival_spec(),
        overrides=dict(overrides),
        faults=faults,
        safety=safety,
        keep_metrics=True,
        probes=probes,
    )


def measure_storm(spec: RunSpec, result: ExperimentResult, policy: str) -> StormRun:
    """Reduce one arm's result to per-phase goodput and counters."""
    metrics = result.metrics
    phase_goodput = [
        metrics.reply_counter.rate_between(index * PHASE, (index + 1) * PHASE)
        for index in range(len(RATES))
    ]
    # Pre-spike goodput excludes the warmup ramp; the recovery bar is a
    # fraction of it, so the headline indicators are robust 0/1 values.
    pre_goodput = metrics.reply_counter.rate_between(WARMUP, PHASE)
    bar = RECOVERY_FRACTION * pre_goodput
    post = phase_goodput[SPIKE_PHASE + 1 :]
    recovered = len(post) >= 2 and (post[-1] + post[-2]) / 2.0 >= bar
    stats = result.client_stats
    return StormRun(
        system=spec.system,
        policy=policy,
        seed=spec.seed,
        duration=spec.duration,
        phase_goodput=phase_goodput,
        throughput_series=metrics.reply_counter.series(),
        pre_goodput=pre_goodput,
        recovered=recovered,
        wedged_phases=sum(1 for rate in post if rate < bar),
        amplification=stats["load_amplification"],
        retries=int(stats["retries"]),
        give_ups=int(stats["give_ups"]),
        timeouts=result.timeouts,
        rejections=int(stats["rejections"]),
        shed_arrivals=int(stats.get("shed_arrivals", 0)),
        crashed=spec.faults is not None,
        safety_violations=result.safety_violations or [],
        drift_findings=(
            len(result.findings) if result.findings is not None else None
        ),
    )


@dataclass
class FigRData:
    """All arms of the retry-storm figure."""

    runs: list[StormRun]

    def find(self, system: str, policy: str) -> StormRun:
        for run_ in self.runs:
            if run_.system == system and run_.policy == policy:
                return run_
        raise KeyError((system, policy))


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """One single-run cell per arm, labelled with the client policy.

    The arms are identical in quick and full mode: the storm is a single
    calibrated operating point (spike height, client deadline and
    rejection threshold are co-tuned; see the module docstring), not a
    sweep that can be thinned.
    """
    idem = dict(BASE_OVERRIDES, **IDEM_OVERRIDES)
    chaos = FaultSchedule().crash_follower(CHAOS_CRASH_TIME)
    arms = [
        ("paxos", "none", BASE_OVERRIDES, None, False, False),
        ("paxos", "naive", dict(BASE_OVERRIDES, **NAIVE_RETRY), None, False, False),
        ("paxos", "budget", dict(BASE_OVERRIDES, **BUDGET_RETRY), None, False, False),
        ("idem", "none", idem, None, False, False),
        ("idem", "naive", dict(idem, **NAIVE_RETRY), None, False, False),
        # The reject-retrying client that exposed the active-slot leak:
        # probed, so the drift detectors audit every run of this arm.
        ("idem", "naive-any", dict(idem, **ANY_RETRY), None, False, True),
        ("idem", "naive+crash", dict(idem, **NAIVE_RETRY), chaos, True, False),
    ]
    return [
        (policy, [storm_spec(system, policy, overrides, seed0, faults, safety, probes)])
        for system, policy, overrides, faults, safety, probes in arms
    ]


def assemble(plan: common.Plan, results: list) -> FigRData:
    """Every storm arm, reduced."""
    return FigRData(
        [
            measure_storm(spec, result, policy)
            for (policy, [spec]), [result] in zip(plan, results)
        ]
    )


def render(data: FigRData) -> str:
    headers = [
        "system",
        "policy",
        "pre",
        "spike",
        "post phases",
        "amp",
        "retries",
        "give-ups",
        "timeouts",
        "recovered",
    ]
    rows = []
    for run_ in data.runs:
        post = run_.phase_goodput[SPIKE_PHASE + 1 :]
        rows.append(
            [
                run_.system,
                run_.policy,
                f"{run_.pre_goodput:.0f}",
                f"{run_.phase_goodput[SPIKE_PHASE]:.0f}",
                " ".join(f"{rate:4.0f}" for rate in post),
                f"{run_.amplification:.2f}",
                str(run_.retries),
                str(run_.give_ups),
                str(run_.timeouts),
                "yes" if run_.recovered else "NO",
            ]
        )
    table = common.render_table(
        "Figure R: retry storm across a load spike "
        f"(open-loop, {RATES[SPIKE_PHASE]:.0f}/s trigger for one "
        f"{PHASE:.1f} s phase)",
        headers,
        rows,
    )
    # Align the sparkline bins with the metrics buckets (0.25 s) so
    # resampling never produces artificial empty bins.
    duration = scenario_duration()
    buckets = max(1, int(duration / 0.25))
    sparks = [
        "",
        "Goodput timelines (arrival phases: "
        + " ".join(f"{rate:.0f}" for rate in RATES)
        + " /s):",
    ]
    arrival_spark = timeline_sparkline(
        [(index * PHASE, rate) for index, rate in enumerate(RATES)],
        0.0,
        duration,
        buckets=len(RATES),
    )
    sparks.append(f"  {'offered load':20s} {arrival_spark}")
    for run_ in data.runs:
        spark = timeline_sparkline(
            run_.throughput_series, 0.0, duration, buckets=buckets
        )
        label = f"{run_.system}/{run_.policy}"
        sparks.append(f"  {label:20s} {spark}")
    hysteresis = []
    for run_ in data.runs:
        if run_.wedged_phases and not run_.recovered:
            hysteresis.append(
                f"  {run_.system}/{run_.policy}: wedged for "
                f"{run_.wedged_phases} post-spike phase(s) — metastable "
                "(load is back below the knee, goodput is not)"
            )
        elif run_.wedged_phases:
            hysteresis.append(
                f"  {run_.system}/{run_.policy}: degraded for "
                f"{run_.wedged_phases} post-spike phase(s), then recovered"
            )
        else:
            hysteresis.append(
                f"  {run_.system}/{run_.policy}: no hysteresis "
                "(every post-spike phase at pre-spike goodput)"
            )
    chaos_runs = [run_ for run_ in data.runs if run_.crashed]
    violations = [v for run_ in chaos_runs for v in run_.safety_violations]
    if violations:
        safety = "\nsafety invariants VIOLATED:\n  " + "\n  ".join(violations)
    else:
        safety = (
            f"\nsafety invariants across {len(chaos_runs)} chaos arm(s): "
            "OK (0 violations)"
        )
    return (
        table
        + "\n"
        + "\n".join(sparks)
        + "\n\nHysteresis verdicts:\n"
        + "\n".join(hysteresis)
        + safety
    )


def headlines(data: FigRData) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_figR.json``."""
    metrics: dict[str, float] = {}
    for run_ in data.runs:
        key = f"{run_.system}.{run_.policy}"
        # 0/1 indicators are robust to the ±15% band: they only move
        # when the hysteresis story itself changes.
        metrics[f"{key}.recovered"] = 1.0 if run_.recovered else 0.0
        metrics[f"{key}.amplification"] = run_.amplification
        if run_.drift_findings is not None:
            # Probed arm: the drift detectors must stay silent (the
            # active-slot leak regression gate; 0/1-style like recovered).
            metrics[f"{key}.drift_findings"] = float(run_.drift_findings)
    chaos_violations = sum(
        len(run_.safety_violations) for run_ in data.runs if run_.crashed
    )
    metrics["chaos.safety_violations"] = float(chaos_violations)
    return metrics


def claims(data: FigRData) -> list[common.Claim]:
    """The extension's hysteresis story (not a paper figure; the paper
    motivates proactive rejection with exactly this failure mode)."""

    def verdict(*arms: StormRun) -> str:
        return "; ".join(
            f"{arm.system}/{arm.policy} {'recovered' if arm.recovered else 'wedged'} "
            f"(amplification {arm.amplification:.2f})"
            for arm in arms
        )

    naive, budget = data.find("paxos", "naive"), data.find("paxos", "budget")
    idem_none, idem_naive = data.find("idem", "none"), data.find("idem", "naive")
    idem_any = data.find("idem", "naive-any")
    chaos = [run_ for run_ in data.runs if run_.crashed]
    violations = sum(len(run_.safety_violations) for run_ in chaos)
    return [
        common.Claim(
            "figR.timeout-retries-wedge-paxos",
            "extension (docs/RESILIENCE.md): without admission control timeout-"
            "retrying clients keep Paxos wedged after the spike; a retry budget escapes",
            verdict(naive, budget),
            not naive.recovered
            and naive.amplification > 1.5
            and budget.recovered
            and budget.amplification < naive.amplification,
        ),
        common.Claim(
            "figR.rejection-starves-the-storm",
            "extension (docs/RESILIENCE.md): IDEM's early rejections beat the client "
            "timeout, so the same naive retry logic never fires",
            f"{verdict(idem_naive, idem_none)}; {idem_naive.timeouts} timeouts",
            idem_naive.recovered
            and idem_naive.amplification == 1.0
            and idem_naive.phase_goodput == idem_none.phase_goodput,
        ),
        common.Claim(
            "figR.reject-retries-and-crashes-are-survived",
            "extension (docs/RESILIENCE.md): clients that retry rejections too still "
            "recover (no active-slot leak); a mid-spike crash breaks no invariant",
            f"{verdict(idem_any, *chaos)}; {idem_any.drift_findings} drift "
            f"finding(s), {violations} safety violation(s)",
            idem_any.recovered
            and idem_any.drift_findings == 0
            and all(run_.recovered for run_ in chaos)
            and violations == 0,
        ),
    ]
