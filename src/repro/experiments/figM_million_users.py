"""Figure M: a million-user population under sustained near-knee load.

This figure is not in the paper; it extends the reproduction with the
aggregate client-population backend (``repro.population``) to test the
paper's thesis at the population scale the introduction invokes (game
servers and web backends with *millions* of semi-autonomous clients) —
far beyond what per-object closed-loop clients can simulate.

Each arm folds N virtual clients into one
:class:`~repro.population.aggregate.AggregateClientNode`: the think
pool is a counter, arrivals are an analytically fed-back Poisson
process at ``lambda_eff(t) = thinkers(t) / Z``, and per-request state
stays O(active requests).  The think time is scaled with N
(``Z = N / OFFERED``) so every arm offers the same ~50 k req/s — right
at the IDEM knee — and only the population size varies across three
decades: 10 k, 100 k, and 1 M virtual clients.

The story the sweep tells:

* **IDEM** answers excess load with proactive rejection.  Rejected
  virtual clients get their fallback response within milliseconds
  (``reject_reentry="think"``: a rejected user is served by the
  fallback and returns to the think pool, so rejection genuinely
  *sheds* load).  Goodput and the success tail stay **flat in N** —
  p99 is ~1.6 ms whether 10 k or 1 M users are attached.
* **Paxos** has no admission control.  At small N the closed loop
  still self-limits (Z is short, so queueing latency visibly throttles
  re-arrival), but as N grows the loop opens up — each client re-thinks
  for ``Z = N/50k`` seconds regardless of service latency — and the
  excess queues: p99 *grows with the population size* (≈13 ms at 10 k,
  ≈45 ms at 100 k, ≈55+ ms at 1 M in the quick slice) while goodput
  stays near capacity.

That contrast — tail latency invariant to population size with
proactive rejection, growing with it without — is the figure's
headline, gated per arm (goodput, p99, reject rate and
events-per-request) against ``benchmarks/baselines/BENCH_figM.json``.

Events-per-request is the backend's cost claim: simulation cost scales
with the *arrival rate*, not with N (the 1 M arm costs the same ~15
events per request as the 10 k arm), which is what makes a
million-client arm fit in CI smoke time.  ``docs/WORKLOADS.md``
documents the population model, the ``lambda_eff`` derivation, and the
approximations behind it.

The window [``WARMUP``, duration) is aligned to the 0.25 s metric
buckets so the goodput headline is an exact rate (no partial-bucket
quantisation).  Operating-point caveat: pushing the offered load well
past the knee drives the replicated admission layer into a metastable
partial-acceptance regime (replicas' acceptance decisions diverge and
commits detour through the ~100 ms forward sweep) — interesting, but a
different experiment; the calibrated 50 k operating point keeps IDEM in
the healthy shedding regime across seeds and population sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.metrics import ExperimentResult
from repro.cluster.runner import RunSpec
from repro.experiments import common
from repro.experiments.common import _mean, _spread
from repro.population.spec import PopulationSpec

#: Offered load (req/s) shared by every arm: ``Z = N / OFFERED``.
OFFERED = 50_000.0

#: The population-size sweep — three decades up to one million users.
N_SWEEP = (10_000, 100_000, 1_000_000)

#: Systems under comparison (with and without proactive rejection).
SYSTEMS = ("idem", "paxos")

#: Measurement starts here; with the 0.25 s metric buckets the window
#: [WARMUP, duration) is bucket-aligned for the standard durations.
WARMUP = 0.25

#: Full-mode / quick-mode run length (seconds); both bucket-aligned.
DURATION = 1.25
QUICK_DURATION = 0.75

#: Seeded runs averaged per arm (full mode; quick uses one).
FULL_RUNS = 3


def population_spec(n_clients: int) -> PopulationSpec:
    """The population of one arm: think time scaled so the offered load
    is ``OFFERED`` regardless of N; rejected users are served by their
    fallback and return to the think pool ("think" re-entry)."""
    return PopulationSpec(
        think_time=n_clients / OFFERED,
        reject_reentry="think",
    )


def million_spec(
    system: str, n_clients: int, seed: int = 0, duration: float = DURATION
) -> RunSpec:
    """The spec of one (system, N, seed) arm."""
    return RunSpec(
        system=system,
        clients=n_clients,
        duration=duration,
        warmup=WARMUP,
        seed=seed,
        population=population_spec(n_clients),
    )


@dataclass
class MillionRun:
    """One (system, N) arm, averaged over its seeded runs."""

    system: str
    clients: int
    runs: int
    goodput: float  # successful replies/s over the window
    goodput_std: float
    mean_ms: float  # mean success latency
    p99_ms: float  # p99 success latency
    reject_rate: float  # abandoned-by-rejection ops/s
    reject_p99_ms: float  # p99 fallback (rejection) latency
    timeouts: int
    events_per_request: float  # simulator events per distinct command
    arrivals: int  # aggregate arrivals generated (all seeds)

    @property
    def reject_share(self) -> float:
        total = self.goodput + self.reject_rate
        return self.reject_rate / total if total else 0.0


@dataclass
class FigMData:
    """All arms of the million-user figure."""

    runs: list[MillionRun]
    offered: float = OFFERED

    def find(self, system: str, clients: int) -> MillionRun:
        for run_ in self.runs:
            if run_.system == system and run_.clients == clients:
                return run_
        raise KeyError((system, clients))


def plan(
    quick: bool = False,
    runs: int | None = None,
    seed0: int = 0,
    duration: float | None = None,
) -> common.Plan:
    """One cell per (system, N) arm: its seeded specs, labelled with the
    system."""
    if runs is None:
        runs = 1 if quick else FULL_RUNS
    if duration is None:
        duration = QUICK_DURATION if quick else DURATION
    return [
        (
            system,
            [
                million_spec(system, n_clients, seed0 + run_index, duration)
                for run_index in range(runs)
            ],
        )
        for system in SYSTEMS
        for n_clients in N_SWEEP
    ]


def measure_arm(specs: list[RunSpec], results: list[ExperimentResult]) -> MillionRun:
    """Average one (system, N) arm over its seeded results."""
    goodputs = [result.throughput for result in results]
    events = sum(result.sim_stats["dispatched_events"] for result in results)
    commands = sum(int(result.client_stats["commands"]) for result in results)
    return MillionRun(
        system=specs[0].system,
        clients=specs[0].clients,
        runs=len(specs),
        goodput=_mean(goodputs),
        goodput_std=_spread(goodputs),
        mean_ms=_mean([result.latency.mean * 1e3 for result in results]),
        p99_ms=_mean([result.latency.p99 * 1e3 for result in results]),
        reject_rate=_mean([result.reject_throughput for result in results]),
        reject_p99_ms=_mean(
            [result.reject_latency.p99 * 1e3 for result in results]
        ),
        timeouts=sum(result.timeouts for result in results),
        events_per_request=events / commands if commands else 0.0,
        arrivals=sum(
            int(result.client_stats.get("arrivals", 0)) for result in results
        ),
    )


def assemble(plan: common.Plan, results: list) -> FigMData:
    """Every (system, N) arm of the sweep."""
    return FigMData(
        [measure_arm(specs, cell) for (_system, specs), cell in zip(plan, results)]
    )


def render(data: FigMData) -> str:
    headers = [
        "system",
        "clients",
        "goodput",
        "p99 ms",
        "rej/s",
        "rej %",
        "rej p99 ms",
        "ev/req",
    ]
    rows = []
    for run_ in data.runs:
        rows.append(
            [
                run_.system,
                f"{run_.clients:,}",
                f"{run_.goodput / 1e3:.1f}k",
                f"{run_.p99_ms:.2f}",
                f"{run_.reject_rate:.0f}",
                f"{100 * run_.reject_share:.1f}%",
                f"{run_.reject_p99_ms:.1f}",
                f"{run_.events_per_request:.1f}",
            ]
        )
    table = common.render_table(
        "Figure M: population-size sweep at a fixed "
        f"{data.offered / 1e3:.0f}k req/s offered load "
        "(aggregate client backend, think time Z = N / offered)",
        headers,
        rows,
    )
    verdict_lines = ["", "Tail-vs-population verdicts:"]
    for system in SYSTEMS:
        growth, ends = _tail_growth(data, system)
        verdict = "flat in" if growth < TAIL_GROWTH_BAR else "grows with"
        verdict_lines.append(f"  {system}: p99 {verdict} N ({ends}; x{growth:.1f})")
    return table + "\n" + "\n".join(verdict_lines)


#: p99 ratio (largest N over smallest N) from which the tail "grows with N".
TAIL_GROWTH_BAR = 2.0


def _tail_growth(data: FigMData, system: str) -> tuple[float, str]:
    """p99 ratio between a system's largest-N and smallest-N arm, and
    the two ends as text."""
    arms = [run_ for run_ in data.runs if run_.system == system]
    smallest, largest = arms[0], arms[-1]
    growth = largest.p99_ms / smallest.p99_ms if smallest.p99_ms > 0 else 0.0
    ends = (
        f"{smallest.p99_ms:.1f} ms @ {smallest.clients:,} -> "
        f"{largest.p99_ms:.1f} ms @ {largest.clients:,}"
    )
    return growth, ends


def headlines(data: FigMData) -> dict[str, float]:
    """Headline metrics gated against ``BENCH_figM.json``."""
    metrics: dict[str, float] = {}
    for run_ in data.runs:
        key = f"{run_.system}.n{run_.clients}"
        metrics[f"{key}.goodput"] = run_.goodput
        metrics[f"{key}.p99_ms"] = run_.p99_ms
        metrics[f"{key}.reject_rate"] = run_.reject_rate
        # The backend's cost claim: simulation cost per request is flat
        # in N (the 1M arm must not cost more events than the 10k arm).
        metrics[f"{key}.events_per_request"] = run_.events_per_request
    return metrics


def claims(data: FigMData) -> list[common.Claim]:
    """The extension's population-scale story (not a paper figure; the
    paper's introduction invokes services with millions of clients)."""
    idem_growth, idem_ends = _tail_growth(data, "idem")
    paxos_growth, paxos_ends = _tail_growth(data, "paxos")
    costs = {
        system: [r.events_per_request for r in data.runs if r.system == system]
        for system in SYSTEMS
    }
    return [
        common.Claim(
            "figM.idem-tail-flat-in-n",
            "extension (docs/WORKLOADS.md): with proactive rejection the success "
            "tail is invariant to population size",
            f"p99 {idem_ends} (x{idem_growth:.1f})",
            idem_growth < TAIL_GROWTH_BAR,
        ),
        common.Claim(
            "figM.paxos-tail-grows-with-n",
            "extension (docs/WORKLOADS.md): without admission control the tail "
            "grows with population size",
            f"p99 {paxos_ends} (x{paxos_growth:.1f})",
            paxos_growth >= TAIL_GROWTH_BAR,
        ),
        common.Claim(
            "figM.cost-flat-in-n",
            "extension (docs/WORKLOADS.md): simulation cost scales with the arrival "
            "rate, not with the population size",
            ", ".join(
                f"{system} {cost[0]:.1f} -> {cost[-1]:.1f} events/request"
                for system, cost in costs.items()
            ),
            all(cost[-1] <= 1.2 * cost[0] for cost in costs.values()),
        ),
    ]
