"""The campaign engine: plan once → execute → assemble → gate.

A campaign run has four phases:

1. **Plan** — ask each selected experiment module for its grid,
   ``plan()``, and wrap every entry into a content-addressed job
   (:mod:`repro.campaign.plan`).
2. **Execute** — resolve each distinct job against the content-addressed
   cache, fan the misses out over the process pool, spot-verify a sample
   of hits (:mod:`repro.campaign.pool` / :mod:`repro.campaign.cache`).
3. **Assemble** — hand each experiment its own plan and the results of
   its jobs, looked up by key, in plan order: ``assemble(plan,
   results)`` is a pure reduction, so the output is byte-identical
   whatever the worker count, scheduling order or cache state.
4. **Gate** — ask each experiment module for its verdict on the data
   just assembled (no further simulation): ``claims(data)``, the
   paper's qualitative claims, and a record of ``headlines(data)`` plus
   the fingerprint of every job, compared for equality with the
   committed ``BENCH_*.json`` (:mod:`repro.campaign.baseline`).  Under
   ``--check`` a claim that does not hold fails the campaign like a
   changed headline or fingerprint does, and ``--update-baselines``
   refuses to bless anything while one fails.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.campaign import baseline as baseline_mod
from repro.campaign.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.campaign.gc import record_run
from repro.campaign.plan import plan_jobs
from repro.campaign.pool import ExecutionStats, execute_jobs
from repro.experiments import common
from repro.experiments.registry import EXPERIMENTS, get_experiment


@dataclass
class CampaignOptions:
    """Everything a campaign run needs."""

    experiments: list[str] = field(default_factory=lambda: list(EXPERIMENTS))
    quick: bool = False
    runs: Optional[int] = None
    duration: Optional[float] = None
    seed0: int = 0
    jobs: int = 0  # 0 = one worker per CPU
    cache_dir: Optional[Path] = DEFAULT_CACHE_DIR
    verify_fraction: float = 0.0
    check: bool = False
    update_baselines: bool = False
    baseline_dir: Path = baseline_mod.DEFAULT_BASELINE_DIR
    echo: Optional[Callable[[str], None]] = None  # progress sink (stderr)

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = one per CPU), got {self.jobs}")
        if self.runs is not None and self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")

    def resolved_jobs(self) -> int:
        return self.jobs or os.cpu_count() or 1

    def settings(self) -> dict[str, Any]:
        """The settings recorded in baselines and reports."""
        return {
            "quick": self.quick,
            "runs": self.runs,
            "duration": self.duration,
            "seed0": self.seed0,
        }


@dataclass
class ExperimentOutcome:
    """One experiment's aggregated campaign output."""

    experiment_id: str
    data: Any
    text: str
    headlines: dict[str, float]
    claims: list[common.Claim]


@dataclass
class CampaignResult:
    """The outcome of one whole campaign."""

    options: CampaignOptions
    outcomes: list[ExperimentOutcome]
    stats: ExecutionStats
    baseline_report: Optional[baseline_mod.BaselineReport] = None
    baseline_paths: list[Path] = field(default_factory=list)
    baseline_changes: list[str] = field(default_factory=list)

    @property
    def headlines(self) -> dict[str, dict[str, float]]:
        return {o.experiment_id: o.headlines for o in self.outcomes}

    @property
    def claims(self) -> list[common.Claim]:
        return [claim for o in self.outcomes for claim in o.claims]

    @property
    def failed_claims(self) -> list[common.Claim]:
        return [claim for claim in self.claims if not claim.holds]

    @property
    def ok(self) -> bool:
        if self.stats.verify_failures:
            return False
        if self.baseline_report is not None and not self.baseline_report.ok:
            return False
        # A broken claim is fatal only where the campaign vouches for
        # the model: when gating it, or when blessing its numbers.
        gating = self.options.check or self.options.update_baselines
        if gating and self.failed_claims:
            return False
        return True

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def resolve_experiment_ids(selection: list[str]) -> list[str]:
    """Expand/validate a selection; ``["all"]`` means every experiment."""
    if not selection or selection == ["all"]:
        return list(EXPERIMENTS)
    for experiment_id in selection:
        get_experiment(experiment_id)  # raises KeyError with a clear message
    return list(dict.fromkeys(selection))


def run_campaign(options: CampaignOptions) -> CampaignResult:
    """Run one campaign end to end (no printing; see ``repro.cli``)."""
    echo = options.echo or (lambda message: None)
    ids = resolve_experiment_ids(options.experiments)

    plan_started = time.perf_counter()
    plans = {
        experiment_id: get_experiment(experiment_id).plan(
            quick=options.quick,
            runs=options.runs,
            seed0=options.seed0,
            duration=options.duration,
        )
        for experiment_id in ids
    }
    grids = {
        experiment_id: plan_jobs(experiment_id, plan)
        for experiment_id, plan in plans.items()
    }
    jobs = [job for grid in grids.values() for cell in grid for job in cell]
    plan_seconds = time.perf_counter() - plan_started
    echo(
        f"campaign: planned {len(jobs)} job(s) across {len(ids)} experiment(s) "
        f"({len({job.key for job in jobs})} distinct)"
    )

    cache = ResultCache(options.cache_dir) if options.cache_dir is not None else None
    results, stats = execute_jobs(
        jobs,
        workers=options.resolved_jobs(),
        cache=cache,
        verify_fraction=options.verify_fraction,
        echo=echo,
    )
    stats.plan_seconds = plan_seconds
    if cache is not None:
        # Manifest for --gc: which keys this campaign referenced.
        record_run(cache.root, [job.key for job in jobs])
        stats.cache_entries, stats.cache_bytes = cache.size()

    aggregate_started = time.perf_counter()
    outcomes: list[ExperimentOutcome] = []
    for experiment_id in ids:
        module = get_experiment(experiment_id)
        data = module.assemble(
            plans[experiment_id],
            [[results[job.key] for job in cell] for cell in grids[experiment_id]],
        )
        outcomes.append(
            ExperimentOutcome(
                experiment_id=experiment_id,
                data=data,
                text=module.render(data),
                headlines=module.headlines(data),
                claims=module.claims(data),
            )
        )
    stats.aggregate_seconds = time.perf_counter() - aggregate_started

    result = CampaignResult(options=options, outcomes=outcomes, stats=stats)
    if not (options.check or options.update_baselines):
        return result
    records = {
        experiment_id: {
            "settings": options.settings(),
            "headlines": outcome.headlines,
            "jobs": baseline_mod.job_fingerprints(
                plans[experiment_id], grids[experiment_id], results
            ),
        }
        for experiment_id, outcome in zip(ids, outcomes)
    }
    if options.update_baselines and not result.failed_claims:
        for experiment_id, record in records.items():
            path, changes = baseline_mod.write_baseline(
                options.baseline_dir, experiment_id, record
            )
            result.baseline_paths.append(path)
            result.baseline_changes.extend(changes)
    if options.check:
        result.baseline_report = baseline_mod.check_baselines(
            options.baseline_dir, records
        )
    return result
