"""Registry mapping experiment ids to their modules.

Every experiment module exposes the same interface:

* ``plan(quick=False, runs=None, seed0=0, duration=None)`` — the
  figure's grid, stated once: ``(label, jobs)`` cells, where a job is a
  :class:`~repro.cluster.runner.RunSpec` (or, for Table 1, a
  ``measure_cell`` kwargs dict).  Planning runs nothing.
* ``assemble(plan, results)`` — the experiment's data object, built
  from ``results[i][j]``, the result of ``plan[i][1][j]``.  It
  simulates nothing.
* ``render(data)`` — the paper-style plain-text report for that data.
* ``headlines(data)`` — the handful of numbers the paper's prose quotes,
  gated against the committed ``BENCH_<id>.json`` baseline.
* ``claims(data)`` — the paper's qualitative claims about this figure
  (:class:`~repro.experiments.common.Claim`), each evaluated on the
  measured data.  Both are pure functions of ``data``: ``campaign``
  calls them on what it has already assembled, so the module is the
  one place that says what a figure shows and whether it still does.

``runs`` and ``duration`` are explicit arguments (no process-global
state); left as ``None`` they fall back to each module's defaults
(``experiments.common.DEFAULT_RUNS``/``DEFAULT_DURATION`` for the
sweeps).  ``repro-experiments campaign`` executes the plans' jobs, in
parallel against the result cache, and calls ``assemble``.
"""

from __future__ import annotations

from types import ModuleType

from repro.experiments import (
    ablations,
    fig2_existing_protocols,
    fig3_lbr_crash,
    fig6_comparison,
    fig7_reject_behavior,
    fig8_threshold,
    fig9_disruptive,
    fig10_replica_crash,
    figM_million_users,
    figR_retry_storm,
    tab1_overhead,
)

EXPERIMENTS: dict[str, ModuleType] = {
    "fig2": fig2_existing_protocols,
    "fig3": fig3_lbr_crash,
    "fig6": fig6_comparison,
    "fig7": fig7_reject_behavior,
    "tab1": tab1_overhead,
    "fig8": fig8_threshold,
    "fig9": fig9_disruptive,
    "fig10": fig10_replica_crash,
    "figR": figR_retry_storm,
    "figM": figM_million_users,
    "abl": ablations,
}


def get_experiment(experiment_id: str) -> ModuleType:
    """The module behind ``experiment_id``; raise a clear error if unknown."""
    module = EXPERIMENTS.get(experiment_id)
    if module is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return module
