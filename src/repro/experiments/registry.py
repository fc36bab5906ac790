"""Registry mapping experiment ids to their modules.

Every experiment module exposes the same interface:

* ``run(quick=False, runs=None, seed0=0, duration=None)`` — measure and
  return the experiment's data object.
* ``render(data)`` — the paper-style plain-text report for that data.
* ``plan_runs(...)`` (or ``plan_cells(...)`` for Table 1) — the
  independent job specs behind ``run``, used by the campaign planner
  (``repro.campaign``) to fan work out without executing anything.
* ``headlines(data)`` — the handful of numbers the paper's prose quotes,
  gated against the committed ``BENCH_<id>.json`` baseline.
* ``claims(data)`` — the paper's qualitative claims about this figure
  (:class:`~repro.experiments.common.Claim`), each evaluated on the
  measured data.  Both are pure functions of ``data``: ``campaign``
  calls them on what it has already aggregated, so the module is the
  one place that says what a figure shows and whether it still does.

``runs`` and ``duration`` are explicit arguments (no process-global
state); left as ``None`` they fall back to the constants
``experiments.common.DEFAULT_RUNS``/``DEFAULT_DURATION``.  ``run`` is the
inline reference; ``repro-experiments campaign`` runs the same modules
in parallel against the result cache, with byte-identical reports.
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
