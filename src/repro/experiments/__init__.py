"""The paper's evaluation: one module per figure/table.

Every module exposes ``run(quick=False, runs=None, seed0=0,
duration=None) -> data``, ``render(data) -> str``, a campaign-planner
hook (``plan_runs``/``plan_cells``) and the two pure verdict functions
``headlines(data)`` and ``claims(data)``; the registry maps experiment
ids (``fig2``, ``tab1``, ``abl``, ...) to them.  ``repro.campaign``
plans, parallelises and caches whole campaigns of them and gates the
paper's qualitative claims and the committed headline baselines.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = ["EXPERIMENTS", "get_experiment"]
