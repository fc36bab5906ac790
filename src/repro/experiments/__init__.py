"""The paper's evaluation: one module per figure/table.

Every module exposes ``plan(quick=False, runs=None, seed0=0,
duration=None)``, its grid of jobs; ``assemble(plan, results) -> data``,
a pure reduction of the jobs' results; ``render(data) -> str``; and the
two pure verdict functions ``headlines(data)`` and ``claims(data)``.
The registry maps experiment ids (``fig2``, ``tab1``, ``abl``, ...) to
them.  ``repro.campaign`` executes, parallelises and caches whole
campaigns of them and gates the paper's qualitative claims and the
committed headline baselines.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = ["EXPERIMENTS", "get_experiment"]
