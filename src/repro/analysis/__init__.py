"""detlint: determinism static analysis for the reproduction.

Every number in the reproduction is regenerated from seeded simulation
runs.  A single wall-clock read, an unseeded random draw, or a
hash-order-dependent iteration silently breaks that.  Most of the
contracts are proven at run time (fig2's ``PYTHONHASHSEED`` byte-diff,
``tools/overhead_guard.py``, the campaign cold/warm diff,
``tests/test_five_replicas.py``); ``detlint`` keeps the nine rules that
point at the line that would break one, or that no run can see (see
:mod:`repro.analysis.rules` for the catalog):

* **DET001–DET006** — determinism hazards in the simulation core (wall
  clock, ambient entropy, the global ``random`` module, environment
  reads and writes, unsorted set iteration).
* **OBS003** — the simulation core never imports ``repro.obs``.
* **PROTO001, PROTO003** — literal replica counts and hard-coded leader
  indices outside protocol-owned policy.

Each file is checked on its own, in one pass.  Run it as
``repro-experiments lint`` or ``python -m repro.analysis``; the one way
to suppress a finding is a ``# detlint: disable=RULE -- reason`` pragma,
and a pragma without a reason suppresses nothing.  See
``docs/ANALYSIS.md`` for the workflow.
"""

from repro.analysis.engine import LintReport, lint_paths, lint_source
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import RULES, Rule

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
]


def main(argv=None) -> int:
    """CLI entry point (``repro-experiments lint`` delegates here)."""
    from repro.analysis.__main__ import main as _main

    return _main(argv)
