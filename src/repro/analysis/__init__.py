"""detlint: determinism & purity static analysis for the reproduction.

Every number in the reproduction is regenerated from seeded simulation
runs, and two subsystems lean on that determinism being airtight: the
observability layer (``repro.obs``) promises byte-identical results with
tracing on or off, and the campaign engine (``repro.campaign``) keys a
content-addressed result cache by job payload.  A single wall-clock
read, an unseeded random draw, or a hash-order-dependent iteration
silently breaks all of it.

``detlint`` enforces those invariants statically with five rule
families (see :mod:`repro.analysis.rules` for the catalog):

* **DET** — determinism hazards in the simulation core (wall clock,
  ambient entropy, the global ``random`` module, unsorted set
  iteration, environment access).
* **OBS** — observer purity (``repro.obs`` may read simulation state
  but never mutate it — directly or through any call chain; protocols
  reach observability only through the hook API).
* **CAMP** — campaign payload hygiene (JSON-safe payloads, stable
  digests) so cache keys stay comparable across runs and versions.
* **PROTO** — topology assumptions (literal replica counts, inline
  quorum arithmetic, hard-coded leader indices) outside protocol-owned
  policy; the enabler for the n-replica/leaderless/geo roadmap items.
* **PERF** — hot-path hygiene in the dispatch/send loops.

v2 analyses the whole project at once: a module/symbol index and call
graph (:mod:`repro.analysis.index`) feed an interprocedural purity pass
(:mod:`repro.analysis.interproc`), and :mod:`repro.analysis.sarif`
renders SARIF 2.1.0 for code scanning.

Run it as ``repro-experiments lint`` or ``python -m repro.analysis``;
suppress individual findings with ``# detlint: disable=RULE -- reason``
pragmas or the committed baseline (``tools/detlint_baseline.json``).
See ``docs/ANALYSIS.md`` for the workflow.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.engine import (
    LintReport,
    lint_paths,
    lint_project,
    lint_source,
)
from repro.analysis.findings import Finding
from repro.analysis.index import ProjectIndex, build_index
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import RULES, Rule

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintReport",
    "ProjectIndex",
    "RULES",
    "Rule",
    "build_index",
    "lint_paths",
    "lint_project",
    "lint_source",
    "main",
    "render_json",
    "render_text",
]


def main(argv=None) -> int:
    """CLI entry point (``repro-experiments lint`` delegates here)."""
    from repro.analysis.__main__ import main as _main

    return _main(argv)
