"""Exact regression gate: the committed record of every campaign.

The simulator is deterministic, so fixed campaign settings reproduce
every number bit for bit.  ``--update-baselines`` writes one record per
experiment to ``benchmarks/baselines/BENCH_<id>.json``: its
``settings`` (quick, runs, duration, seed0), its ``headlines(data)``
and the :func:`~repro.campaign.cache.result_fingerprint` of every
planned job (``jobs``, keyed ``"<Job.label> [<plan cell label>]"``).
``--check`` compares them for equality and names every headline that
changed (old -> new) and every job whose fingerprint changed; a new or
missing one fails too.  The paper's claims are the other half of the
gate (:mod:`repro.campaign.engine`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.cache import result_fingerprint
from repro.campaign.plan import Job
from repro.experiments.common import Plan

DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"
COMPARED = ("headlines", "jobs")


def baseline_path(directory: Path, experiment_id: str) -> Path:
    return Path(directory) / f"BENCH_{experiment_id}.json"


def job_fingerprints(
    plan: Plan, grid: list[list[Job]], results: dict[str, Any]
) -> dict[str, str]:
    """The fingerprint of every planned job, keyed by its label and cell.

    ``Job.label`` alone repeats across cells (fig8's thresholds, abl's
    values); the pair is unique within an experiment's plan.
    """
    fingerprints = {}
    for (label, _items), cell in zip(plan, grid):
        cell_name = "/".join(map(str, label)) if isinstance(label, tuple) else label
        for job in cell:
            key = f"{job.label} [{cell_name}]"
            fingerprints[key] = result_fingerprint(results[job.key])
    return fingerprints


@dataclass
class BaselineReport:
    """Every difference between a campaign and its committed records."""

    problems: list[str] = field(default_factory=list)
    matched: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COMPARED, 0))
    compared: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COMPARED, 0))

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = ["Baseline check:"] + [f"  {problem}" for problem in self.problems]
        lines += [f"{w}: {self.matched[w]}/{self.compared[w]} match" for w in COMPARED]
        verdict = "PASS" if self.ok else f"FAIL ({len(self.problems)} problem(s))"
        return "\n".join(lines + [f"  => {verdict}"])

    def to_jsonable(self) -> dict[str, Any]:
        return {"ok": self.ok, **asdict(self)}

    def check(self, directory: Path, experiment_id: str, record: dict) -> None:
        """Compare one experiment's record with its committed file."""
        path = baseline_path(directory, experiment_id)
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        comparable = old.get("settings") == record["settings"]
        if not comparable:
            self.problems.append(
                f"{experiment_id}: {path.name} recorded settings "
                f"{old.get('settings')}, the campaign ran {record['settings']}"
                if old
                else f"{experiment_id}: no {path.name}"
            )
        for what in COMPARED:
            before, after = old.get(what, {}), record[what]
            for name in sorted(set(before) | set(after)):
                self.compared[what] += 1
                if not comparable:
                    continue
                was, now = before.get(name, "missing"), after.get(name, "missing")
                if json.dumps(was) == json.dumps(now):  # a NaN equals itself
                    self.matched[what] += 1
                else:
                    self.problems.append(
                        f"{experiment_id} {what[:-1]} {name}: {was!r} -> {now!r}"
                    )


def check_baselines(directory: Path, records: dict[str, dict]) -> BaselineReport:
    """Gate a whole campaign, experiment by experiment, in one report."""
    report = BaselineReport()
    for experiment_id, record in records.items():
        report.check(directory, experiment_id, record)
    return report


def write_baseline(
    directory: Path, experiment_id: str, record: dict
) -> tuple[Path, list[str]]:
    """Write one record; return its path and what the write changed."""
    changes = check_baselines(directory, {experiment_id: record}).problems
    path = baseline_path(directory, experiment_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = dict(record, experiment=experiment_id)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path, changes
