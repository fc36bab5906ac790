"""Baseline store and regression gate for campaign headline metrics.

Each experiment reduces to a handful of *headline metrics* — the
numbers the paper's prose quotes (knee throughput, plateau latency,
reject downtime, traffic-overhead ratios) — returned by the experiment
module's own ``headlines(data)``.  A campaign run with
``--update-baselines`` writes them to committed ``BENCH_<id>.json``
files under ``benchmarks/baselines/``; ``--check`` compares the current
ones and fails (non-zero exit) when any metric drifts beyond its
tolerance band.  This half of the gate catches *drift*; whether a curve
still has the shape the paper claims is the other half
(``claims(data)``, evaluated by :mod:`repro.campaign.engine`).

Baselines are only comparable when produced under the same campaign
settings (quick mode, runs, duration, seed), so the settings are
recorded in each file and a mismatch fails the check with a clear
message instead of comparing incomparable numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import repro

DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"

# Symmetric default tolerance band: a metric regresses when it moves
# more than 15% (relative) and more than the absolute floor away from
# its baseline.  The floor keeps near-zero metrics (e.g. a 0.25 s
# reject downtime measured in bucket widths) from tripping on noise.
DEFAULT_RELATIVE_TOLERANCE = 0.15
DEFAULT_ABSOLUTE_TOLERANCE = 1e-6

#: Settings fields that must match for a baseline comparison to be valid.
SETTINGS_FIELDS = ("quick", "runs", "duration", "seed0")


def baseline_path(directory: Path, experiment_id: str) -> Path:
    return Path(directory) / f"BENCH_{experiment_id}.json"


def write_baseline(
    directory: Path,
    experiment_id: str,
    metrics: dict[str, float],
    settings: dict[str, Any],
) -> Path:
    """Write/refresh one committed baseline file."""
    path = baseline_path(directory, experiment_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "experiment": experiment_id,
        "version": repro.__version__,
        "settings": {key: settings.get(key) for key in SETTINGS_FIELDS},
        "tolerance": {
            "relative": DEFAULT_RELATIVE_TOLERANCE,
            "absolute": DEFAULT_ABSOLUTE_TOLERANCE,
        },
        "metrics": metrics,
    }
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_baseline(directory: Path, experiment_id: str) -> Optional[dict[str, Any]]:
    path = baseline_path(directory, experiment_id)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class BaselineEntry:
    """One compared metric (or one structural problem)."""

    experiment_id: str
    metric: str
    status: str  # "ok" | "regressed" | "missing-metric" | "new-metric" | ...
    baseline: Optional[float] = None
    current: Optional[float] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "new-metric")


@dataclass
class BaselineReport:
    """The outcome of gating one campaign against its baselines."""

    entries: list[BaselineEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def regressions(self) -> list[BaselineEntry]:
        return [entry for entry in self.entries if not entry.ok]

    def render(self) -> str:
        lines = ["Baseline check:"]
        for entry in self.entries:
            if entry.baseline is None and entry.current is None:
                lines.append(
                    f"  {entry.status:18s} {entry.experiment_id}/{entry.metric}"
                    f"  {entry.detail}"
                )
                continue
            lines.append(
                f"  {entry.status:18s} {entry.experiment_id}/{entry.metric}: "
                f"baseline={_fmt(entry.baseline)} current={_fmt(entry.current)}"
                + (f"  {entry.detail}" if entry.detail else "")
            )
        verdict = "PASS" if self.ok else f"FAIL ({len(self.regressions)} problem(s))"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "entries": [
                {
                    "experiment": entry.experiment_id,
                    "metric": entry.metric,
                    "status": entry.status,
                    "baseline": entry.baseline,
                    "current": entry.current,
                    "detail": entry.detail,
                }
                for entry in self.entries
            ],
        }


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def _within(baseline: float, current: float, relative: float, absolute: float) -> bool:
    delta = abs(current - baseline)
    return delta <= absolute or delta <= relative * abs(baseline)


def check_experiment(
    report: BaselineReport,
    directory: Path,
    experiment_id: str,
    headlines: dict[str, float],
    settings: dict[str, Any],
) -> None:
    """Gate one experiment's headline metrics against its baseline file."""
    document = load_baseline(directory, experiment_id)
    if document is None:
        report.entries.append(
            BaselineEntry(
                experiment_id,
                "*",
                "missing-baseline",
                detail=f"no {baseline_path(directory, experiment_id).name}; "
                "run with --update-baselines",
            )
        )
        return
    recorded = document.get("settings", {})
    wanted = {key: settings.get(key) for key in SETTINGS_FIELDS}
    if {key: recorded.get(key) for key in SETTINGS_FIELDS} != wanted:
        report.entries.append(
            BaselineEntry(
                experiment_id,
                "*",
                "settings-mismatch",
                detail=f"baseline recorded {recorded}, campaign ran {wanted}",
            )
        )
        return
    tolerance = document.get("tolerance", {})
    relative = float(tolerance.get("relative", DEFAULT_RELATIVE_TOLERANCE))
    absolute = float(tolerance.get("absolute", DEFAULT_ABSOLUTE_TOLERANCE))
    overrides = document.get("tolerances", {})
    baseline_metrics = document.get("metrics", {})
    for metric, baseline_value in sorted(baseline_metrics.items()):
        override = overrides.get(metric, {})
        rel = float(override.get("relative", relative))
        abs_ = float(override.get("absolute", absolute))
        if metric not in headlines:
            report.entries.append(
                BaselineEntry(
                    experiment_id,
                    metric,
                    "missing-metric",
                    baseline=float(baseline_value),
                    detail="metric not produced by this campaign",
                )
            )
            continue
        current = headlines[metric]
        ok = _within(float(baseline_value), current, rel, abs_)
        detail = "" if ok else f"outside ±{rel * 100:.0f}% band"
        report.entries.append(
            BaselineEntry(
                experiment_id,
                metric,
                "ok" if ok else "regressed",
                baseline=float(baseline_value),
                current=current,
                detail=detail,
            )
        )
    for metric in sorted(set(headlines) - set(baseline_metrics)):
        report.entries.append(
            BaselineEntry(
                experiment_id,
                metric,
                "new-metric",
                current=headlines[metric],
                detail="not in baseline; refresh with --update-baselines",
            )
        )


def check_baselines(
    directory: Path,
    headlines_by_experiment: dict[str, dict[str, float]],
    settings: dict[str, Any],
) -> BaselineReport:
    """Gate a whole campaign; one report across all its experiments."""
    report = BaselineReport()
    for experiment_id, headlines in headlines_by_experiment.items():
        check_experiment(report, Path(directory), experiment_id, headlines, settings)
    return report
