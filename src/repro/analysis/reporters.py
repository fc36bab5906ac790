"""detlint output: the human report and the JSON artifact."""

from __future__ import annotations

from typing import Any

from repro.analysis.engine import LintReport
from repro.analysis.rules import RULES


def render_text(report: LintReport, verbose: bool = False) -> str:
    """The human-readable report.

    Active findings always print; pass ``verbose`` to also list what
    the pragmas are currently suppressing, with their reasons.
    """
    lines: list[str] = []
    for error in report.parse_errors:
        lines.append(f"parse error: {error}")
    for finding in report.active:
        rule = RULES[finding.rule]
        lines.append(
            f"{finding.location()}: {finding.rule} [{rule.family}] {finding.message}"
        )
        if finding.source_line:
            lines.append(f"    {finding.source_line}")
    if verbose:
        for finding in report.suppressed:
            lines.append(
                f"{finding.location()}: {finding.rule} suppressed by pragma "
                f"({finding.suppression_reason})"
            )
    lines.append(
        f"detlint: {report.files_scanned} file(s), "
        f"{len(report.active)} active finding(s), "
        f"{len(report.suppressed)} pragma-suppressed"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> dict[str, Any]:
    """The machine-readable report (``--json``)."""
    return {
        "files_scanned": report.files_scanned,
        "parse_errors": list(report.parse_errors),
        "findings": [finding.to_jsonable() for finding in report.findings],
        "counts": {
            "active": len(report.active),
            "pragma_suppressed": len(report.suppressed),
        },
        "ok": report.ok,
    }


def render_rule_catalog() -> str:
    """The ``--rules`` listing."""
    lines = []
    for rule in RULES.values():
        lines.append(f"{rule.id} [{rule.family}] {rule.title}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)
