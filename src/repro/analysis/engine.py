"""The detlint engine: one pass per file, then pragmas.

Each file is parsed on its own, the checkers whose rules are in scope
for its module run over the tree, and the file's pragmas are applied.
No rule needs another module, so there is no project index and no call
graph; a run over the whole tree takes about a second.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis import config, det, layering, proto
from repro.analysis.findings import CheckContext, Finding
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.rules import RULES

_FAMILY_CHECKERS = {
    "DET": det.check,
    "OBS": layering.check,
    "PROTO": proto.check,
}

_NO_REASON = (
    " (the pragma on this line gives no `-- reason`, so it suppresses nothing)"
)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.active]

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no active findings, no parse errors)."""
        return not self.active and not self.parse_errors


def module_name_for(path: Path) -> str:
    """Dotted module name of a source file.

    Anchored at the ``repro`` package dir; repo tooling under ``tools/``
    anchors there instead (``tools/overhead_guard.py`` ->
    ``tools.overhead_guard``) so scopes can address it.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("repro", "tools"):
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == anchor:
                return ".".join(parts[index:])
    return ".".join(parts[-1:]) if parts else str(path)


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _apply_pragmas(findings: list[Finding], lines: list[str]) -> None:
    """Suppress the findings a justified pragma covers."""
    pragmas = parse_pragmas(lines)
    for finding in findings:
        covering = [
            pragma
            for pragma in pragmas.get(finding.line, ())
            if pragma.covers(finding.rule)
        ]
        reasons = [pragma.reason for pragma in covering if pragma.reason]
        if reasons:
            finding.suppression_reason = reasons[0]
        elif covering:
            finding.message += _NO_REASON


def lint_source(
    source: str,
    module: str,
    rules_filter: Optional[set[str]] = None,
    path: Optional[str] = None,
) -> list[Finding]:
    """Lint a source string as dotted ``module``; raises ``SyntaxError``."""
    path = path or f"<{module}>"
    tree = ast.parse(source, filename=path)
    active_rules = config.rules_for_module(module)
    if rules_filter is not None:
        active_rules &= rules_filter
    if not active_rules:
        return []
    context = CheckContext(
        module=module, path=path, lines=source.splitlines(), active_rules=active_rules
    )
    families = {RULES[rule_id].family for rule_id in active_rules}
    findings: list[Finding] = []
    for family, checker in _FAMILY_CHECKERS.items():
        if family in families:
            findings.extend(checker(context, tree))
    findings.sort(key=Finding.sort_key)
    _apply_pragmas(findings, context.lines)
    return findings


def lint_paths(
    paths: Iterable[Path], rules_filter: Optional[set[str]] = None
) -> LintReport:
    """Lint every Python file under ``paths``, one file at a time."""
    report = LintReport()
    for path in iter_python_files(paths):
        report.files_scanned += 1
        try:
            report.findings.extend(
                lint_source(
                    path.read_text(encoding="utf-8"),
                    module_name_for(path),
                    rules_filter,
                    str(path),
                )
            )
        except SyntaxError as error:
            report.parse_errors.append(f"{path}: {error}")
    report.findings.sort(key=Finding.sort_key)
    return report
