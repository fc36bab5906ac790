"""Inline suppression pragmas, the one way to silence a finding.

Two forms, mirroring the usual linter conventions::

    risky_call()  # detlint: disable=DET005 -- iteration feeds a set, order-free
    # detlint: disable-next-line=DET001 -- CLI wall timing, stderr only
    started = time.perf_counter()

Multiple rules separate with commas; ``disable=all`` silences every
rule on the line.  The text after ``--`` is the justification, and it is
required: a pragma without one suppresses nothing, so the finding stays
active and the gate keeps failing until someone writes down why.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_PRAGMA = re.compile(
    r"#\s*detlint:\s*(?P<kind>disable|disable-next-line)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)\s*(?:--\s*(?P<reason>.*?)\s*)?$"
)


@dataclass(frozen=True)
class Pragma:
    """One suppression pragma: the rules it names and why."""

    rules: frozenset[str]  # upper-cased rule ids, or {"ALL"}
    reason: str  # "" when the pragma gave no justification

    def covers(self, rule_id: str) -> bool:
        return "ALL" in self.rules or rule_id in self.rules


def parse_pragmas(lines: list[str]) -> dict[int, list[Pragma]]:
    """Map 1-based line number -> the pragmas aimed at that line."""
    by_line: dict[int, list[Pragma]] = {}
    for index, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        pragma = Pragma(rules=rules, reason=match.group("reason") or "")
        target = index + 1 if match.group("kind") == "disable-next-line" else index
        by_line.setdefault(target, []).append(pragma)
    return by_line
