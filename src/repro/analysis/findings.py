"""The finding record detlint checkers produce and reporters consume."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Finding:
    """One rule violation at one source location.

    ``source_line`` is the stripped text of the offending line.  A
    finding is suppressed exactly when a pragma on its line gave a
    reason, which ``suppression_reason`` then carries.
    """

    rule: str
    module: str
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""
    suppression_reason: str = ""

    @property
    def active(self) -> bool:
        """Whether this finding still fails the gate."""
        return not self.suppression_reason

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_jsonable(self) -> dict:
        return {
            "rule": self.rule,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source_line": self.source_line,
            "suppression_reason": self.suppression_reason,
        }


@dataclass
class CheckContext:
    """What a family checker gets to work with for one file."""

    module: str
    path: str
    lines: list[str] = field(default_factory=list)
    active_rules: set[str] = field(default_factory=set)

    def make(self, rule: str, node, message: str) -> Finding:
        """Build a finding anchored at an AST node."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        source = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(
            rule=rule,
            module=self.module,
            path=self.path,
            line=line,
            col=col,
            message=message,
            source_line=source,
        )
