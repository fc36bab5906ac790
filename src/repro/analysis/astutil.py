"""Small AST helpers shared by the detlint checkers."""

from __future__ import annotations

import ast
from typing import Optional


def build_import_table(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted things they import.

    ``import os.path`` binds ``os`` -> ``os``; ``from datetime import
    datetime as dt`` binds ``dt`` -> ``datetime.datetime``.  Wildcard
    imports are ignored (nothing in this repo uses them).
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports stay package-local
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{node.module}.{alias.name}"
    return table


def dotted_name(node: ast.AST, imports: dict[str, str]) -> Optional[str]:
    """The dotted name of a Name/Attribute chain, import-expanded.

    ``datetime.now`` with ``from datetime import datetime`` resolves to
    ``datetime.datetime.now``.  Returns ``None`` for anything rooted in
    a call, subscript or literal.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def annotation_is_set(node: Optional[ast.AST]) -> bool:
    """Whether a type annotation denotes ``set``/``frozenset``."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text.startswith(("set[", "frozenset[", "set", "frozenset"))
    return False


def type_checking_lines(tree: ast.AST) -> set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks (exempt zones)."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = None
        if isinstance(test, ast.Name):
            name = test.id
        elif isinstance(test, ast.Attribute):
            name = test.attr
        if name == "TYPE_CHECKING":
            end = getattr(node, "end_lineno", node.lineno)
            lines.update(range(node.lineno, end + 1))
    return lines
