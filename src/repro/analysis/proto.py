"""PROTO family: topology assumptions outside protocol-owned policy.

The ROADMAP's n-replica sweeps, leaderless baseline and geo-replication
scenarios all require that *nothing outside* ``repro.protocols.config``
bakes in the 3-replica topology.  These rules make the assumption
mechanically findable:

* PROTO001 — an integer literal bound to a replica-count / fault-
  threshold name (``n``, ``f``, ``quorum`` …).  A count-name field
  default on a ``*Profile``/``*Config``-style class is the sanctioned
  explicit knob and stays allowed; a literal ``f`` is always derived
  state and must come from ``repro.protocols.config.fault_tolerance``.
* PROTO003 — hard-coded leader-index patterns: ``view % n`` arithmetic,
  ``replicas[0]``, ``leader == 0`` comparisons.  Leader policy belongs
  to ``ProtocolConfig.leader_of`` (and protocol classes).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.findings import CheckContext, Finding

#: The explicit topology knob (allowed as a config-class field default).
COUNT_NAMES = frozenset({"n", "n_replicas", "num_replicas", "replica_count"})
#: Always derived from n — a literal is always a PROTO001 finding.
DERIVED_NAMES = frozenset({"f", "quorum", "quorum_size", "majority"})
#: Class-name suffixes marking configuration carriers whose count-name
#: field defaults are the sanctioned knob.
CONFIG_CLASS_SUFFIXES = ("Profile", "Config", "Spec", "Options", "Settings")


def _int_literal(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name/Attribute chain (``a.b.n`` -> n)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_count_expr(node: ast.AST) -> bool:
    """n-ish: a count name, ``.n`` attribute, or ``len(...)``."""
    name = _terminal_name(node)
    if name in COUNT_NAMES:
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
    )


def _is_replicaish(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and "replica" in name


def _mentions(node: ast.AST, fragment: str) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and fragment in name:
            return True
    return False


class ProtoVisitor(ast.NodeVisitor):
    """Emits the PROTO findings for one parsed file."""

    def __init__(self, context: CheckContext):
        self.ctx = context
        self.findings: list[Finding] = []
        self._class_stack: list[str] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.ctx.active_rules:
            self.findings.append(self.ctx.make(rule, node, message))

    # -- structure ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _in_config_class(self) -> bool:
        return bool(self._class_stack) and self._class_stack[-1].endswith(
            CONFIG_CLASS_SUFFIXES
        )

    # -- PROTO001: literal counts/thresholds ---------------------------

    def _check_name_binding(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if value is None or not isinstance(target, ast.Name):
            return
        literal = _int_literal(value)
        if literal is None:
            return
        name = target.id
        if name in DERIVED_NAMES:
            self._emit(
                "PROTO001",
                target,
                f"`{name} = {literal}` hard-codes a derived topology "
                "quantity; compute it from the group size "
                "(repro.protocols.config.fault_tolerance / quorum_size)",
            )
        elif name in COUNT_NAMES and not self._in_config_class():
            self._emit(
                "PROTO001",
                target,
                f"`{name} = {literal}` hard-codes the replica count; "
                "thread it from ProtocolConfig/ClusterProfile (the "
                "explicit topology knob)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_name_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_name_binding(node.target, node.value)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        # PROTO001 for call keywords: build_config(..., n=3) / f=1.
        if node.arg in COUNT_NAMES | DERIVED_NAMES:
            literal = _int_literal(node.value)
            if literal is not None:
                self._emit(
                    "PROTO001",
                    node.value,
                    f"`{node.arg}={literal}` passes a literal topology "
                    "parameter; thread it from ProtocolConfig/"
                    "ClusterProfile",
                )
        self.generic_visit(node)

    # -- PROTO003: hard-coded leader index -----------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, ast.Mod)
            and _is_count_expr(node.right)
            and _mentions(node.left, "view")
        ):
            self._emit(
                "PROTO003",
                node,
                "leader-index arithmetic (`view % n`) outside protocol-"
                "owned policy; use ProtocolConfig.leader_of(view)",
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_replicaish(node.value) and _int_literal(node.slice) == 0:
            self._emit(
                "PROTO003",
                node,
                "`replicas[0]` assumes replica 0 is special; resolve the "
                "leader through ProtocolConfig.leader_of / cluster roles",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if len(node.ops) == 1 and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            sides = (node.left, node.comparators[0])
            for side, other in (sides, sides[::-1]):
                name = _terminal_name(side)
                if name is not None and "leader" in name and _int_literal(other) == 0:
                    self._emit(
                        "PROTO003",
                        node,
                        f"comparing `{name}` against literal 0 hard-codes "
                        "the initial leader; derive it from "
                        "ProtocolConfig.leader_of(view)",
                    )
                    break
        self.generic_visit(node)


def check(context: CheckContext, tree: ast.AST) -> list[Finding]:
    """Run the PROTO family over one parsed file."""
    visitor = ProtoVisitor(context)
    visitor.visit(tree)
    return visitor.findings
