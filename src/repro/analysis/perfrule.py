"""PERF family: avoidable overhead on the simulator's hot paths.

The dispatch loop, the timer machinery and the network send path run
millions of iterations per experiment; a repeated attribute-chain
lookup inside such a loop costs real wall time (see
``docs/SIMULATOR.md``, Performance).  PERF001 flags calls to known-hot
callables made through a multi-hop attribute chain (``self._loop
.call_after(...)``, ``self.traffic.record(...)``) — or through the
``heapq`` module object — from inside a ``while``/``for`` body.  The
fix is mechanical: bind the bound method (or function) to a local
before the loop, which also reads as a declaration of what the loop is
hot on.  One-hop calls (``local.method(...)``, ``self.method(...)``)
are the *result* of that fix and are not flagged.

PERF002 guards the allocation-free-dispatch contract of
``repro.sim.loop``'s dispatch loop: inside the loop body of a
dispatch-shaped function (``run``, ``run_*``, or anything with
``dispatch`` in its name) a capitalized-callable constructor call
allocates one object per event — exactly the cost popping plain heap
tuples avoids.  Exception constructors (``...Error``/``...Exception``
names) are raise-path code, not per-iteration cost, and are skipped.

Like every detlint rule these are lint heuristics, not a profiler: a
cold loop that trips one can carry a pragma or a baseline entry.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import build_import_table, dotted_name
from repro.analysis.findings import CheckContext, Finding

#: Final attribute names whose calls dominate dispatch-loop profiles.
HOT_CALLABLES = frozenset(
    {
        "call_after",
        "call_at",
        "heapify",
        "heappop",
        "heappush",
        "record",
        "sample",
        "size_bytes",
        "type_name",
    }
)

#: heapq functions reached as module attributes (``heapq.heappush``):
#: one dict lookup per iteration that a module-level ``from heapq
#: import heappush`` removes.
HEAPQ_FUNCTIONS = frozenset({"heapq.heappush", "heapq.heappop", "heapq.heapify"})


def _is_dispatch_name(name: str) -> bool:
    """Whether a function name marks an event-dispatch loop (PERF002)."""
    return name == "run" or name.startswith("run_") or "dispatch" in name


def _constructor_name(func: ast.AST) -> str | None:
    """The capitalized callable name of a constructor-looking call.

    Returns None for lowercase callables, exception-looking names
    (raise-path allocations fire at most once per loop lifetime) and
    anything not reached as a plain name or attribute.
    """
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    if not name[:1].isupper():
        return None
    if name.endswith("Error") or name.endswith("Exception"):
        return None
    return name


def _attribute_hops(node: ast.AST) -> int:
    """Number of attribute lookups in a ``Name.attr1.attr2...`` chain.

    Returns 0 when the chain is not rooted in a plain name (a call or
    subscript in the chain defeats the simple bind-to-local fix).
    """
    hops = 0
    while isinstance(node, ast.Attribute):
        hops += 1
        node = node.value
    return hops if isinstance(node, ast.Name) else 0


class _PerfVisitor(ast.NodeVisitor):
    def __init__(self, context: CheckContext, tree: ast.AST):
        self.ctx = context
        self.findings: list[Finding] = []
        self.imports = build_import_table(tree)
        # Loop depth per enclosing function: a def inside a loop body
        # does not execute per iteration, so it opens a fresh scope.
        self._loop_depth_stack = [0]
        # Enclosing function names, innermost last; PERF002 only fires
        # inside dispatch-shaped functions.
        self._function_stack: list[str] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.ctx.active_rules:
            self.findings.append(self.ctx.make(rule, node, message))

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth_stack[-1] += 1
        self.generic_visit(node)
        self._loop_depth_stack[-1] -= 1

    visit_While = _visit_loop
    visit_For = _visit_loop

    def _visit_function(self, node: ast.AST) -> None:
        self._loop_depth_stack.append(0)
        self._function_stack.append(getattr(node, "name", "<lambda>"))
        self.generic_visit(node)
        self._function_stack.pop()
        self._loop_depth_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_depth_stack[-1] > 0:
            self._check_hot_call(node)
            if self._function_stack and _is_dispatch_name(self._function_stack[-1]):
                self._check_allocation(node)
        self.generic_visit(node)

    def _check_allocation(self, node: ast.Call) -> None:
        name = _constructor_name(node.func)
        if name is None:
            return
        self._emit(
            "PERF002",
            node,
            f"{name}() constructed inside the loop body of dispatch function "
            f"{self._function_stack[-1]}(): one allocation per event; "
            f"preallocate, or carry plain tuples as repro.sim.loop's "
            f"dispatch loop does",
        )

    def _check_hot_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        dotted = dotted_name(func, self.imports)
        if dotted in HEAPQ_FUNCTIONS:
            self._emit(
                "PERF001",
                node,
                f"{dotted}() called through the module object inside a loop "
                f"body; import {func.attr} at module level (from heapq import "
                f"{func.attr}) or bind it to a local before the loop",
            )
            return
        if func.attr in HOT_CALLABLES and _attribute_hops(func) >= 2:
            chain = dotted or f"<chain>.{func.attr}"
            self._emit(
                "PERF001",
                node,
                f"hot callable {chain}() reached through a {_attribute_hops(func)}"
                f"-hop attribute chain inside a loop body; bind it to a local "
                f"before the loop",
            )


def check(context: CheckContext, tree: ast.AST) -> list[Finding]:
    """Run the PERF family over one parsed file."""
    visitor = _PerfVisitor(context, tree)
    visitor.visit(tree)
    return visitor.findings
