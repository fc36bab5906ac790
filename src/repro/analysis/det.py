"""DET family: determinism hazards in the simulation core.

One AST pass per file covers all six rules; the engine filters by the
per-module scope config before the visitor runs, so ``active_rules``
only ever contains rules in force for this module.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import (
    annotation_is_set,
    build_import_table,
    dotted_name,
)
from repro.analysis.config import ORDER_INSENSITIVE_CONSUMERS
from repro.analysis.findings import CheckContext, Finding

WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: Module-level random functions that consume the hidden global state.
#: ``random.Random`` (an explicitly seeded instance) is deliberately
#: absent.
GLOBAL_RANDOM_CALLS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

ENVIRON_MUTATORS = frozenset({"update", "setdefault", "pop", "popitem", "clear"})

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _collect_set_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Names known to hold sets: ``(plain names, self-attributes)``.

    Collected module-wide: an attribute annotated ``set[...]`` in one
    method is treated as a set wherever the class touches it.  This is
    a lint heuristic, not a type checker — a reused name can in
    principle misfire, and the pragma exists for that case.
    """
    names: set[str] = set()
    self_attrs: set[str] = set()

    def note(target: ast.AST, is_set: bool) -> None:
        if not is_set:
            return
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id == "self":
                self_attrs.add(target.attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            note(node.target, annotation_is_set(node.annotation))
        elif isinstance(node, ast.Assign):
            is_set = _is_set_literal(node.value)
            for target in node.targets:
                note(target, is_set)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None and annotation_is_set(arg.annotation):
                    names.add(arg.arg)
    return names, self_attrs


def _is_set_literal(node: ast.AST) -> bool:
    """A set constructed right here (literal, comprehension, call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return False


class DetVisitor(ast.NodeVisitor):
    """Emits DET001-DET006 findings into ``context``."""

    def __init__(self, context: CheckContext, tree: ast.AST):
        self.ctx = context
        self.findings: list[Finding] = []
        self.imports = build_import_table(tree)
        self.set_names, self.set_self_attrs = _collect_set_names(tree)
        # Nodes a surrounding order-insensitive call has exempted from
        # DET005 (e.g. the generator inside ``sorted(x for x in s)``).
        self._det5_exempt: set[int] = set()

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.ctx.active_rules:
            self.findings.append(self.ctx.make(rule, node, message))

    # -- sets (DET005) --------------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if _is_set_literal(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.set_self_attrs
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _describe_set(self, node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:
            return "a set"

    def _check_iteration(self, iter_node: ast.AST, anchor: ast.AST) -> None:
        if id(iter_node) in self._det5_exempt:
            return
        if self._is_set_expr(iter_node):
            self._emit(
                "DET005",
                anchor,
                f"iteration over set `{self._describe_set(iter_node)}` is "
                "hash-order dependent; iterate sorted(...) with an explicit key",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- calls (most rules) ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func, self.imports)
        if name is not None:
            self._check_call_name(name, node)
        if isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple") and node.args:
                self._check_iteration(node.args[0], node)
            if node.func.id in ORDER_INSENSITIVE_CONSUMERS:
                for arg in node.args:
                    self._det5_exempt.add(id(arg))
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                        for generator in arg.generators:
                            self._det5_exempt.add(id(generator.iter))
        self.generic_visit(node)

    def _check_call_name(self, name: str, node: ast.Call) -> None:
        if name in WALLCLOCK_CALLS:
            self._emit(
                "DET001",
                node,
                f"wall-clock call {name}() in simulation code; use the "
                "event loop's virtual time (loop.now)",
            )
        if name in ENTROPY_CALLS or name.startswith("secrets."):
            self._emit(
                "DET002",
                node,
                f"{name}() draws ambient entropy no seed controls; use a "
                "seeded stream from repro.sim.rng.RngRegistry",
            )
        if name.startswith("random.") and name.split(".", 1)[1] in GLOBAL_RANDOM_CALLS:
            self._emit(
                "DET003",
                node,
                f"{name}() consumes the global random state; draw from a "
                "named RngRegistry stream instead",
            )
        if name == "os.getenv" or name == "os.environ.get":
            self._emit(
                "DET004",
                node,
                "environment read outside the CLI; thread the setting explicitly",
            )
        if name == "os.putenv" or name == "os.unsetenv":
            self._emit("DET006", node, f"{name}() mutates the process environment")
        if name.startswith("os.environ.") and name.rsplit(".", 1)[1] in ENVIRON_MUTATORS:
            self._emit("DET006", node, f"{name}() mutates the process environment")

    # -- os.environ subscripts and membership ---------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        name = dotted_name(node.value, self.imports)
        if name == "os.environ":
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self._emit(
                    "DET006", node, "os.environ assignment mutates the process environment"
                )
            else:
                self._emit(
                    "DET004",
                    node,
                    "environment read outside the CLI; thread the setting explicitly",
                )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                if dotted_name(comparator, self.imports) == "os.environ":
                    self._emit(
                        "DET004",
                        node,
                        "environment membership test outside the CLI; "
                        "thread the setting explicitly",
                    )
        self.generic_visit(node)


def check(context: CheckContext, tree: ast.AST) -> list[Finding]:
    """Run the DET family over one parsed file."""
    visitor = DetVisitor(context, tree)
    visitor.visit(tree)
    return visitor.findings
