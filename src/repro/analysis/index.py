"""The project-wide module/symbol index detlint v2 analyses against.

v1 linted one file at a time, so every rule was function-local.  The
index parses the whole tree once and answers the question the
cross-module passes need — *what does this dotted name refer to?*
Imports (including aliases, re-exports through package ``__init__``
files, relative imports and ``repro.*`` star imports) are resolved to
the defining :class:`FunctionInfo`, so a call site in ``repro.obs`` can
be chased into ``repro.experiments``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional


@dataclass
class FunctionInfo:
    """One function or method definition, addressable project-wide."""

    module: str
    qualname: str  # "helper" or "ClassName.method"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: list[str] = field(default_factory=list)

    @property
    def fqn(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class ModuleInfo:
    """One parsed module: source, AST, symbols and import bindings."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: local name -> absolute dotted target (``from x import y as z``
    #: binds ``z`` -> ``x.y``; ``import x.y`` binds ``x`` -> ``x``).
    imports: dict[str, str] = field(default_factory=dict)
    #: modules star-imported (``from repro.x import *``), resolved.
    star_imports: list[str] = field(default_factory=list)
    #: top-level function name -> info.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> {method name -> info}.
    classes: dict[str, dict[str, FunctionInfo]] = field(default_factory=dict)
    #: class name -> base-class expressions (dotted names, unresolved).
    class_bases: dict[str, list[str]] = field(default_factory=dict)


def _params_of(node) -> list[str]:
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def _dotted_expr(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for plain Name/Attribute chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve_relative(module_name: str, is_package: bool, level: int, target: str) -> str:
    """Absolute dotted name of a ``from ...x import y`` target."""
    parts = module_name.split(".")
    # Level 1 means "the containing package": for a plain module that is
    # everything but the last segment, for a package __init__ it is the
    # package itself.
    drop = level - 1 if is_package else level
    base = parts[: len(parts) - drop] if drop else parts
    if target:
        base = base + target.split(".")
    return ".".join(base)


class ProjectIndex:
    """All indexed modules plus symbol resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}

    # -- construction --------------------------------------------------

    def add_source(self, name: str, source: str, path: str, *, is_package: bool = False) -> ModuleInfo:
        """Parse and index one module (raises SyntaxError on bad source)."""
        tree = ast.parse(source, filename=path)
        info = ModuleInfo(name=name, path=path, source=source, tree=tree)
        self._collect_imports(info, is_package=is_package)
        self._collect_definitions(info)
        self.modules[name] = info
        return info

    def _collect_imports(self, info: ModuleInfo, *, is_package: bool) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        info.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    module = _resolve_relative(
                        info.name, is_package, node.level, node.module or ""
                    )
                else:
                    module = node.module or ""
                if not module:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        info.star_imports.append(module)
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{module}.{alias.name}"

    def _collect_definitions(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = FunctionInfo(
                    module=info.name,
                    qualname=node.name,
                    node=node,
                    params=_params_of(node),
                )
            elif isinstance(node, ast.ClassDef):
                methods: dict[str, FunctionInfo] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[item.name] = FunctionInfo(
                            module=info.name,
                            qualname=f"{node.name}.{item.name}",
                            node=item,
                            params=_params_of(item),
                        )
                info.classes[node.name] = methods
                info.class_bases[node.name] = [
                    base for base in (_dotted_expr(b) for b in node.bases) if base
                ]

    # -- symbol resolution ---------------------------------------------

    def functions_of(self, name: str) -> Iterable[FunctionInfo]:
        info = self.modules.get(name)
        if info is None:
            return ()
        out = list(info.functions.values())
        for methods in info.classes.values():
            out.extend(methods.values())
        return out

    def all_functions(self) -> Iterable[FunctionInfo]:
        for name in self.modules:
            yield from self.functions_of(name)

    def _split_module_prefix(self, dotted: str) -> Optional[tuple[ModuleInfo, list[str]]]:
        """Longest indexed-module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return self.modules[prefix], parts[cut:]
        return None

    def resolve_function(
        self, module: str, dotted: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """The FunctionInfo a dotted name used in ``module`` refers to.

        Handles local definitions, import aliases, attribute access on
        imported modules, re-exports through ``__init__`` modules and
        star imports.  Returns ``None`` for anything that does not
        resolve to an indexed plain function or method.
        """
        if _depth > 10:  # re-export cycles cannot recurse forever
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        # A name defined right here.
        if not rest and head in info.functions:
            return info.functions[head]
        if rest and head in info.classes:
            return info.classes[head].get(rest)
        # An imported name (possibly with a trailing attribute path).
        target = info.imports.get(head)
        if target is not None:
            full = f"{target}.{rest}" if rest else target
            return self._resolve_absolute(full, _depth + 1)
        # Star imports: first match wins, in import order.
        if not rest or "." not in rest:
            for star in info.star_imports:
                found = self.resolve_function(star, dotted, _depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_absolute(self, dotted: str, _depth: int) -> Optional[FunctionInfo]:
        split = self._split_module_prefix(dotted)
        if split is None:
            return None
        owner, remainder = split
        if not remainder:
            return None
        return self.resolve_function(owner.name, ".".join(remainder), _depth)

    def resolve_class_methods(
        self, module: str, class_name: str, _depth: int = 0
    ) -> dict[str, FunctionInfo]:
        """Methods of ``class_name`` including indexed base classes."""
        if _depth > 10:
            return {}
        info = self.modules.get(module)
        if info is None or class_name not in info.classes:
            return {}
        methods: dict[str, FunctionInfo] = {}
        for base in info.class_bases.get(class_name, ()):
            base_def = self._locate_class(module, base, _depth + 1)
            if base_def is not None:
                methods.update(
                    self.resolve_class_methods(base_def[0], base_def[1], _depth + 1)
                )
        methods.update(info.classes[class_name])
        return methods

    def _locate_class(
        self, module: str, dotted: str, _depth: int
    ) -> Optional[tuple[str, str]]:
        """(module, class) a dotted class reference points at."""
        if _depth > 10:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if not rest and head in info.classes:
            return (module, head)
        target = info.imports.get(head)
        if target is not None:
            full = f"{target}.{rest}" if rest else target
            split = self._split_module_prefix(full)
            if split is None:
                return None
            owner, remainder = split
            if len(remainder) == 1 and remainder[0] in owner.classes:
                return (owner.name, remainder[0])
            if remainder:
                return self._locate_class(owner.name, ".".join(remainder), _depth + 1)
        if not rest:
            for star in info.star_imports:
                found = self._locate_class(star, dotted, _depth + 1)
                if found is not None:
                    return found
        return None


def build_index(
    files: Iterable[tuple[str, Path]],
) -> tuple[ProjectIndex, list[str]]:
    """Index ``(module name, path)`` pairs; returns (index, parse errors)."""
    index = ProjectIndex()
    errors: list[str] = []
    for name, path in files:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
            index.add_source(
                name, source, str(path), is_package=path.stem == "__init__"
            )
        except SyntaxError as error:
            errors.append(f"{path}: {error}")
    return index, errors
