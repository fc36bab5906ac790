"""OBS003: the simulation core never imports ``repro.obs``.

Protocols see observability only as the opaque ``self.obs`` hook, so the
dependency between the simulation and its observers points one way.
No run can show a wrong-way import, which is why this rule stays static
while the rest of observer purity is checked at run time by
``tools/overhead_guard.py``.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.astutil import type_checking_lines
from repro.analysis.findings import CheckContext, Finding


def _imported_obs_module(node: ast.AST) -> Optional[str]:
    """The ``repro.obs`` module an import statement pulls in, if any."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro.obs" or alias.name.startswith("repro.obs."):
                return alias.name
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module == "repro.obs" or module.startswith("repro.obs."):
            return module
        if module == "repro" and any(alias.name == "obs" for alias in node.names):
            return "repro.obs"
    return None


def check(context: CheckContext, tree: ast.AST) -> list[Finding]:
    """Flag every non-``TYPE_CHECKING`` import of ``repro.obs``."""
    exempt = type_checking_lines(tree)
    findings: list[Finding] = []
    for node in ast.walk(tree):
        imported = _imported_obs_module(node)
        if imported is None or node.lineno in exempt:
            continue
        findings.append(
            context.make(
                "OBS003",
                node,
                f"simulation module imports {imported}; protocols reach "
                "observability only through the self.obs hook API",
            )
        )
    return findings
