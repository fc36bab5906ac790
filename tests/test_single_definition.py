"""No function body under ``src/repro`` exists twice.

Copies in the replica layer have drifted three times (a leak fix, a
trace hook and a checkpoint route each missed one copy); this gate makes
the next copy fail loudly instead.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# Two three-field message constructors that are equal by construction.
ALLOWED = {frozenset({"messages.py:Skip.__init__", "messages.py:SkipAck.__init__"})}


def _functions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _functions(node, f"{prefix}{node.name}.")


def test_no_function_body_exists_twice():
    seen = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        for name, node in _functions(ast.parse(path.read_text())):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) >= 3:
                dump = "\n".join(ast.dump(statement) for statement in body)
                seen[dump].add(f"{path.name}:{name}")
    copies = [names for names in seen.values() if len(names) > 1]
    assert [sorted(names) for names in copies if names not in ALLOWED] == []


def test_population_holds_no_client_state_machine():
    """``repro.population`` lends cids to the real client classes; a
    second reply/reject/retry/hedge implementation must not grow back."""
    offenders = []
    for path in sorted((SRC / "population").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
                offenders += [
                    f"{path.name} imports {name}"
                    for name in sorted(names & {"Request", "Reply", "Reject"})
                ]
        offenders += [
            f"{path.name} defines {name}"
            for name, _ in _functions(tree)
            if name.rpartition(".")[2]
            in {"_on_reply", "_on_reject", "_attempt_failed", "_send_hedge"}
        ]
    assert offenders == []
