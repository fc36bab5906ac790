"""Run one job of the CI workflow locally, step by step.

Usage::

    python tools/gate.py campaign-smoke

Reads ``.github/workflows/ci.yml`` and runs each ``run:`` step of the
job under ``bash -eo pipefail`` from the repository root, once per
combination of the job's matrix, with ``${{ matrix.* }}`` substituted.
Each step prints one verdict line: ``ok <step>``, ``FAIL <step> (exit
N)``, or ``SKIP <step>: <reason>`` for a step that cannot run outside
GitHub's runners (a ``uses:`` action, a ``pip install``, a tool that is
not installed).  As on GitHub, a failed step skips the rest of its
matrix combination.  Exits 1 if any step failed, 2 on an unknown job.

This module is also the one parser of the workflow: the tier-1 tests
read CI's command lines through :func:`steps` and :func:`command_lines`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
MATRIX = re.compile(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}")
#: Tools a step may call that a development checkout need not have.
OPTIONAL_TOOLS = ("ruff",)


def load_workflow(path: Path = WORKFLOW) -> dict[str, Any]:
    """The parsed workflow file."""
    return yaml.safe_load(Path(path).read_text(encoding="utf-8"))


def matrix_combinations(job: dict[str, Any]) -> list[dict[str, Any]]:
    """Every combination of the job's matrix values; ``[{}]`` without one."""
    matrix = job.get("strategy", {}).get("matrix", {})
    keys = list(matrix)
    return [
        dict(zip(keys, values))
        for values in itertools.product(*(matrix[key] for key in keys))
    ]


def command_lines(script: str) -> list[str]:
    """The script's lines with backslash continuations joined."""
    return script.replace("\\\n", " ").splitlines()


def skip_reason(step: dict[str, Any], script: str) -> str | None:
    """Why ``step`` cannot run here, or None if it can."""
    if "uses" in step:
        return f"uses the {step['uses']} action"
    for line in command_lines(script):
        if re.search(r"\bpip install\b", line):
            return "installs packages"
        for tool in OPTIONAL_TOOLS:
            if re.match(rf"\s*{tool}\b", line) and shutil.which(tool) is None:
                return f"{tool} is not installed"
    return None


def steps(job: dict[str, Any]) -> list[list[tuple[str, str, str | None]]]:
    """``(name, script, skip reason)`` of every step, one list per matrix
    combination, with the combination substituted into the script."""
    runs = []
    for values in matrix_combinations(job):
        suffix = ", ".join(f"{key}={value}" for key, value in values.items())
        combination = []
        for index, step in enumerate(job["steps"], 1):
            name = step.get("name") or step.get("uses") or f"step {index}"
            if suffix:
                name = f"{name} [{suffix}]"
            script = MATRIX.sub(
                lambda match: str(values[match.group(1)]), step.get("run", "")
            )
            combination.append((name, script, skip_reason(step, script)))
        runs.append(combination)
    return runs


def run_script(script: str) -> int:
    """Run one step's script the way GitHub's ``bash`` shell does."""
    return subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=ROOT).returncode


def run_job(
    job: dict[str, Any],
    echo: Callable[[str], None] = functools.partial(print, flush=True),
    run: Callable[[str], int] = run_script,
) -> int:
    """Run every step of ``job``; returns the number of failed steps."""
    failures = 0
    for combination in steps(job):
        failed = False
        for name, script, reason in combination:
            if failed:
                echo(f"SKIP {name}: an earlier step failed")
            elif reason is not None:
                echo(f"SKIP {name}: {reason}")
            else:
                code = run(script)
                if code:
                    failures += 1
                    failed = True
                    echo(f"FAIL {name} (exit {code})")
                else:
                    echo(f"ok {name}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one CI job locally.")
    parser.add_argument("job", help="job id in ci.yml")
    args = parser.parse_args(argv)
    jobs = load_workflow()["jobs"]
    if args.job not in jobs:
        print(f"gate: unknown job {args.job!r}; choose from {list(jobs)}", file=sys.stderr)
        return 2
    return 1 if run_job(jobs[args.job]) else 0


if __name__ == "__main__":
    sys.exit(main())
