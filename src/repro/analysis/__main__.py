"""detlint command line: ``python -m repro.analysis`` / ``repro-experiments lint``.

Exit codes: 0 clean (or informational run), 1 gate failure under
``--check`` (active findings, stale or unjustified baseline entries,
parse errors), 2 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    regenerate,
    write_baseline,
)
from repro.analysis.engine import lint_paths
from repro.analysis.reporters import render_json, render_rule_catalog, render_text
from repro.analysis.rules import RULES

DEFAULT_BASELINE = Path("tools") / "detlint_baseline.json"


def default_paths() -> list[Path]:
    """The installed ``repro`` package — works from any cwd."""
    import repro

    return [Path(repro.__file__).parent]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments lint",
        description="detlint: determinism & purity static analysis (see docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate mode: exit 1 on any active finding or baseline problem",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline suppression file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings, keeping "
        "known reasons; new entries get a placeholder --check refuses",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="only run this rule (repeatable)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--sarif",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write a SARIF 2.1.0 log (GitHub code scanning)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write the JSON report to PATH ('-' or no value: stdout)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also list suppressed findings"
    )
    args = parser.parse_args(argv)

    if args.rules:
        print(render_rule_catalog())
        return 0

    rules_filter = None
    if args.rule:
        rules_filter = {rule_id.upper() for rule_id in args.rule}
        unknown = rules_filter - set(RULES)
        if unknown:
            print(f"detlint: unknown rule(s): {sorted(unknown)}", file=sys.stderr)
            return 2

    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as error:
        print(f"detlint: {error}", file=sys.stderr)
        return 2

    paths = args.paths or default_paths()
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"detlint: no such path(s): {missing}", file=sys.stderr)
        return 2

    report = lint_paths(paths, baseline=baseline, rules_filter=rules_filter)

    if args.update_baseline:
        # Regenerate from everything not suppressed at the source:
        # findings the old baseline covered keep their entries (and
        # reasons); entries matching nothing are dropped as resolved.
        keep = [f for f in report.findings if f.suppressed_by != "pragma"]
        fresh = regenerate(baseline, keep)
        resolved = [
            entry
            for entry in baseline.entries
            if entry.key() not in {e.key() for e in fresh.entries}
        ]
        path = write_baseline(args.baseline, fresh)
        for entry in sorted(resolved, key=lambda e: e.key()):
            print(
                f"detlint: resolved: {entry.rule} in {entry.module} "
                f"({entry.context!r}) no longer fires — entry dropped",
                file=sys.stderr,
            )
        placeholders = len(fresh.unjustified_entries())
        print(
            f"detlint: baseline rewritten to {path} "
            f"({len(fresh.entries)} entr(y/ies), {len(resolved)} resolved, "
            f"{placeholders} needing a reason)",
            file=sys.stderr,
        )
        return 0

    if args.sarif is not None:
        from repro.analysis.sarif import write_sarif

        write_sarif(args.sarif, report)
        print(f"detlint: SARIF log written to {args.sarif}", file=sys.stderr)

    if args.json is not None:
        rendered = json.dumps(render_json(report), indent=2, sort_keys=True)
        if args.json == "-":
            print(rendered)
        else:
            Path(args.json).parent.mkdir(parents=True, exist_ok=True)
            Path(args.json).write_text(rendered + "\n", encoding="utf-8")
            print(f"detlint: JSON report written to {args.json}", file=sys.stderr)
    if args.json != "-":
        print(render_text(report, verbose=args.verbose))

    gate_ok = (
        report.ok
        and not report.baseline.stale_entries()
        and not report.baseline.unjustified_entries()
    )
    if args.check and not gate_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
