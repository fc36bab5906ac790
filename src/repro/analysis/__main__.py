"""detlint command line: ``python -m repro.analysis`` / ``repro-experiments lint``.

Exit codes: 0 clean (or informational run), 1 gate failure under
``--check`` (active findings or parse errors), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import lint_paths
from repro.analysis.reporters import render_json, render_rule_catalog, render_text
from repro.analysis.rules import RULES


def default_paths() -> list[Path]:
    """The installed ``repro`` package — works from any cwd."""
    import repro

    return [Path(repro.__file__).parent]


def build_parser() -> argparse.ArgumentParser:
    """detlint's option surface (``repro-experiments lint`` reuses it)."""
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
        help="gate mode: exit 1 on any active finding or parse error",
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
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write the JSON report to PATH ('-' or no value: stdout)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also list pragma-suppressed findings"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

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

    paths = args.paths or default_paths()
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"detlint: no such path(s): {missing}", file=sys.stderr)
        return 2

    report = lint_paths(paths, rules_filter=rules_filter)

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

    if args.check and not report.ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
