"""Command line for the static lint pass.

Invoked three ways, all equivalent:

* ``python -m repro.analysis [paths]``
* ``repro lint [paths]`` (subcommand of the main CLI)
* ``repro-lint [paths]`` (console script)

All three take the one flag set :func:`add_lint_arguments` declares.
Exit status: 0 when clean, 1 when any
finding was reported, 2 on usage errors.  Findings print one per line as
``path:line:col: RPxxx message``, with ``--json`` switching to the
machine-readable array of :mod:`repro.analysis.report`.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.engine import format_findings, lint_paths
from repro.analysis.report import findings_to_json, rules_markdown_table
from repro.analysis.rules import default_rules

__all__ = ["add_lint_arguments", "build_parser", "main", "run_lint"]


def add_lint_arguments(parser) -> None:
    """Declare the lint flags on ``parser``.

    Used by ``repro-lint`` (:func:`build_parser`) and by the ``repro
    lint`` subcommand, so the two take exactly the same flags.
    """
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--rules-md",
        action="store_true",
        help="print the generated docs/ANALYSIS.md rule table and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as a JSON array",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "whole-program lint pass enforcing the repro codebase idioms "
            "(rule table: docs/ANALYSIS.md or --rules-md)"
        ),
    )
    add_lint_arguments(parser)
    return parser


def run_lint(args) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.rules_md:
        print(rules_markdown_table())
        return 0
    rules = default_rules()
    if args.select:
        wanted = {token.strip().upper() for token in args.select.split(",")}
        unknown = wanted - {r.id for r in rules}
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        rules = [r for r in rules if r.id in wanted]
    findings = lint_paths(args.paths, rules=rules)
    if args.as_json:
        print(findings_to_json(findings))
    elif findings:
        print(format_findings(findings))
    if findings:
        print(
            f"{len(findings)} finding(s); suppress deliberate exceptions "
            "with '# repro: noqa[RPxxx]' plus a justification",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    return run_lint(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
