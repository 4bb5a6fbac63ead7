"""Reporting layer: JSON output and the generated rule table.

* ``repro lint --json`` — a stable machine-readable array of the
  :class:`~repro.analysis.engine.Finding` list, for scripts;
* ``repro lint --rules-md`` — the docs/ANALYSIS.md rule table, generated
  from the rule registry.
"""

from __future__ import annotations

import json

__all__ = ["findings_to_json", "rules_markdown_table"]


# --------------------------------------------------------------------------
# JSON


def findings_to_json(findings) -> str:
    """Stable machine-readable JSON array of findings."""
    rows = [
        {
            "path": f.path,
            "line": f.line,
            "col": f.col,
            "rule": f.rule_id,
            "message": f.message,
            "trace": list(f.trace),
        }
        for f in findings
    ]
    return json.dumps(rows, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# Generated rule table (docs/ANALYSIS.md)


def rules_markdown_table() -> str:
    """The docs/ANALYSIS.md rule table, generated from the registry."""
    from repro.analysis.rules import RULES

    lines = [
        "| Rule | Name | Checks |",
        "|------|------|--------|",
    ]
    for cls in RULES:
        body = cls.doc.strip().replace("\n", " ")
        lines.append(f"| {cls.id} | `{cls.name}` | {body} |")
    return "\n".join(lines)
