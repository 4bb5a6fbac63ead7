"""Correctness tooling: static lint pass + runtime invariant sanitizer.

Production partitioners ship correctness tooling alongside the algorithms —
METIS has ``CheckGraph`` and graded debug levels, KaHIP a hierarchy of
assertion tiers — because the multilevel machinery fails *silently*: a
wrong gain update or a non-conserving contraction produces a plausible but
suboptimal cut, not a crash.  This package is that tooling for
:mod:`repro`:

* **Static lint** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`) — a whole-program rule engine: per-file
  rules (``RP001`` … ``RP011``) over one shared AST traversal per module,
  plus dataflow rules (``RP012`` … ``RP016``) over a project-wide symbol
  table and call graph (:mod:`repro.analysis.project`,
  :mod:`repro.analysis.callgraph`, :mod:`repro.analysis.dataflow`)
  covering exact int64 weight arithmetic, RNG-seed threading, and
  process-pool worker purity.  Findings carry call-path traces and render
  as text, JSON, or SARIF 2.1.0 (:mod:`repro.analysis.report`).  Run it with
  ``python -m repro.analysis`` / ``repro lint``.
* **Runtime sanitizer** (:mod:`repro.analysis.sanitize`) — O(n + m)
  invariant checkers hooked into every phase boundary of the multilevel
  pipeline, enabled with ``REPRO_SANITIZE=1`` or
  ``MultilevelOptions(sanitize=True)``, and free when disabled.

See ``docs/ANALYSIS.md`` for the rule table, suppression syntax, and
measured sanitizer overhead.
"""

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.engine import Finding, format_findings, lint_file, lint_paths
from repro.analysis.project import ProjectModel, build_project
from repro.analysis.report import (
    findings_to_json,
    findings_to_sarif,
    rules_markdown_table,
    validate_sarif,
)
from repro.analysis.rules import RULES, default_rules, rule_table
from repro.analysis.sanitize import (
    NullSanitizer,
    Sanitizer,
    SanitizerError,
    sanitize_enabled,
    sanitizer,
)

__all__ = [
    "Finding",
    "lint_paths",
    "lint_file",
    "format_findings",
    "RULES",
    "default_rules",
    "rule_table",
    "ProjectModel",
    "build_project",
    "CallGraph",
    "build_call_graph",
    "findings_to_json",
    "findings_to_sarif",
    "validate_sarif",
    "rules_markdown_table",
    "Sanitizer",
    "NullSanitizer",
    "SanitizerError",
    "sanitizer",
    "sanitize_enabled",
]
