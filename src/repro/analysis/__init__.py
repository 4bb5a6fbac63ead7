"""Correctness tooling: static lint pass + runtime invariant sanitizer.

Production partitioners ship correctness tooling alongside the algorithms —
METIS has ``CheckGraph`` and graded debug levels, KaHIP a hierarchy of
assertion tiers — because the multilevel machinery fails *silently*: a
wrong gain update or a non-conserving contraction produces a plausible but
suboptimal cut, not a crash.  This package is that tooling for
:mod:`repro`:

* **Static lint** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`) — a whole-program rule engine: per-file
  rules (``RP001`` … ``RP009``) over one shared AST traversal per module,
  plus dataflow rules (``RP012`` … ``RP018``) over a project-wide symbol
  table and call graph (:mod:`repro.analysis.project`,
  :mod:`repro.analysis.callgraph`, :mod:`repro.analysis.dataflow`)
  covering exact int64 weight arithmetic, RNG-seed threading, and
  process-pool worker purity.  Findings carry call-path traces and render
  as text or JSON (:mod:`repro.analysis.report`).  Run it with
  ``python -m repro.analysis`` / ``repro lint``.
* **Runtime sanitizer** (:mod:`repro.analysis.sanitize`) — O(n + m)
  invariant checkers hooked into every phase boundary of the multilevel
  pipeline, enabled with ``REPRO_SANITIZE=1`` or
  ``MultilevelOptions(sanitize=True)``, and free when disabled.

See ``docs/ANALYSIS.md`` for the rule table, suppression syntax, and
measured sanitizer overhead.
"""

import importlib

#: Each re-exported name and the submodule that defines it.  They resolve
#: on first access (PEP 562): the library imports only the runtime
#: sanitizer, so importing it does not compile the lint engine.
_EXPORTS = {
    "Finding": "engine",
    "lint_paths": "engine",
    "format_findings": "engine",
    "RULES": "rules",
    "default_rules": "rules",
    "ProjectModel": "project",
    "build_project": "project",
    "CallGraph": "callgraph",
    "build_call_graph": "callgraph",
    "findings_to_json": "report",
    "rules_markdown_table": "report",
    "Sanitizer": "sanitize",
    "NullSanitizer": "sanitize",
    "SanitizerError": "sanitize",
    "sanitizer": "sanitize",
    "sanitize_enabled": "sanitize",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
