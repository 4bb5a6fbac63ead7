"""The lint engine: discovery, the project model, rule dispatch, reporting.

The engine parses every file **exactly once** into a
:class:`~repro.analysis.project.ProjectModel` (shared AST, one cached
``ast.walk`` per module, one suppression table), then runs two rule
families over it:

* **per-file rules** (:class:`Rule`, ``RP001`` … ``RP009``) receive a
  :class:`FileContext` backed by the module's cached traversal;
* **whole-program rules** (:class:`ProjectRule`, ``RP012`` … ``RP018``)
  receive a :class:`ProjectContext` carrying the full project model and
  the static call graph, and may attach **call-path traces** to findings.

Findings are filtered through the per-line suppression table
(``# repro: noqa[RPxxx]`` — see :mod:`repro.analysis.suppress`), and
rendered as ``path:line:col: RPxxx message`` — the shape editors and CI
annotate.  The reporting layer (:mod:`repro.analysis.report`) adds JSON
output on top of the same finding list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.suppress import (  # noqa: F401  (re-exported API)
    SUPPRESS_ALL,
    collect_suppressions,
    is_suppressed,
)

__all__ = [
    "Finding",
    "FileContext",
    "ProjectContext",
    "Rule",
    "ProjectRule",
    "lint_paths",
    "format_findings",
    "collect_suppressions",
    "is_suppressed",
    "SUPPRESS_ALL",
    "PARSE_ERROR_ID",
]

#: Rule id used for files the engine cannot parse at all.
PARSE_ERROR_ID = "RP000"


@dataclass(frozen=True)
class Finding:
    """One lint finding, sortable into report order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: call-path trace (display names, entry first) for whole-program
    #: findings — ``("partition", "_recurse", "part_weights")``.
    trace: tuple = ()

    def format(self) -> str:
        """Render as ``path:line:col: RPxxx message``."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.trace:
            text += f" [call path: {' -> '.join(self.trace)}]"
        return text

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)


class Rule:
    """Per-file rule base: subclasses set ``id``/``name``/``doc`` and
    implement :meth:`check` over a :class:`FileContext`."""

    id = "RP000"
    name = "base"
    #: one-paragraph markdown description for the generated rule table.
    doc = ""

    def check(self, ctx):
        """Yield :class:`Finding` objects for one file."""
        raise NotImplementedError


class ProjectRule(Rule):
    """Whole-program rule base: implement :meth:`check_project` over a
    :class:`ProjectContext` (runs once per lint invocation, not per file)."""

    def check(self, ctx):  # pragma: no cover - project rules don't run per-file
        return ()

    def check_project(self, ctx):
        """Yield :class:`Finding` objects across the whole project."""
        raise NotImplementedError


@dataclass
class FileContext:
    """Everything a per-file rule may inspect about one source file."""

    path: Path
    #: Path components of ``path`` (used for location-based exemptions such
    #: as "``graph/`` may mutate CSR arrays").
    parts: tuple
    #: the backing :class:`~repro.analysis.project.ModuleInfo` (carries the
    #: cached traversal).
    module: object

    def walk(self):
        """The module's node list — one shared traversal, never re-walked."""
        return self.module.nodes

    def finding(self, node_or_line, rule_id, message, col=None) -> Finding:
        """Build a :class:`Finding` anchored at an AST node or line number."""
        if hasattr(node_or_line, "lineno"):
            line = node_or_line.lineno
            col = node_or_line.col_offset + 1 if col is None else col
        else:
            line = int(node_or_line)
            col = 1 if col is None else col
        return Finding(str(self.path), line, col, rule_id, message)


@dataclass
class ProjectContext:
    """Everything a whole-program rule may inspect."""

    project: object  #: the :class:`~repro.analysis.project.ProjectModel`
    graph: object  #: the :class:`~repro.analysis.callgraph.CallGraph`

    def finding(
        self, module, node_or_line, rule_id, message, col=None, trace=()
    ) -> Finding:
        """Build a :class:`Finding` in ``module`` with a call-path trace."""
        if hasattr(node_or_line, "lineno"):
            line = node_or_line.lineno
            col = node_or_line.col_offset + 1 if col is None else col
        else:
            line = int(node_or_line)
            col = 1 if col is None else col
        return Finding(str(module.path), line, col, rule_id, message, tuple(trace))


def discover_python_files(paths):
    """Expand files/directories into a de-duplicated ``.py`` list (each
    directory's files sorted), plus per-file root dirs.

    The root map (file → the directory argument it was discovered under)
    lets the project model give fixture trees without ``__init__.py``
    markers proper dotted module names.
    """
    seen = []
    seen_set = set()
    roots: dict[Path, Path] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            if c not in seen_set:
                seen_set.add(c)
                seen.append(c)
                if p.is_dir():
                    roots[c] = p
    return seen, roots


def _split_rules(rules):
    per_file = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    return per_file, project_rules


def _parse_error_findings(project):
    return [
        Finding(str(path), line, col, PARSE_ERROR_ID, message)
        for path, line, col, message in project.errors
    ]


def lint_project(project, rules):
    """Run ``rules`` over an already-built project model."""
    per_file, project_rules = _split_rules(rules)
    findings = _parse_error_findings(project)
    suppressions = {}
    for module in project.modules_by_path.values():
        suppressions[str(module.path)] = module.suppressions
        ctx = FileContext(path=module.path, parts=module.parts, module=module)
        for rule in per_file:
            findings.extend(rule.check(ctx))
    if project_rules:
        from repro.analysis.callgraph import build_call_graph

        pctx = ProjectContext(project=project, graph=build_call_graph(project))
        for rule in project_rules:
            findings.extend(rule.check_project(pctx))
    out, seen = [], set()
    for f in findings:
        key = (f.path, f.line, f.col, f.rule_id, f.message)
        if key in seen:
            continue
        seen.add(key)
        if not is_suppressed(f, suppressions.get(f.path, {})):
            out.append(f)
    return sorted(out, key=Finding.sort_key)


def lint_paths(paths, rules=None) -> list:
    """Lint every Python file under ``paths`` with ``rules``.

    Parameters
    ----------
    paths:
        Files and/or directories (directories are walked recursively).
    rules:
        Rule instances; defaults to the full repo rule set
        (:func:`repro.analysis.rules.default_rules`).

    Returns
    -------
    list[Finding]
        All unsuppressed findings, in report order.
    """
    from repro.analysis.project import build_project

    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    files, roots = discover_python_files(paths)
    return lint_project(build_project(files, roots), rules)


def format_findings(findings) -> str:
    """Human/CI-readable report, one finding per line."""
    return "\n".join(f.format() for f in findings)
