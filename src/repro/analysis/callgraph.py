"""Best-effort static call graph over a :class:`~repro.analysis.project.ProjectModel`.

The graph is *conservative in the useful direction* for the checkers built
on it: an edge exists only when the callee resolves statically (direct
name, module-attribute chain, nested function, or re-export), so
reachability sets err on the small side and findings come with an actual
witness path.  Dynamic dispatch (methods on objects, callables passed as
values) is out of scope — with two deliberate exceptions that the
worker-purity checkers depend on:

* ``<pool>.submit(fn, ...)`` marks ``fn`` as a **worker entry point**
  (the process-pool fan-out of :mod:`repro.resilience.supervisor`);
* ``functools.partial(fn, ...)`` records an edge to ``fn`` *and* marks it
  as a worker entry, because the drivers ship branch jobs to the pool as
  partials (``mlnd_ordering``'s ``_mlnd_branch_job``).  Over-approximating
  every partial target as worker-reachable is the safe direction for a
  purity checker.

Call-path traces ("``partition → _recurse → part_weights``") are computed
by a backward BFS from the offending function to the nearest **entry
function** (one no project function calls), which is how findings explain
*how* a driver reaches the defect.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

__all__ = ["CallSite", "CallGraph", "build_call_graph"]


@dataclass(frozen=True)
class CallSite:
    """One resolved project-internal call."""

    caller: str  #: qualname of the calling function ("" for module level)
    callee: str  #: qualname of the resolved callee
    node: object  #: the ``ast.Call``
    module: str  #: dotted name of the module containing the call


class CallGraph:
    """Forward/backward edges plus worker-entry bookkeeping."""

    def __init__(self, project):
        self.project = project
        #: caller qualname -> set of callee qualnames.
        self.edges: dict[str, set] = {}
        #: callee qualname -> set of caller qualnames.
        self.callers: dict[str, set] = {}
        #: every resolved project-internal call.
        self.call_sites: list[CallSite] = []
        #: qualnames handed to ``.submit`` / ``functools.partial``.
        self.worker_entries: set = set()

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)
        self.callers.setdefault(callee, set()).add(caller)

    def reachable_from(self, roots) -> set:
        """Transitive closure of ``roots`` over forward edges (roots included)."""
        seen = set()
        queue = deque(r for r in roots if r in self.project.functions)
        seen.update(queue)
        while queue:
            cur = queue.popleft()
            for nxt in self.edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def worker_reachable(self) -> set:
        """Functions reachable from the process-pool branch entry points."""
        return self.reachable_from(self.worker_entries)

    def entry_path_to(self, target: str) -> list:
        """Shortest caller chain from an entry function to ``target``.

        Returns qualnames ``[entry, ..., target]``; ``[target]`` when the
        function is itself an entry (or unreachable — no caller resolves).
        """
        prev = {target: None}
        queue = deque([target])
        best_entry = None
        while queue:
            cur = queue.popleft()
            callers = self.callers.get(cur, set()) - {""}
            if not callers:
                best_entry = cur
                break
            for c in sorted(callers):
                if c not in prev:
                    prev[c] = cur
                    queue.append(c)
        if best_entry is None:
            return [target]
        path = []
        cur = best_entry
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        return path

    def display_path(self, target: str) -> list:
        """:meth:`entry_path_to` with short (unqualified) function names."""
        return [q.rsplit(".", 1)[-1] for q in self.entry_path_to(target)]


def _enclosing_scope(module, node):
    """Chain of FunctionInfo enclosing ``node``, outermost first."""
    funcs = []
    for anc in module.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.append(anc)
    funcs.reverse()
    infos, prefix = [], module.name
    for f in funcs:
        # Reconstruct the qualname the project model registered.
        qual = f"{prefix}.{f.name}"
        info = module.functions.get(qual)
        if info is None:
            # Method or conditionally-scoped def: search by node identity.
            info = next(
                (i for i in module.functions.values() if i.node is f), None
            )
        if info is not None:
            infos.append(info)
            prefix = info.qualname
        else:
            prefix = qual
    return tuple(infos)


def build_call_graph(project) -> CallGraph:
    """Resolve every call in ``project`` into a :class:`CallGraph`."""
    graph = CallGraph(project)
    for module in project.modules.values():
        for call in module.by_type(ast.Call):
            scope = _enclosing_scope(module, call)
            caller = scope[-1].qualname if scope else ""
            callee = project.resolve_call(call.func, module, scope)
            if callee is not None:
                graph.add_edge(caller, callee.qualname)
                graph.call_sites.append(
                    CallSite(caller, callee.qualname, call, module.name)
                )
            _note_worker_entry(project, graph, module, call, scope)
    return graph


def _note_worker_entry(project, graph, module, call, scope) -> None:
    """Mark ``fn`` in ``pool.submit(fn, ...)`` / ``partial(fn, ...)``."""
    func = call.func
    is_submit = isinstance(func, ast.Attribute) and func.attr == "submit"
    is_partial = False
    if isinstance(func, ast.Name) or isinstance(func, ast.Attribute):
        dotted = project.dotted_of(func, module, scope)
        if dotted in ("functools.partial", "partial"):
            is_partial = True
    if not (is_submit or is_partial) or not call.args:
        return
    target = project.resolve_call(call.args[0], module, scope)
    if target is None:
        return
    caller = scope[-1].qualname if scope else ""
    graph.worker_entries.add(target.qualname)
    graph.add_edge(caller, target.qualname)
