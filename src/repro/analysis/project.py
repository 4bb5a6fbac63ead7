"""The whole-program project model: parse once, resolve names once.

The per-file rules (``RP001`` … ``RP009``) only ever needed one module's
AST, so the original engine handed each rule a freshly parsed tree.  The
whole-program rules (``RP012`` … ``RP018``) need to see *across* modules —
"which functions can a pool worker reach?", "does every caller thread its
``rng``?" — so this module builds the shared substrate exactly once per
lint invocation:

* :class:`ModuleInfo` — one parsed module: its AST, a single cached
  ``ast.walk`` node list (every rule filters this list instead of
  re-walking), a node→parent map, the suppression table, the import
  bindings and the module-level name set;
* :class:`ProjectModel` — all modules keyed by dotted name and by path,
  a symbol table of every function (nested ones included), import and
  re-export resolution, and the call-site resolver the call graph and
  dataflow passes are built on.

Module names are computed relative to the *package root*: for a directory
that is itself a package (has ``__init__.py``) the root is its parent, so
``src/repro/core/kway.py`` becomes ``repro.core.kway``; fixture trees
without ``__init__.py`` files resolve the same way relative to the linted
directory's parent, so synthetic packages in tests behave like the real
tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.suppress import collect_suppressions

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "build_project",
    "MISSING",
]

#: Sentinel for "parameter has no default" in :attr:`FunctionInfo.defaults`.
MISSING = object()

#: Resolution depth bound for re-export chains (``from a import b`` where
#: ``a.b`` is itself ``from c import b`` …).  Real chains are 1–2 deep.
_MAX_REEXPORT_DEPTH = 10


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in the project."""

    qualname: str  #: fully dotted, e.g. ``repro.core.kway._branch_job``
    module: str  #: dotted module name
    node: object  #: the ``ast.FunctionDef`` / ``ast.AsyncFunctionDef``
    #: positional + keyword-only parameter names, in declaration order
    #: (``self``/``cls`` included for methods — callers index accordingly).
    params: tuple = ()
    #: parameter name → default AST node, or :data:`MISSING`.
    defaults: dict = field(default_factory=dict)
    has_vararg: bool = False
    has_kwarg: bool = False
    #: qualnames of nested functions defined directly inside this one.
    children: tuple = ()

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """One parsed module plus everything the rules may ask about it."""

    name: str  #: dotted module name
    path: Path
    tree: ast.AST
    parts: tuple = ()  #: path components (location-based rule scoping)
    #: single cached traversal: ``list(ast.walk(tree))`` — rules filter
    #: this instead of re-walking the tree.
    nodes: list = field(default_factory=list)
    #: ``id(node) -> parent node`` for ancestor walks (guard detection).
    parents: dict = field(default_factory=dict)
    #: per-line ``# repro: noqa`` suppression table.
    suppressions: dict = field(default_factory=dict)
    #: local name → dotted target ("np" → "numpy",
    #: "part_weights" → "repro.graph.partition.part_weights").
    imports: dict = field(default_factory=dict)
    #: names bound at module level (assignments, defs, imports) — the
    #: state the worker-purity rules protect.
    top_names: set = field(default_factory=set)
    #: function qualname → :class:`FunctionInfo` for functions defined here.
    functions: dict = field(default_factory=dict)
    #: lazily built ``type -> [nodes]`` index over :attr:`nodes`.
    _by_type: dict = field(default_factory=dict)

    def by_type(self, *types):
        """All nodes of the given AST types, from the shared traversal."""
        out = []
        for t in types:
            if t not in self._by_type:
                self._by_type[t] = [n for n in self.nodes if type(n) is t]
            out.extend(self._by_type[t])
        return out

    def ancestors(self, node):
        """Yield ``node``'s ancestors, innermost first."""
        cur = self.parents.get(id(node))
        while cur is not None:
            yield cur
            cur = self.parents.get(id(cur))


def _module_name_for(path: Path, root_hint: Path | None = None) -> str:
    """Dotted module name for ``path``.

    Walks up while ``__init__.py`` marks package directories; when
    ``root_hint`` is given (the linted directory), it is treated as a
    package root even without ``__init__.py`` so fixture trees resolve.
    """
    path = path.resolve()
    root = root_hint.resolve() if root_hint is not None else None
    parts = [path.stem] if path.stem != "__init__" else []
    cur = path.parent
    while True:
        is_pkg = (cur / "__init__.py").is_file()
        hinted = root is not None and (cur == root or root in cur.parents)
        if is_pkg or hinted:
            parts.insert(0, cur.name)
            if cur == root and not is_pkg:
                break
            cur = cur.parent
        else:
            break
    return ".".join(parts) if parts else path.stem


def _build_parents(tree) -> dict:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _collect_functions(module: ModuleInfo) -> None:
    """Register every function in ``module``, nested defs included."""

    def visit(node, prefix, parent_info):
        children = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                info = _function_info(qual, module.name, child)
                module.functions[qual] = info
                children.append(qual)
                visit(child, qual, info)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", None)
            elif isinstance(
                child, (ast.If, ast.Try, ast.With, ast.For, ast.While)
            ):
                # Conditionally defined functions still belong to the scope.
                visit(child, prefix, parent_info)
        if parent_info is not None:
            parent_info.children = tuple(children)

    visit(module.tree, module.name, None)


def _function_info(qualname, module_name, node) -> FunctionInfo:
    a = node.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    defaults: dict[str, object] = {p: MISSING for p in params}
    pos = [*a.posonlyargs, *a.args]
    for param, default in zip(pos[len(pos) - len(a.defaults):], a.defaults):
        defaults[param.arg] = default
    for param, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            defaults[param.arg] = default
    return FunctionInfo(
        qualname=qualname,
        module=module_name,
        node=node,
        params=tuple(params),
        defaults=defaults,
        has_vararg=a.vararg is not None,
        has_kwarg=a.kwarg is not None,
    )


def _collect_imports(module: ModuleInfo) -> None:
    for node in module.by_type(ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            module.imports[local] = target
            module.top_names.add(local)
    pkg_parts = module.name.split(".")
    for node in module.by_type(ast.ImportFrom):
        if node.level:
            # Relative import: resolve against this module's package.
            base_parts = pkg_parts[: len(pkg_parts) - node.level]
            base = ".".join(base_parts + ([node.module] if node.module else []))
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            module.imports[local] = f"{base}.{alias.name}" if base else alias.name
            module.top_names.add(local)


def _collect_top_names(module: ModuleInfo) -> None:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module.top_names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for inner in ast.walk(t):
                    if isinstance(inner, ast.Name):
                        module.top_names.add(inner.id)


class ProjectModel:
    """All linted modules plus cross-module name resolution."""

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}
        self.modules_by_path: dict[Path, ModuleInfo] = {}
        #: every function in the project, keyed by dotted qualname.
        self.functions: dict[str, FunctionInfo] = {}
        #: files the parser rejected: ``[(path, lineno, col, message)]``.
        self.errors: list = []

    # -- construction --------------------------------------------------

    def add_file(self, path: Path, root_hint: Path | None = None) -> None:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            self.errors.append((path, 1, 1, f"cannot read file: {exc}"))
            return
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.errors.append(
                (path, exc.lineno or 1, exc.offset or 1, f"syntax error: {exc.msg}")
            )
            return
        module = ModuleInfo(
            name=_module_name_for(path, root_hint),
            path=path,
            tree=tree,
            parts=path.parts,
            nodes=list(ast.walk(tree)),
            parents=_build_parents(tree),
            suppressions=collect_suppressions(source),
        )
        _collect_imports(module)
        _collect_top_names(module)
        _collect_functions(module)
        self.modules[module.name] = module
        self.modules_by_path[path] = module
        self.functions.update(module.functions)

    # -- resolution ----------------------------------------------------

    def resolve_dotted(self, dotted: str, _depth: int = 0):
        """Resolve a dotted name to a :class:`FunctionInfo`, following
        re-export chains through package ``__init__`` modules.

        Returns ``None`` for external names (numpy, stdlib) and anything
        the static model cannot see.
        """
        if _depth > _MAX_REEXPORT_DEPTH:
            return None
        if dotted in self.functions:
            return self.functions[dotted]
        if "." not in dotted:
            return None
        base, leaf = dotted.rsplit(".", 1)
        module = self.modules.get(base)
        if module is None:
            # ``base`` may itself be a re-exported name one level up.
            resolved_base = self._resolve_module(base, _depth + 1)
            module = resolved_base
        if module is None:
            return None
        qual = f"{module.name}.{leaf}"
        if qual in self.functions:
            return self.functions[qual]
        target = module.imports.get(leaf)
        if target is not None:
            return self.resolve_dotted(target, _depth + 1)
        return None

    def _resolve_module(self, dotted: str, _depth: int = 0):
        if _depth > _MAX_REEXPORT_DEPTH:
            return None
        if dotted in self.modules:
            return self.modules[dotted]
        if "." not in dotted:
            return None
        base, leaf = dotted.rsplit(".", 1)
        parent = self._resolve_module(base, _depth + 1)
        if parent is None:
            return None
        target = parent.imports.get(leaf)
        if target is None:
            return None
        return self._resolve_module(target, _depth + 1)

    def dotted_of(self, node, module: ModuleInfo, scope=()) -> str | None:
        """Dotted name a Name/Attribute expression refers to, or ``None``.

        ``scope`` is the chain of enclosing :class:`FunctionInfo` objects,
        outermost first, used to resolve references to nested functions.
        """
        chain = []
        cur = node
        while isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        chain.append(cur.id)
        chain.reverse()
        base = chain[0]
        # Innermost enclosing scope first: nested function references.
        for info in reversed(scope):
            child_qual = f"{info.qualname}.{base}"
            if child_qual in self.functions:
                return ".".join([child_qual] + chain[1:])
        # Module top-level definition.
        top_qual = f"{module.name}.{base}"
        if top_qual in self.functions:
            return ".".join([top_qual] + chain[1:])
        # Import binding.
        target = module.imports.get(base)
        if target is not None:
            return ".".join([target] + chain[1:])
        return None

    def resolve_call(self, func_expr, module: ModuleInfo, scope=()):
        """Resolve a call's function expression to a :class:`FunctionInfo`."""
        dotted = self.dotted_of(func_expr, module, scope)
        if dotted is None:
            return None
        return self.resolve_dotted(dotted)


def build_project(files, roots=None) -> ProjectModel:
    """Parse ``files`` (each exactly once) into a :class:`ProjectModel`.

    ``roots`` maps each file to the directory it was discovered under, so
    fixture trees without ``__init__.py`` markers still get dotted names.
    """
    project = ProjectModel()
    roots = roots or {}
    for path in files:
        project.add_file(Path(path), root_hint=roots.get(Path(path)))
    return project
