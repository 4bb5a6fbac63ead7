"""Tests for the whole-program project model and call graph
(``repro.analysis.project``, ``repro.analysis.callgraph``)."""

import ast
import time
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.analysis.engine import discover_python_files, lint_paths
from repro.analysis.project import build_project

REPO_ROOT = Path(__file__).resolve().parents[1]


def _tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    files_list, roots = discover_python_files([tmp_path / "pkg"])
    return build_project(files_list, roots)


class TestProjectModel:
    def test_dotted_module_names_without_init_markers(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/core/kway.py": "def go():\n    return 1\n",
                "pkg/top.py": "X = 1\n",
            },
        )
        assert set(project.modules) == {"pkg.core.kway", "pkg.top"}
        assert "pkg.core.kway.go" in project.functions

    def test_nested_functions_and_methods_registered(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/mod.py": (
                    "def outer():\n"
                    "    def inner():\n"
                    "        return 0\n"
                    "    return inner\n"
                    "\n"
                    "\n"
                    "class C:\n"
                    "    def method(self):\n"
                    "        return 1\n"
                ),
            },
        )
        assert "pkg.mod.outer" in project.functions
        assert "pkg.mod.outer.inner" in project.functions
        assert "pkg.mod.C.method" in project.functions
        assert project.functions["pkg.mod.outer"].children == (
            "pkg.mod.outer.inner",
        )

    def test_defaults_and_params_recorded(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/mod.py": "def f(a, rng=None, *, k=2):\n    return a\n",
            },
        )
        info = project.functions["pkg.mod.f"]
        assert info.params == ("a", "rng", "k")
        assert isinstance(info.defaults["rng"], ast.Constant)
        assert info.defaults["rng"].value is None

    def test_import_resolution_across_modules(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/a.py": "def helper():\n    return 1\n",
                "pkg/b.py": (
                    "from pkg.a import helper\n"
                    "\n"
                    "\n"
                    "def run():\n"
                    "    return helper()\n"
                ),
            },
        )
        graph = build_call_graph(project)
        assert "pkg.a.helper" in graph.edges.get("pkg.b.run", set())

    def test_reexport_chain_resolves(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.impl import helper\n\n__all__ = ['helper']\n",
                "pkg/impl.py": "def helper():\n    return 1\n",
                "pkg/user.py": (
                    "import pkg\n"
                    "\n"
                    "\n"
                    "def run():\n"
                    "    return pkg.helper()\n"
                ),
            },
        )
        info = project.resolve_dotted("pkg.helper")
        assert info is not None and info.qualname == "pkg.impl.helper"
        graph = build_call_graph(project)
        assert "pkg.impl.helper" in graph.edges.get("pkg.user.run", set())

    def test_syntax_error_lands_in_errors(self, tmp_path):
        project = _tree(tmp_path, {"pkg/bad.py": "def f(:\n"})
        assert len(project.errors) == 1
        assert "syntax error" in project.errors[0][3]


class TestCallGraph:
    def test_submit_target_is_worker_entry(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "def _branch_job(graph):\n"
                    "    return helper(graph)\n"
                    "\n"
                    "\n"
                    "def helper(graph):\n"
                    "    return graph\n"
                    "\n"
                    "\n"
                    "def drive(par, graph):\n"
                    "    par.submit(_branch_job, graph)\n"
                ),
            },
        )
        graph = build_call_graph(project)
        assert "pkg.core.jobs._branch_job" in graph.worker_entries
        reach = graph.worker_reachable()
        assert "pkg.core.jobs.helper" in reach

    def test_partial_target_is_worker_entry(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "from functools import partial\n"
                    "\n"
                    "\n"
                    "def job(graph, opts):\n"
                    "    return graph\n"
                    "\n"
                    "\n"
                    "def drive(graph):\n"
                    "    return partial(job, opts=1)\n"
                ),
            },
        )
        graph = build_call_graph(project)
        assert "pkg.core.jobs.job" in graph.worker_entries

    def test_entry_path_trace(self, tmp_path):
        project = _tree(
            tmp_path,
            {
                "pkg/mod.py": (
                    "def leaf():\n"
                    "    return 0\n"
                    "\n"
                    "\n"
                    "def mid():\n"
                    "    return leaf()\n"
                    "\n"
                    "\n"
                    "def entry():\n"
                    "    return mid()\n"
                ),
            },
        )
        graph = build_call_graph(project)
        assert graph.display_path("pkg.mod.leaf") == ["entry", "mid", "leaf"]


class TestParseOnce:
    def test_each_module_parsed_exactly_once(self, tmp_path, monkeypatch):
        files = {
            f"pkg/m{i}.py": f"def f{i}():\n    return {i}\n" for i in range(5)
        }
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            if str(filename).endswith(".py"):
                parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        lint_paths([tmp_path / "pkg"])
        py_parses = [p for p in parsed if f"{tmp_path}" in p]
        assert len(py_parses) == len(files)
        assert len(set(py_parses)) == len(py_parses)

    def test_full_tree_lint_under_three_seconds(self):
        t0 = time.perf_counter()
        lint_paths([REPO_ROOT / "src" / "repro"])
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"full-tree lint took {elapsed:.2f}s"
