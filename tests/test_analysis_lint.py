"""Tests for the static lint pass (``repro.analysis``).

A synthetic fixture tree carries exactly one violation per rule; the engine
must find all of them (with the right ids, files and lines), honour
``# repro: noqa[...]`` suppressions, and exit cleanly on the shipped tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Finding, default_rules, format_findings, lint_paths
from repro.analysis.engine import collect_suppressions, is_suppressed
from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[1]

#: One file per rule, each carrying exactly one violation of that rule.
VIOLATIONS = {
    "RP001": (
        "pkg/randomness.py",
        "import numpy as np\n"
        "\n"
        "\n"
        "def sample():\n"
        "    return np.random.default_rng().random()\n",
    ),
    "RP002": (
        "pkg/mutate.py",
        "def clear_weights(graph):\n"
        "    graph.adjwgt[:] = 0\n",
    ),
    "RP003": (
        "pkg/swallow.py",
        "def call(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        return None\n",
    ),
    "RP004": (
        "pkg/floatcmp.py",
        "def is_half(ratio):\n"
        "    return ratio == 0.5\n",
    ),
    "RP005": (
        "pkg/raises.py",
        "def check(n):\n"
        "    if n < 0:\n"
        "        raise ValueError('negative')\n",
    ),
    "RP006": (
        "pkg/chatty.py",
        "def report(cut):\n"
        "    print(cut)\n",
    ),
    # RP009 only fires inside core/ or ordering/ package paths.
    "RP009": (
        "pkg/core/fallback.py",
        "from repro.utils.errors import ReproError\n"
        "\n"
        "\n"
        "def run(fn, default):\n"
        "    try:\n"
        "        return fn()\n"
        "    except ReproError:\n"
        "        return default\n",
    ),
}


@pytest.fixture
def fixture_tree(tmp_path):
    """Write the violation files."""
    for _, (rel, source) in sorted(VIOLATIONS.items()):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


class TestFixtureTree:
    def test_every_rule_fires_once(self, fixture_tree):
        findings = lint_paths([fixture_tree / "pkg"])
        by_rule = {}
        for f in findings:
            by_rule.setdefault(f.rule_id, []).append(f)
        assert set(by_rule) == set(VIOLATIONS)
        for rule_id, (rel, _) in VIOLATIONS.items():
            hits = by_rule[rule_id]
            assert len(hits) == 1, f"{rule_id} fired {len(hits)} times"
            assert hits[0].path.endswith(rel.rsplit("/", 1)[-1])

    def test_output_format(self, fixture_tree):
        findings = lint_paths([fixture_tree / "pkg"])
        for line in format_findings(findings).splitlines():
            path, lineno, col, rest = line.split(":", 3)
            assert path.endswith(".py")
            assert int(lineno) >= 1
            assert int(col) >= 1
            assert rest.strip().startswith("RP")

    def test_cli_exits_nonzero_with_rule_ids(self, fixture_tree, capsys):
        code = lint_main([str(fixture_tree / "pkg")])
        assert code == 1
        out = capsys.readouterr().out
        for rule_id in VIOLATIONS:
            assert rule_id in out

    def test_repro_lint_subcommand(self, fixture_tree, capsys):
        code = repro_main(["lint", str(fixture_tree / "pkg")])
        assert code == 1
        assert "RP001" in capsys.readouterr().out

    def test_select_restricts_rules(self, fixture_tree, capsys):
        code = lint_main([str(fixture_tree / "pkg"), "--select", "RP005"])
        assert code == 1
        out = capsys.readouterr().out
        assert "RP005" in out
        assert "RP001" not in out

    def test_select_unknown_rule_is_usage_error(self, fixture_tree, capsys):
        code = lint_main([str(fixture_tree / "pkg"), "--select", "RP999"])
        assert code == 2

    def test_syntax_error_reported_as_rp000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([bad])
        assert [f.rule_id for f in findings] == ["RP000"]


class TestSuppression:
    def test_noqa_with_id_suppresses(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def check(n):\n"
            "    # input validation stays a builtin on purpose (doctest API)\n"
            "    raise ValueError('x')  # repro: noqa[RP005]\n"
        )
        assert lint_paths([f]) == []

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("def chatty():\n    print('x')  # repro: noqa\n")
        assert lint_paths([f]) == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("def chatty():\n    print('x')  # repro: noqa[RP001]\n")
        assert [f_.rule_id for f_ in lint_paths([f])] == ["RP006"]

    def test_rp009_noqa_suppresses(self, tmp_path):
        f = tmp_path / "core" / "fb.py"
        f.parent.mkdir()
        f.write_text(
            "from repro.utils.errors import ReproError\n"
            "\n"
            "\n"
            "def run(fn, default):\n"
            "    try:\n"
            "        return fn()\n"
            "    # default is the caller's explicit degraded answer\n"
            "    except ReproError:  # repro: noqa[RP009]\n"
            "        return default\n"
        )
        assert lint_paths([f]) == []

    def test_collect_suppressions_parsing(self):
        table = collect_suppressions(
            "a = 1\n"
            "b = 2  # repro: noqa\n"
            "c = 3  # repro: noqa[RP001, RP004]\n"
        )
        assert table == {2: {"*"}, 3: {"RP001", "RP004"}}

    def test_is_suppressed_case_insensitive_ids(self):
        f = Finding("x.py", 5, 1, "RP004", "msg")
        assert is_suppressed(f, {5: {"RP004"}})
        assert not is_suppressed(f, {4: {"RP004"}})


class TestShippedTree:
    def test_src_repro_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], format_findings(findings)

    def test_default_rules_cover_rp001_to_rp018(self):
        """The retired ids (RP007, RP008, RP010, RP011, RP017) each guarded
        one invariant at one site; each is now a tier-1 test of it."""
        assert [r.id for r in default_rules()] == [
            "RP001", "RP002", "RP003", "RP004", "RP005", "RP006", "RP009",
            "RP012", "RP013", "RP014", "RP015", "RP016", "RP018",
        ]


#: The lint engine's modules, which a library import must not load.
LINT_MODULES = ("callgraph", "dataflow", "engine", "project", "report",
                "rules", "suppress")

FRESH_IMPORT = f"""
import sys
import repro.core.multilevel, repro.ordering.nested_dissection
loaded = sorted(name for name in {LINT_MODULES!r}
                if "repro.analysis." + name in sys.modules)
assert not loaded, loaded
assert "repro.analysis.sanitize" in sys.modules
from repro.analysis import Sanitizer, lint_paths
assert lint_paths.__module__ == "repro.analysis.engine"
assert Sanitizer.__module__ == "repro.analysis.sanitize"
print("ok")
"""


class TestLazyExports:
    """``repro.analysis`` resolves its re-exports on first access."""

    def test_library_import_leaves_the_lint_engine_unloaded(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", FRESH_IMPORT], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_every_export_resolves(self):
        import repro.analysis

        for name in repro.analysis.__all__:
            assert getattr(repro.analysis, name) is not None, name
        with pytest.raises(AttributeError):
            getattr(repro.analysis, "no_such_name")
