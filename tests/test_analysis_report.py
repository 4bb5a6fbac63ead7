"""Tests for the lint reporting layer (``repro.analysis.report``): JSON
output and the generated rule table."""

import json
from pathlib import Path

from repro.analysis import (
    RULES,
    Finding,
    findings_to_json,
    rules_markdown_table,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def _finding(path="src/mod.py", line=3, rule="RP006", message="print call", trace=()):
    return Finding(path, line, 5, rule, message, trace=tuple(trace))


class TestJson:
    def test_round_trips_all_fields(self):
        f = _finding(trace=("driver", "leaf"))
        rows = json.loads(findings_to_json([f]))
        assert rows == [
            {
                "path": "src/mod.py",
                "line": 3,
                "col": 5,
                "rule": "RP006",
                "message": "print call",
                "trace": ["driver", "leaf"],
            }
        ]

    def test_empty_is_empty_array(self):
        assert json.loads(findings_to_json([])) == []


class TestCliFormats:
    def _fixture(self, tmp_path):
        mod = tmp_path / "pkg" / "chatty.py"
        mod.parent.mkdir()
        mod.write_text("def report(cut):\n    print(cut)\n")
        return tmp_path / "pkg"

    def test_json_flag(self, tmp_path, capsys):
        code = lint_main([str(self._fixture(tmp_path)), "--json"])
        assert code == 1
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["rule"] == "RP006"

    def test_rules_md_flag(self, capsys):
        assert lint_main(["--rules-md"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == rules_markdown_table().strip()


class TestRuleTableDocs:
    def test_table_lists_every_rule(self):
        rows = rules_markdown_table().splitlines()[2:]
        assert [row.split(" | ")[0] for row in rows] == [
            f"| {cls.id}" for cls in RULES
        ]

    def test_docs_table_matches_generator(self):
        """docs/ANALYSIS.md carries the generated table between markers;
        regenerate with ``repro lint --rules-md`` when this fails."""
        doc = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text()
        begin = "<!-- rule-table:begin (generated: repro lint --rules-md) -->"
        end = "<!-- rule-table:end -->"
        assert begin in doc and end in doc
        embedded = doc.split(begin, 1)[1].split(end, 1)[0].strip()
        assert embedded == rules_markdown_table().strip()
