"""Tests for the lint reporting layer (``repro.analysis.report``):
JSON output, SARIF 2.1.0 output + schema validation, and the generated
rule table."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    findings_to_json,
    findings_to_sarif,
    lint_paths,
    rules_markdown_table,
    validate_sarif,
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


class TestSarif:
    def test_structure_and_rule_registry(self):
        doc = findings_to_sarif([_finding()])
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == [f"RP{i:03d}" for i in range(1, 19)]
        result = run["results"][0]
        assert result["ruleId"] == "RP006"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 5}

    def test_trace_becomes_related_locations(self):
        doc = findings_to_sarif([_finding(trace=("driver", "mid", "leaf"))])
        related = doc["runs"][0]["results"][0]["relatedLocations"]
        assert [loc["message"]["text"] for loc in related] == [
            "call path [0]: driver",
            "call path [1]: mid",
            "call path [2]: leaf",
        ]

    def test_validates_against_subset_schema(self):
        doc = findings_to_sarif([_finding(), _finding(trace=("a",))])
        assert validate_sarif(doc) == []

    def test_empty_log_validates(self):
        assert validate_sarif(findings_to_sarif([])) == []

    def test_validator_rejects_broken_docs(self):
        assert validate_sarif({"runs": []})  # missing version
        doc = findings_to_sarif([_finding()])
        doc["version"] = "9.9"
        assert any("not one of" in e for e in validate_sarif(doc))
        doc = findings_to_sarif([_finding()])
        region = doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        region["startLine"] = 0
        assert any("below minimum" in e for e in validate_sarif(doc))

    def test_real_tree_sarif_validates_with_jsonschema_if_present(self):
        # The subset validator is the stdlib-only gate; when the full
        # jsonschema package happens to be importable, double-check the
        # structural envelope with it too.
        findings = lint_paths(
            [REPO_ROOT / "src" / "repro"], paper=REPO_ROOT / "PAPER.md"
        )
        doc = findings_to_sarif(findings)
        assert validate_sarif(doc) == []
        jsonschema = pytest.importorskip("jsonschema")
        from repro.analysis.report import SARIF_SUBSET_SCHEMA

        jsonschema.validate(doc, SARIF_SUBSET_SCHEMA)


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

    def test_sarif_flag_emits_valid_log(self, tmp_path, capsys):
        code = lint_main([str(self._fixture(tmp_path)), "--sarif"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"][0]["ruleId"] == "RP006"

    def test_rules_md_flag(self, capsys):
        assert lint_main(["--rules-md"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == rules_markdown_table().strip()


class TestRuleTableDocs:
    def test_table_lists_every_rule(self):
        table = rules_markdown_table()
        for i in range(1, 19):
            assert f"RP{i:03d}" in table

    def test_docs_table_matches_generator(self):
        """docs/ANALYSIS.md carries the generated table between markers;
        regenerate with ``repro lint --rules-md`` when this fails."""
        doc = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text()
        begin = "<!-- rule-table:begin (generated: repro lint --rules-md) -->"
        end = "<!-- rule-table:end -->"
        assert begin in doc and end in doc
        embedded = doc.split(begin, 1)[1].split(end, 1)[0].strip()
        assert embedded == rules_markdown_table().strip()
