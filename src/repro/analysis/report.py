"""Reporting layer: JSON / SARIF 2.1.0 output and the rule table.

Two machine-readable renderings of the same
:class:`~repro.analysis.engine.Finding` list:

* ``repro lint --json`` — a stable machine-readable array for scripts;
* ``repro lint --sarif`` — SARIF 2.1.0, the interchange format CI code
  scanners ingest (GitHub code scanning renders findings inline on PRs);
  call-path traces become ``relatedLocations`` so the "how does a driver
  reach this" witness survives into the UI.

The SARIF writer is validated (in tests) against a vendored subset of the
SARIF 2.1.0 schema by :func:`validate_sarif` — stdlib-only, because the
lint pass deliberately has no third-party dependencies.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "findings_to_json",
    "findings_to_sarif",
    "validate_sarif",
    "rules_markdown_table",
]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


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
# SARIF 2.1.0


def _rule_descriptors():
    from repro.analysis.rules import RULES

    return [
        {
            "id": cls.id,
            "name": cls.name,
            "shortDescription": {"text": cls.summary},
            "fullDescription": {"text": cls.doc or cls.summary},
            "defaultConfiguration": {"level": "error"},
        }
        for cls in RULES
    ]


def _location(path: str, line: int, col: int, message=None) -> dict:
    loc = {
        "physicalLocation": {
            "artifactLocation": {"uri": Path(path).as_posix()},
            "region": {"startLine": int(line), "startColumn": int(col)},
        }
    }
    if message is not None:
        loc["message"] = {"text": message}
    return loc


def findings_to_sarif(findings, tool_version="0") -> dict:
    """Render findings as a SARIF 2.1.0 log (one run, one tool)."""
    results = []
    for f in findings:
        result = {
            "ruleId": f.rule_id,
            "level": "error",
            "message": {"text": f.message},
            "locations": [_location(f.path, f.line, f.col)],
        }
        if f.trace:
            # The call-path witness: one relatedLocation per hop, anchored
            # at the finding (SARIF has no span info for the hops
            # themselves — the names carry the path).
            result["relatedLocations"] = [
                _location(f.path, f.line, f.col, message=f"call path [{i}]: {name}")
                for i, name in enumerate(f.trace)
            ]
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA_URI,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "version": str(tool_version),
                        "rules": _rule_descriptors(),
                    }
                },
                "results": results,
            }
        ],
    }


#: Subset of the SARIF 2.1.0 schema covering everything this tool emits.
#: Vendored because the lint pass is stdlib-only by design; tests
#: additionally validate against the full schema when ``jsonschema``
#: happens to be importable.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {"$ref": "#/definitions/location"},
                                },
                                "relatedLocations": {
                                    "type": "array",
                                    "items": {"$ref": "#/definitions/location"},
                                },
                            },
                        },
                    },
                },
            },
        },
    },
    "definitions": {
        "location": {
            "type": "object",
            "properties": {
                "physicalLocation": {
                    "type": "object",
                    "properties": {
                        "artifactLocation": {
                            "type": "object",
                            "properties": {"uri": {"type": "string"}},
                        },
                        "region": {
                            "type": "object",
                            "properties": {
                                "startLine": {"type": "integer", "minimum": 1},
                                "startColumn": {"type": "integer", "minimum": 1},
                            },
                        },
                    },
                },
                "message": {
                    "type": "object",
                    "required": ["text"],
                    "properties": {"text": {"type": "string"}},
                },
            },
        }
    },
}


def _validate(doc, schema, root, path="$"):
    """Minimal JSON-Schema-subset validator; returns a list of errors."""
    errors = []
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].lstrip("#/").split("/"):
            target = target[part]
        return _validate(doc, target, root, path)
    stype = schema.get("type")
    if stype == "object":
        if not isinstance(doc, dict):
            return [f"{path}: expected object, got {type(doc).__name__}"]
        for req in schema.get("required", ()):
            if req not in doc:
                errors.append(f"{path}: missing required property {req!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                errors.extend(_validate(doc[key], sub, root, f"{path}.{key}"))
    elif stype == "array":
        if not isinstance(doc, list):
            return [f"{path}: expected array, got {type(doc).__name__}"]
        items = schema.get("items")
        if items:
            for i, item in enumerate(doc):
                errors.extend(_validate(item, items, root, f"{path}[{i}]"))
    elif stype == "string":
        if not isinstance(doc, str):
            errors.append(f"{path}: expected string, got {type(doc).__name__}")
    elif stype == "integer":
        if not isinstance(doc, int) or isinstance(doc, bool):
            errors.append(f"{path}: expected integer, got {type(doc).__name__}")
        elif "minimum" in schema and doc < schema["minimum"]:
            errors.append(f"{path}: {doc} below minimum {schema['minimum']}")
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} not one of {schema['enum']}")
    return errors


def validate_sarif(doc) -> list:
    """Validate a SARIF dict against the vendored 2.1.0 subset schema.

    Returns a list of error strings — empty means valid.
    """
    return _validate(doc, SARIF_SUBSET_SCHEMA, SARIF_SUBSET_SCHEMA)


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
        body = (cls.doc or cls.summary).strip().replace("\n", " ")
        lines.append(f"| {cls.id} | `{cls.name}` | {body} |")
    return "\n".join(lines)
