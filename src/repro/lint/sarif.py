"""SARIF 2.1.0 rendering for qbss-lint.

One ``run`` per invocation, one ``result`` per finding.
Inline-suppressed findings (``--show-suppressed``) carry a
``suppressions`` entry of kind ``inSource``.  The engine's stable
fingerprint rides along as a ``partialFingerprints`` key, which keeps
alert identity stable under line-number drift.
"""

from __future__ import annotations

import json
from typing import Any

from .. import __version__ as PACKAGE_VERSION
from .engine import LintRun
from .findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: partialFingerprints key carrying the engine's finding fingerprint.
FINGERPRINT_KEY = "qbssLintFingerprint/v1"

_LEVELS = {"error": "error", "warning": "warning"}


def _rule_descriptor(rule: Any) -> dict[str, Any]:
    return {
        "id": rule.rule_id,
        "name": rule.__class__.__name__,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
        "defaultConfiguration": {
            "level": _LEVELS.get(rule.severity, "warning")
        },
    }


def _result(finding: Finding, *, suppression: str | None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
        "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint},
    }
    if suppression is not None:
        doc["suppressions"] = [{"kind": suppression}]
    return doc


def render_sarif(run: LintRun, *, show_suppressed: bool = False) -> str:
    results = [_result(f, suppression=None) for f in run.findings]
    if show_suppressed:
        results += [_result(f, suppression="inSource") for f in run.suppressed]
    results.sort(
        key=lambda r: (
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            r["locations"][0]["physicalLocation"]["region"]["startLine"],
            r["locations"][0]["physicalLocation"]["region"]["startColumn"],
            r["ruleId"],
        )
    )
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "qbss-lint",
                        "version": PACKAGE_VERSION,
                        "rules": [_rule_descriptor(r) for r in run.rules],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
