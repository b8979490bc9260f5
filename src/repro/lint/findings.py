"""Finding model shared by every qbss-lint rule.

A :class:`Finding` is one rule violation anchored at ``path:line:col``.
Findings carry a *fingerprint* — a stable hash of the rule, file and the
text of the offending line (plus an occurrence index for repeated
identical lines) — so a SARIF alert keeps its identity across unrelated
edits that only shift line numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

#: Schema version of the JSON report.  Version 2 dropped the baseline:
#: no ``baselined`` summary count or finding status.
LINT_FORMAT_VERSION = 2

#: ``kind`` of the JSON report document emitted by ``--format json``.
REPORT_KIND = "qbss_lint_report"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``snippet`` is the stripped text of the offending line and
    ``occurrence`` its index among identical ``(rule, path, snippet)``
    triples in the file — together they make :attr:`fingerprint` stable
    under line-number drift.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    occurrence: int = 0

    @property
    def fingerprint(self) -> str:
        material = f"{self.rule}|{self.path}|{self.snippet}|{self.occurrence}"
        return hashlib.sha1(material.encode("utf-8")).hexdigest()[:16]

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return f"{self.location}: {self.rule} {self.severity}: {self.message}"


def sort_key(finding: Finding) -> tuple[str, int, int, str]:
    """Deterministic report order: by file, position, then rule ID."""
    return (finding.path, finding.line, finding.col, finding.rule)
