"""The qbss-lint engine: discover, parse, run rules, render.

Flow: collect ``*.py`` files → parse into a :class:`LintContext` → run
each rule's per-module pass then its whole-tree ``finalize`` → drop
inline-suppressed findings → stamp occurrence indices (stable
fingerprints).  Files that fail to parse yield a ``QL000`` syntax
finding instead of crashing the run — a tree that does not parse cannot
be certified.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import __version__ as PACKAGE_VERSION
from .context import LintContext, SourceModule, relativize
from .findings import (
    LINT_FORMAT_VERSION,
    REPORT_KIND,
    SEVERITY_ERROR,
    Finding,
    sort_key,
)
from .rules import Rule, select_rules
from .suppress import Suppressions

#: Rule ID reserved for files the engine itself cannot parse.
SYNTAX_RULE_ID = "QL000"


@dataclass
class LintRun:
    """Outcome of one lint pass."""

    files: int
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)


def collect_files(paths: list[Path]) -> list[Path]:
    """Python files under ``paths`` (files or directories), sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            files.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def lint_paths(
    paths: list[Path],
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    root: Path | None = None,
    restrict: set[str] | None = None,
) -> LintRun:
    """Lint every Python file under ``paths`` and return the findings.

    ``restrict`` (``--changed``) filters the *reported* findings to the
    given relative paths.  The whole tree is still parsed and analyzed —
    QL003 follows calls across modules — so a change in
    one file that breaks an invariant anchored in it is still caught,
    while pre-existing findings elsewhere stay out of the report.
    """
    files = collect_files(paths)
    modules: list[SourceModule] = []
    raw: list[Finding] = []
    for path in files:
        try:
            modules.append(SourceModule.parse(path, root=root))
        except SyntaxError as exc:
            raw.append(
                Finding(
                    rule=SYNTAX_RULE_ID,
                    severity=SEVERITY_ERROR,
                    path=relativize(path, root),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1 if exc.offset else 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    ctx = LintContext(modules)
    rules = select_rules(select, ignore)
    for rule in rules:
        for module in ctx.modules:
            raw.extend(rule.check_module(module, ctx))
        raw.extend(rule.finalize(ctx))

    suppressions = {m.rel_path: Suppressions.scan(m.source) for m in ctx.modules}
    kept: list[Finding] = []
    dropped: list[Finding] = []
    for finding in sorted(raw, key=sort_key):
        supp = suppressions.get(finding.path)
        if supp is not None and supp.is_suppressed(finding.rule, finding.line):
            dropped.append(finding)
        else:
            kept.append(finding)
    if restrict is not None:
        kept = [f for f in kept if f.path in restrict]
        dropped = [f for f in dropped if f.path in restrict]

    return LintRun(
        files=len(files),
        findings=_stamp_occurrences(kept),
        suppressed=_stamp_occurrences(dropped),
        rules=rules,
    )


def _stamp_occurrences(findings: list[Finding]) -> list[Finding]:
    """Index repeated (rule, path, snippet) triples so fingerprints differ."""
    counts: Counter[tuple[str, str, str]] = Counter()
    stamped = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.snippet)
        stamped.append(
            Finding(
                rule=finding.rule,
                severity=finding.severity,
                path=finding.path,
                line=finding.line,
                col=finding.col,
                message=finding.message,
                snippet=finding.snippet,
                occurrence=counts[key],
            )
        )
        counts[key] += 1
    return stamped


# -- rendering ----------------------------------------------------------------------


def render_text(run: LintRun, *, show_suppressed: bool = False) -> str:
    lines = [f.render() for f in run.findings]
    if show_suppressed:
        lines.extend(f"{f.render()} [suppressed]" for f in run.suppressed)
    lines.append(
        f"qbss-lint: {len(run.findings)} new, "
        f"{len(run.suppressed)} suppressed across {run.files} files"
    )
    return "\n".join(lines) + "\n"


def render_json(run: LintRun, *, show_suppressed: bool = False) -> str:
    def encode(finding: Finding, status: str) -> dict[str, Any]:
        doc = finding.to_dict()
        doc["status"] = status
        return doc

    findings = [encode(f, "new") for f in run.findings]
    if show_suppressed:
        findings += [encode(f, "suppressed") for f in run.suppressed]
    findings.sort(key=lambda d: (d["path"], d["line"], d["col"], d["rule"]))
    doc = {
        "version": LINT_FORMAT_VERSION,
        "kind": REPORT_KIND,
        "tool": {"name": "qbss-lint", "package_version": PACKAGE_VERSION},
        "rules": {
            rule.rule_id: {
                "title": rule.title,
                "severity": rule.severity,
                "rationale": rule.rationale,
            }
            for rule in run.rules
        },
        "summary": {
            "files": run.files,
            "new": len(run.findings),
            "suppressed": len(run.suppressed),
        },
        "findings": findings,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
