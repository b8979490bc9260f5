"""Rule registry for qbss-lint.

Each rule is a small AST visitor with a stable ID (``QL003`` …), a
severity, and a one-paragraph rationale tying it to the project
invariant it guards (see ``docs/static-analysis.md``).  Rules see one
module at a time through :meth:`Rule.check_module` and may emit
cross-module findings from :meth:`Rule.finalize` once the whole tree has
been parsed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar

from ..context import LintContext, SourceModule
from ..findings import SEVERITY_ERROR, Finding


class Rule:
    """Base class for one lint rule."""

    rule_id: ClassVar[str] = "QL000"
    title: ClassVar[str] = ""
    severity: ClassVar[str] = SEVERITY_ERROR
    rationale: ClassVar[str] = ""

    def check_module(
        self, module: SourceModule, ctx: LintContext
    ) -> Iterable[Finding]:
        """Per-module pass; yield findings anchored in ``module``."""
        return ()

    def finalize(self, ctx: LintContext) -> Iterable[Finding]:
        """Whole-tree pass after every module has been checked."""
        return ()

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=module.rel_path,
            line=line,
            col=col,
            message=message,
            snippet=module.line_text(line),
        )


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in ID order."""
    from .ql003_cache_purity import CachePurityRule
    from .ql005_float_eq import FloatEqualityRule

    return [CachePurityRule(), FloatEqualityRule()]


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """Filter the registry by explicit select/ignore ID lists."""
    rules = all_rules()
    if select is not None:
        wanted = {r.upper() for r in select}
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.rule_id in wanted]
    if ignore is not None:
        dropped = {r.upper() for r in ignore}
        rules = [r for r in rules if r.rule_id not in dropped]
    return rules

