"""Inline suppression directives.

Three forms, all comments:

- ``# qbss-lint: disable=QL009`` (or ``QL005,QL009`` or ``all``) trailing
  on the flagged line suppresses those rules on that line;
- the same directive on a line of its own suppresses the *next* line
  (for lines too long to carry a trailing comment);
- ``# qbss-lint: disable-file=QL003`` anywhere in the file suppresses the
  rule for the whole file.

Directives are parsed from real comment tokens (via :mod:`tokenize`), so
string literals that merely *contain* the directive text do not
suppress anything.
"""

from __future__ import annotations

import io
import re
import tokenize

DIRECTIVE_RE = re.compile(
    r"#\s*qbss-lint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Sentinel rule list meaning "every rule".
ALL = "all"


class Suppressions:
    """Parsed suppression directives for one file."""

    def __init__(self) -> None:
        #: line number → set of rule IDs (or {"all"}) suppressed there.
        self.by_line: dict[int, set[str]] = {}
        #: rule IDs (or {"all"}) suppressed for the whole file.
        self.file_wide: set[str] = set()

    @classmethod
    def scan(cls, source: str) -> Suppressions:
        supp = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return supp
        # Lines that hold any non-comment code, to tell trailing
        # directives (apply here) from standalone ones (apply below).
        code_lines: set[int] = set()
        for tok in tokens:
            if tok.type not in (
                tokenize.COMMENT,
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENCODING,
                tokenize.ENDMARKER,
            ):
                for lineno in range(tok.start[0], tok.end[0] + 1):
                    code_lines.add(lineno)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = DIRECTIVE_RE.search(tok.string)
            if match is None:
                continue
            rules = {
                part.strip().upper() if part.strip() != ALL else ALL
                for part in match.group("rules").split(",")
                if part.strip()
            }
            if match.group("scope") == "disable-file":
                supp.file_wide |= rules
            else:
                lineno = tok.start[0]
                target = lineno if lineno in code_lines else lineno + 1
                supp.by_line.setdefault(target, set()).update(rules)
        return supp

    def is_suppressed(self, rule: str, line: int) -> bool:
        if ALL in self.file_wide or rule in self.file_wide:
            return True
        rules = self.by_line.get(line, ())
        return ALL in rules or rule in rules
