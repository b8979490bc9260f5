"""qbss-lint: AST-based static enforcement of the repo's own invariants.

The reproduction's core claims (paper-bound ratio verdicts,
byte-identical serial/parallel/cached replays, trace-count == footer
equality) rest on contracts that used to be enforced only dynamically,
test by test.  This package checks them at parse time:

==== =========================================================
ID   Contract
==== =========================================================
QL003 cache-key purity — no ambient reads in worker bodies
QL005 float equality — ``math.isclose`` in verdict code
QL007 lock discipline — guarded state mutates only under the lock
QL009 blocking-call hygiene — no unbounded blocking on main
==== =========================================================

Each rule keeps its place by catching a planted bug that no runtime
test catches (``tests/test_mutation_audit.py``).  QL007 and QL009 share
the project-wide call-graph / attribute-flow layer in
:mod:`repro.lint.flow`.  Retired rule IDs stay reserved and are never
reused (see ``docs/static-analysis.md``).  Lock order is checked at
runtime instead: the :mod:`repro.obs.lockwatch` sanitizer watches every
lock built through its seam in every test session.

Use the ``qbss-lint`` console script (see ``docs/static-analysis.md``)
or the :func:`lint_paths` API.  An inline suppression
(``# qbss-lint: disable=QL009``) handles the rare justified exception.
"""

from __future__ import annotations

from .engine import LintRun, collect_files, lint_paths, render_json, render_text
from .findings import LINT_FORMAT_VERSION, Finding
from .rules import Rule, all_rules, select_rules
from .sarif import render_sarif

__all__ = [
    "Finding",
    "LINT_FORMAT_VERSION",
    "LintRun",
    "Rule",
    "all_rules",
    "collect_files",
    "lint_paths",
    "render_json",
    "render_sarif",
    "render_text",
    "select_rules",
]
