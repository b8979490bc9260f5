"""``qbss-lint`` — the project's static invariant gate.

Exit codes: 0 = no findings; 1 = findings; 2 = usage or I/O error.
An inline ``# qbss-lint: disable=QLnnn`` directive is the one way to
excuse a finding.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from .. import __version__ as PACKAGE_VERSION
from .engine import LintRun, lint_paths, render_json, render_text
from .rules import all_rules
from .sarif import render_sarif

DEFAULT_PATH = "src/repro"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbss-lint",
        description=(
            "AST-based invariant linter for the QBSS reproduction: "
            "cache-key purity (QL003) and float equality (QL005)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to lint (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help=(
            "report only findings in files changed since REF (default "
            "HEAD) plus untracked files; the whole tree is still "
            "analyzed for cross-module context"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {PACKAGE_VERSION}",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include inline-suppressed findings in the report",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule catalog and exit",
    )
    return parser


def _split_ids(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _changed_paths(ref: str) -> set[str]:
    """Repo-relative ``*.py`` paths changed since ``ref``, plus untracked.

    Paths come back relative to the git worktree root, which matches the
    engine's ``rel_path`` convention when qbss-lint runs from the
    repository root (the documented usage).  Raises ``RuntimeError``
    when git is unavailable or ``ref`` does not resolve.
    """
    changed: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "--diff-filter=d", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            detail = proc.stderr.strip() or f"`{' '.join(cmd)}` failed"
            raise RuntimeError(f"--changed: {detail}")
        changed.update(
            line.strip()
            for line in proc.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    return changed


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id} [{rule.severity}] {rule.title}")
            print(f"    {rule.rationale}")
        return 0

    paths = list(args.paths)
    if not paths:
        default = Path(DEFAULT_PATH)
        if not default.exists():
            parser.error(
                f"no paths given and default {DEFAULT_PATH!r} does not exist "
                "(run from the repository root or pass paths)"
            )
        paths = [default]

    restrict: set[str] | None = None
    if args.changed is not None:
        try:
            restrict = _changed_paths(args.changed)
        except RuntimeError as exc:
            print(f"qbss-lint: error: {exc}", file=sys.stderr)
            return 2

    try:
        run: LintRun = lint_paths(
            paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            restrict=restrict,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"qbss-lint: error: {exc}", file=sys.stderr)
        return 2

    renderer = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.format]
    _emit(renderer(run, show_suppressed=args.show_suppressed), args.output)
    return 1 if run.findings else 0


if __name__ == "__main__":  # pragma: no cover - console-script entry
    sys.exit(main())
