"""Parsed-source context shared by the lint rules.

``qbss-lint`` is a *project* linter: several rules (cache purity, lock
discipline) need to see every module at once, so the engine parses the
whole tree into :class:`SourceModule` objects up front and hands rules a
:class:`LintContext` with the lot.

:class:`ImportMap` resolves local names back to their dotted origins
(``np.random.rand`` → ``numpy.random.rand``) so rules match on what a
call *is*, not on how the file happened to spell it.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .flow import ProjectFlow


def derive_module_name(path: Path) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    ``.../src/repro/engine/cache.py`` → ``repro.engine.cache``; fixture
    trees only need a ``repro/`` directory component to be scoped the
    same way the real tree is.  Files outside any ``repro`` package keep
    their bare stem.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    anchors = [i for i, part in enumerate(parts) if part == "repro"]
    if anchors:
        return ".".join(parts[anchors[-1] :])
    return parts[-1] if parts else str(path)


class ImportMap:
    """Local alias → dotted origin, built from a module's import statements.

    Handles ``import x [as a]``, ``from pkg import name [as a]`` and
    relative imports (resolved against the module's own dotted name), so
    :meth:`origin` can report e.g. ``numpy.random.default_rng`` for a
    call spelled ``rng_mod.default_rng`` under ``import numpy.random as
    rng_mod``.
    """

    def __init__(self, tree: ast.Module, module_name: str) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor_parts = module_name.split(".")
                    # level=1 is the containing package; each extra level
                    # climbs one more package up.
                    anchor_parts = anchor_parts[: len(anchor_parts) - node.level]
                    anchor = ".".join(anchor_parts)
                    base = f"{anchor}.{base}" if base else anchor
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{base}.{alias.name}" if base else alias.name

    def origin(self, node: ast.expr) -> str | None:
        """Dotted origin of a Name/Attribute chain, or ``None`` if unknown."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.origin(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


@dataclass
class SourceModule:
    """One parsed source file: path, dotted name, AST, raw lines."""

    path: Path
    rel_path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    _imports: ImportMap | None = None

    @classmethod
    def parse(cls, path: Path, *, root: Path | None = None) -> SourceModule:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            rel_path=relativize(path, root),
            module=derive_module_name(path),
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )

    @property
    def imports(self) -> ImportMap:
        if self._imports is None:
            self._imports = ImportMap(self.tree, self.module)
        return self._imports

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def in_package(self, *packages: str) -> bool:
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )


def relativize(path: Path, root: Path | None) -> str:
    """POSIX path relative to ``root`` (or the cwd) when possible."""
    base = root if root is not None else Path.cwd()
    try:
        rel = os.path.relpath(path, start=base)
    except ValueError:  # pragma: no cover - different drive on Windows
        return path.as_posix()
    if rel.startswith(".."):
        return path.as_posix()
    return Path(rel).as_posix()


@dataclass
class LintContext:
    """Everything a rule may look at: all parsed modules, by name."""

    modules: list[SourceModule] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.by_name: dict[str, SourceModule] = {m.module: m for m in self.modules}
        self._flow: ProjectFlow | None = None

    def get(self, module_name: str) -> SourceModule | None:
        return self.by_name.get(module_name)

    @property
    def flow(self) -> ProjectFlow:
        """Lazily built shared call-graph / attribute-flow index."""
        from .flow import ProjectFlow

        if self._flow is None:
            self._flow = ProjectFlow(self)
        return self._flow
