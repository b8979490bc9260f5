"""Package-level names that load their submodule on first use (PEP 562).

A package maps each re-exported name to the submodule that defines it and
takes its ``__getattr__``/``__dir__`` from :func:`attach`.  Importing the
package then runs none of those submodules: ``import repro`` loads no
numpy, and a warm ``qbss-replay`` loads only the modules its work runs.
Every name resolves to the object an eager ``from .sub import name`` bound,
and is cached in the package namespace on first use.  Each package also
imports its names under ``if TYPE_CHECKING:`` as explicit re-exports
(``from .sub import name as name``), so type checkers and linters see
them.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from importlib import import_module
from types import ModuleType


class LazyPackage(ModuleType):
    """A package module whose re-exports keep their names.

    Loading submodule ``avrq`` binds it on its package as ``avrq``; the
    eager ``from .avrq import avrq`` used to rebind that name to the
    function, so a re-export, not the submodule, owns a shared name.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, ModuleType) and name in self.__dict__["_SOURCES"]:
            return
        super().__setattr__(name, value)


def attach(
    package: str, sources: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``, whose names in
    ``sources`` (name -> submodule, relative to the package) load lazily."""
    module = sys.modules[package]
    namespace = module.__dict__
    namespace["_SOURCES"] = sources
    module.__class__ = LazyPackage

    def __getattr__(name: str) -> object:
        source = sources.get(name)
        if source is None:
            # A submodule the eager package imported stays reachable as
            # an attribute (``import repro; repro.core.edf``).
            if not name.startswith("__"):
                try:
                    return import_module(f".{name}", package)
                except ModuleNotFoundError as exc:
                    if exc.name != f"{package}.{name}":
                        raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f".{source}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        from pkgutil import iter_modules

        submodules = {info.name for info in iter_modules(module.__path__)}
        return sorted(set(namespace) | set(sources) | submodules)

    return __getattr__, __dir__
