"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every one of them, and everything they import, the
moment anything under the package is touched.  :func:`lazy_exports`
builds the module-level ``__getattr__`` / ``__dir__`` pair instead: a
name's submodule is imported on first access, and the value is cached
in the package namespace so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, namespace: dict,
                 exports: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    module path to the names it provides.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
