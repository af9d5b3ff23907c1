"""Lazy package surfaces (PEP 562 module ``__getattr__``/``__dir__``).

A package ``__init__`` that re-exports its submodules' names with
``from … import …`` loads every submodule, and all they import, as soon
as any one of them is needed: importing ``repro.simcore.rng`` would pull
in the engine, and through it the audit package.  :func:`lazy_surface`
keeps the package's public names without that cost: each name is looked
up in its submodule on first access.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_surface(package: str, exports: Mapping[str, Tuple[str, ...]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``exports`` maps each submodule to the names the package re-exports
    from it, as the ``from submodule import names`` block it replaces
    did; names listed under ``package`` itself are its submodules.

    Every access returns the submodule's *current* binding and nothing
    is stored in the package's globals, so a rebinding of the
    submodule's attribute (a test's ``monkeypatch``, a tracing wrapper)
    is seen through the package, and so is its restore.
    """
    table: Dict[str, str] = {name: module
                             for module, names in exports.items()
                             for name in names}

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if module == package:
            return importlib.import_module(f"{package}.{name}")
        return getattr(importlib.import_module(module), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
