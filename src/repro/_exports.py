"""Lazy package exports: one export table per package (PEP 562).

A package ``__init__`` that only re-exports its submodules' public
names declares them once, in a table mapping each submodule to the
names it exports::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "flowsim": ("Flow", "FlowSimulator"),
        "routing": ("shifted_ring_flows",),
    })

Importing the package then imports none of its submodules.  A name is
resolved on first access (``repro.network.Flow``, ``from repro.network
import Flow`` or a star-import), by importing its submodule, and is
cached in the package globals, so the second access is a plain global
and ``monkeypatch.setattr`` on the package works as on any module.  A
submodule resolves as an attribute too (``repro.network.flowsim``).
``__all__`` is the table's names in table order.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Callable


def lazy_exports(
    namespace: dict, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for the package whose
    globals are ``namespace``, serving the names of ``table``."""
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}
    if len(home) != sum(map(len, table.values())):
        raise ValueError(f"{package}: a name is listed twice in its export table")

    def __getattr__(name: str):
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__") and importlib.util.find_spec(f"{package}.{name}"):
            return importlib.import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return list(home), __getattr__, __dir__
