"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names by importing
them loads every submodule — and with them numpy and the simulator — as
soon as anything under the package is imported, even by a run that only
replays cached records.  :func:`lazy_exports` gives a package a
module-level ``__getattr__`` and ``__dir__`` instead: an exported name is
imported from its defining module on first access and then bound on the
package, so later lookups are plain attribute reads.

An exported name that equals a submodule's name (``repro.localize``, the
function, and ``repro/localize/``) must still be bound eagerly by the
package: importing the submodule first would bind the module in its
place, and ``__getattr__`` only runs for names that are missing.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, exports: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each defining module's full name to the names the
    package exports from it.  ``__all__`` is every exported name, sorted.
    """
    owners = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, unlike ``importlib.import_module``, goes through
        # the import statement's path, which ``-X importtime`` logs.
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return sorted(owners), __getattr__, __dir__
