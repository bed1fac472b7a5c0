"""Lazy package exports (PEP 562) for the ``repro`` subpackages.

A subpackage's ``__init__`` names what it re-exports in one literal table
``{submodule: names}`` and hands it to :func:`lazy_exports`.  A name's
submodule is imported on first access, so ``from repro.core import
TaggerTrainer`` still works, but importing ``repro.core.saccs`` (or the
package itself) no longer loads the training stack.  A served process loads
only the modules serving runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` exporting ``table``.

    ``table`` maps each submodule (relative to ``package``) to the names the
    package re-exports from it; ``__all__`` is derived from it, so a name is
    listed once (a name under two submodules shows up twice in ``__all__``,
    which the public-API tests reject).  A resolved name is stored in the
    package namespace, so ``__getattr__`` runs once per name.
    """
    owners = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        submodule = owners.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | owners.keys())

    return sorted(name for names in table.values() for name in names), __getattr__, __dir__
