"""Package re-exports resolved on first access (PEP 562).

Every package ``__init__`` re-exports its public names, but importing one
eagerly would import the whole program: ``repro-dns report`` would pay for
the resolver, the engine and the topology generator before printing a
table.  A package built with :func:`lazy_exports` imports nothing up
front; each re-exported name imports its module the first time it is
read, then lives in the package namespace like an eager import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, sources: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``sources`` maps each defining module to the names it re-exports.
    An unknown name raises :class:`AttributeError`, so ``hasattr`` and
    ``from package import submodule`` behave as they do eagerly.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in sources.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
