"""Lazy package exports.

Each ``repro`` package ``__init__`` maps its public names to the submodules
that define them and resolves a name on first access, so importing one
submodule (as the engine, a campaign worker or ``repro --help`` does) does
not compile its siblings and what they import::

    _SUBMODULE_OF = {"Simulation": "engine", "ScheduleTrace": "trace"}
    __getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
    __all__ = sorted(_SUBMODULE_OF)

``from repro.simulator import Simulation`` and ``repro.simulator.Simulation``
behave as with an eager re-export. ``tests/test_obs.py::TestLazyPackage``
pins the modules each entry point loads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str, submodule_of: dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``: ``name`` is imported from
    ``package.<submodule_of[name]>`` on first access and stored in the
    package's namespace, so later lookups no longer reach the hook."""

    def __getattr__(name: str) -> Any:
        submodule = submodule_of.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
