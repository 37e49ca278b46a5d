"""numpy, loaded on first use: every permsnake module takes ``np`` from here.

A numpy that is already imported is used as it is.  Otherwise numpy is
put in ``sys.modules`` through ``importlib.util.LazyLoader``, and its
own import runs the first time an attribute of ``np`` is read.  So
importing permsnake loads no numpy, and commands that do no array work
(``sizes``, ``--help``, an argument error, a ``search ksnake`` that finds
nothing) never load it; the others pay the same import, only later.  No
permsnake module builds a numpy value at import time for this reason.

A numpy that cannot be found fails the import of permsnake itself, with
the ``ModuleNotFoundError`` that ``import numpy`` would raise.
"""
from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy(name: str) -> ModuleType:
    """The module name, from sys.modules if it is there, else loaded on first use."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
