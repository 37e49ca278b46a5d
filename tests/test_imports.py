"""Importing permsnake loads no numpy: ``permsnake._numpy`` defers it to the first array use."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def child(script, *flags):
    """Run script in a fresh interpreter with permsnake's sources first on its path."""
    return subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{script}"],
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimised"])
def test_importing_every_module_leaves_numpy_unloaded(flags):
    got = child(
        """
import importlib, pkgutil
import permsnake
names = [m.name for m in pkgutil.iter_modules(permsnake.__path__)]
for name in names:
    importlib.import_module(f"permsnake.{name}")
print(len(names), "numpy._core" in sys.modules)
""",
        *flags,
    )
    assert got.returncode == 0, got.stderr
    count, loaded = got.stdout.split()
    assert int(count) >= 14 and loaded == "False"


def test_a_numpy_imported_first_is_the_one_used():
    got = child("import numpy\nimport permsnake._numpy\nprint(permsnake._numpy.np is numpy)")
    assert (got.returncode, got.stdout) == (0, "True\n"), got.stderr


def test_numpy_loads_on_first_array_use():
    got = child(
        """
from permsnake.perm import GrayCode
assert "numpy._core" not in sys.modules
code = GrayCode(3, (1, 2, 3), (3, 3, 3), True, "linf")
print(code.codewords(), "numpy._core" in sys.modules)
"""
    )
    assert (got.returncode, got.stdout) == (0, "[(1, 2, 3), (3, 1, 2), (2, 3, 1)] True\n"), got.stderr


def test_a_missing_numpy_fails_the_import_naming_numpy():
    # Every path entry that holds numpy is dropped, so it cannot be found.
    got = child(
        """
import os
sys.path[:] = [p for p in sys.path if not os.path.exists(os.path.join(p or ".", "numpy"))]
try:
    import permsnake
except ModuleNotFoundError as exc:
    print(exc.name, exc)
"""
    )
    assert (got.returncode, got.stdout) == (0, "numpy No module named 'numpy'\n"), got.stderr
