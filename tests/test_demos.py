"""Each script in ``demos/`` runs to completion and prints its key result."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One line each demo must print: a result it derives, not a heading.
EXPECTED = {
    "building_snakes.py": "closure: the final push returns to (1, 4, 2, 6, 3, 5)",
    "kendall_machinery.py": "size 6840 = 57 * 5!",
    "search_and_verify.py": "n=5 target 57: found size 57 after 1478 nodes",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert got.returncode == 0, got.stderr
    assert EXPECTED[name] in got.stdout.splitlines()
