"""The load-bearing invariant checks still raise under ``python -O``.

``-O`` strips assert statements, so these checks are explicit raises.  The
script below breaks each invariant on purpose, by swapping in a wrong
sequence, and runs in a ``python -O`` subprocess.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from permsnake import blocks, constructions, rmgc
from permsnake.ksnake import embedded_a5_snake

if __debug__:
    sys.exit("expected to run under python -O")


def raises(label, fn, *args):
    try:
        fn(*args)
    except AssertionError:
        print(label)


raises("special positions", rmgc.special_positions, rmgc.RmgcSequence(3, (2, 3, 3, 3, 3, 2)))

# A front Gray code ending on the wrong push, then one ending on the right
# push that lands the front on the wrong shape.
blocks.rotate_after = lambda r, s: (3, 3, 3, 3, 3, 2)
raises("block anchor", blocks.rmgc_block, (1, 4, 2, 6, 3, 5), 1)
blocks.rotate_after = lambda r, s: (2, 2, 2, 2, 2, 3)
raises("block end shape", blocks.rmgc_block, (1, 4, 2, 6, 3, 5), 1)
blocks.rotate_after = rmgc.rotate_after

# A boundary sequence that is not a complete cyclic Gray code never closes.
constructions.build_rmgc = lambda p: rmgc.RmgcSequence(3, (2, 2, 2, 2, 2, 3))
raises("thm1 closure", constructions.snake_from_rmgc, 6)
raises("thm2 closure", constructions.snake_from_ksnake, 7, embedded_a5_snake())
constructions.build_rmgc = rmgc.build_rmgc

# A start that passes the block's shape check but parks 4 at position q+1.
constructions.rmgc_snake_start = lambda n: (1, 6, 2, 8, 4, 3, 5, 7)
try:
    constructions.snake_from_rmgc(8)
except AssertionError as exc:
    print(exc)
"""


def test_invariant_checks_raise_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == [
        "special positions",
        "block anchor",
        "block end shape",
        "thm1 closure",
        "thm2 closure",
        "position 5 holds 4",
    ]
