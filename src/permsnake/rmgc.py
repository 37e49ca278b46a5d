"""Cyclic, complete rank-modulation Gray codes (RMGCs) built recursively.

An n-RMGC is a transition sequence of length n! that, applied to any start
permutation of length n, visits all n! permutations and returns to the
start.  The recursion lifts an (n-1)-RMGC: each of its transitions t_j
becomes a group of n-1 pushes of t_n followed by one push of t_{n-j+1}.
Since n-1 consecutive t_n pushes rotate the whole word left by one, the
lifted transition acts like t_j on the trailing n-1 values, in a rotated
frame, and the n rotations in between visit n fresh permutations each.

The base case is the hand-rolled 3-sequence (t3 t3 t2 t3 t3 t2).  Each
level is lifted with one numpy broadcast: an (n-1)! x n grid of t_n whose
last column holds t_{n-j+1}, read back as the bytes ``RmgcSequence.seq``,
one byte per push.

Three positions of the built sequence are fixed and load-bearing for the
block constructions downstream: position 1 holds t_n, position n holds
t_2, and position n^2-n holds t_{n-1}.  ``build_rmgc`` checks them on
every build, also under ``python -O``, rather than trusting the recursion.

``complete_and_cyclic`` certifies a sequence without a tuple per word: it
walks the sequence with ``perm.walk_segments``, 64 K pushes at a time,
and marks each word's Lehmer rank in an n!-entry array.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._pairdist import _key, _ranks
from .perm import identity, pack_pushes, walk_segments

BASE_N = 3
MAX_N = 10  # 10! = 3,628,800 transitions; larger sequences are refused


@dataclass(frozen=True)
class RmgcSequence:
    """A complete cyclic Gray-code transition sequence over S_n.

    ``seq`` holds one byte per push, each in 2..n: any sequence of ints
    is packed by ``pack_pushes``, as ``GrayCode`` packs its pushes, and a
    push outside 2..n raises InvalidTransitionError naming the first
    such push, after the checks on n and on the length.
    """

    n: int
    seq: bytes

    def __post_init__(self) -> None:
        # Bound n before n! is computed: a document header can name any n.
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"RMGC n={self.n} is outside the allowed range 1..{MAX_N}")
        if len(self.seq) != math.factorial(self.n):
            raise ValueError(
                f"RMGC for n={self.n} must have {math.factorial(self.n)} "
                f"transitions, got {len(self.seq)}"
            )
        object.__setattr__(self, "seq", pack_pushes(self.seq, self.n))


def base_t3() -> RmgcSequence:
    """The 3-element base sequence (t3 t3 t2 t3 t3 t2)."""
    return RmgcSequence(3, bytes((3, 3, 2, 3, 3, 2)))


@functools.lru_cache(maxsize=None)
def build_rmgc(n: int) -> RmgcSequence:
    """Build the complete cyclic n-RMGC, 3 <= n <= MAX_N.

    Memoised: the snake builders request the same small n repeatedly.
    """
    if n < BASE_N:
        raise ValueError(f"no RMGC recursion below n={BASE_N} (got {n})")
    if n > MAX_N:
        raise ValueError(f"RMGC n={n} exceeds the size cap: n must be in {BASE_N}..{MAX_N}")
    if n == BASE_N:
        result = base_t3()
    else:
        inner = np.frombuffer(build_rmgc(n - 1).seq, dtype=np.uint8)
        # Row j: n-1 pushes of t_n, then t_{n-j+1} for the inner transition t_j.
        grid = np.full((len(inner), n), n, dtype=np.uint8)
        grid[:, -1] = n + 1 - inner
        result = RmgcSequence(n, grid.tobytes())
    _assert_special_positions(result)
    return result


def _assert_special_positions(r: RmgcSequence) -> None:
    n = r.n
    if r.seq[0] != n:
        raise AssertionError(f"position 1 of the {n}-RMGC is not t_{n}")
    if r.seq[n - 1] != 2:
        raise AssertionError(f"position {n} of the {n}-RMGC is not t_2")
    if r.seq[n * (n - 1) - 1] != n - 1:
        raise AssertionError(f"position {n * (n - 1)} of the {n}-RMGC is not t_{n - 1}")


def special_positions(r: RmgcSequence) -> tuple[int, int, int]:
    """1-based positions of t_2, t_{n-1} and t_n: (n, n^2-n, 1)."""
    _assert_special_positions(r)
    return (r.n, r.n * r.n - r.n, 1)


def rotate_after(r: RmgcSequence, s: int) -> bytes:
    """Cyclic rotation of r's pushes placing the one at 1-based position s last.

    A rotation of a complete cyclic sequence is still complete and cyclic;
    the last transition determines the shape of the end permutation.

    >>> rotate_after(base_t3(), 1)
    b'\\x03\\x02\\x03\\x03\\x02\\x03'
    """
    if not 1 <= s <= len(r.seq):
        raise ValueError(f"rotation point {s} outside 1..{len(r.seq)}")
    return r.seq[s:] + r.seq[:s]


def complete_and_cyclic(r: RmgcSequence) -> tuple[bool, bool]:
    """Whether r, run from the identity, visits all n! words and returns to it.

    The walk goes 64 K pushes at a time, each segment starting from the
    last word of the one before; every word but a segment's last sets the
    entry of its Lehmer rank in an n!-entry array.  The n! words before
    the last push are complete iff every entry is set, and the walk is
    cyclic iff the word after the last push is the identity.

    >>> complete_and_cyclic(base_t3())
    (True, True)
    >>> complete_and_cyclic(RmgcSequence(3, (3, 3, 3, 3, 3, 3)))
    (False, True)
    """
    start = identity(r.n)
    seen = np.zeros(len(r.seq), dtype=bool)
    for segment in walk_segments(start, r.seq):
        seen[_ranks(_key(segment[:-1], False))] = True
    return bool(seen.all()), tuple(segment[-1].tolist()) == start
