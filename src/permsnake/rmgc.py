"""Cyclic, complete rank-modulation Gray codes (RMGCs) built recursively.

An n-RMGC is a transition sequence of length n! that, applied to any start
permutation of length n, visits all n! permutations and returns to the
start.  The recursion lifts an (n-1)-RMGC: each of its transitions t_j
becomes a group of n-1 pushes of t_n followed by one push of t_{n-j+1}.
Since n-1 consecutive t_n pushes rotate the whole word left by one, the
lifted transition acts like t_j on the trailing n-1 values, in a rotated
frame, and the n rotations in between visit n fresh permutations each.

The base case is the hand-rolled 3-sequence (t3 t3 t2 t3 t3 t2).

Three positions of the built sequence are fixed and load-bearing for the
block constructions downstream: position 1 holds t_n, position n holds
t_2, and position n^2-n holds t_{n-1}.  ``build_rmgc`` checks them on
every build, also under ``python -O``, rather than trusting the recursion.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .perm import apply_sequence, identity

BASE_N = 3
MAX_N = 10  # 10! = 3,628,800 transitions; larger sequences are refused


@dataclass(frozen=True)
class RmgcSequence:
    """A complete cyclic Gray-code transition sequence over S_n."""

    n: int
    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.seq) != math.factorial(self.n):
            raise ValueError(
                f"RMGC for n={self.n} must have {math.factorial(self.n)} "
                f"transitions, got {len(self.seq)}"
            )


def base_t3() -> RmgcSequence:
    """The 3-element base sequence (t3 t3 t2 t3 t3 t2)."""
    return RmgcSequence(3, (3, 3, 2, 3, 3, 2))


@functools.lru_cache(maxsize=None)
def build_rmgc(n: int) -> RmgcSequence:
    """Build the complete cyclic n-RMGC, 3 <= n <= MAX_N.

    Memoised: the snake builders request the same small n repeatedly.
    """
    if n < BASE_N:
        raise ValueError(f"no RMGC recursion below n={BASE_N} (got {n})")
    if n > MAX_N:
        raise ValueError(
            f"n={n} exceeds the size cap {MAX_N} ({math.factorial(n)} transitions)"
        )
    if n == BASE_N:
        result = base_t3()
    else:
        inner = build_rmgc(n - 1)
        seq: list[int] = []
        for j in inner.seq:
            seq.extend([n] * (n - 1))
            seq.append(n - j + 1)
        result = RmgcSequence(n, tuple(seq))
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


def rotate_after(r: RmgcSequence | Sequence[int], s: int) -> tuple[int, ...]:
    """Cyclic rotation placing the element at 1-based position s last.

    A rotation of a complete cyclic sequence is still complete and cyclic;
    the last transition determines the shape of the end permutation.

    >>> rotate_after((3, 3, 2, 3, 3, 2), 1)
    (3, 2, 3, 3, 2, 3)
    """
    seq = r.seq if isinstance(r, RmgcSequence) else tuple(r)
    if not 1 <= s <= len(seq):
        raise ValueError(f"rotation point {s} outside 1..{len(seq)}")
    return seq[s:] + seq[:s]


def complete_and_cyclic(r: RmgcSequence) -> tuple[bool, bool]:
    """Whether r, run from the identity, visits all n! words and returns to it."""
    chain = apply_sequence(identity(r.n), r.seq)
    return len(set(chain[:-1])) == math.factorial(r.n), chain[-1] == chain[0]
