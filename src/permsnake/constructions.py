"""The two cyclic snake constructions and the size and bound formulas.

Both constructions share one round loop, ``_chain_blocks``: a noncyclic
block rearranges a front segment of the word while the tail stays parked,
then a single boundary push pulls one tail value to the front.  The
boundary pushes follow a complete cyclic Gray code over the tail values,
so after all of its steps the tail has seen every arrangement and the
word returns to the start.  A block's end is its start relabelled by the
block's position map (``GrayCode.end``), so no round walks its block; the
finished code is walked once, when its codewords are asked for.

``snake_from_rmgc`` (CLI method ``thm1``) blocks over the even values
and drives the odd tail with a complete RMGC; it reaches size
ceil(n/2)! * (floor(n/2) + floor(n/2)!) for any n >= 6.

``snake_from_ksnake`` (CLI method ``thm2``) blocks over one parity class
plus a single odd-one-out value using a Kendall snake, for n = 4k+1 or
n = 4k+3; with the best known Kendall snakes it beats the RMGC route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .blocks import ksnake_block, rmgc_block
from .perm import METRIC_LINF, GrayCode, Perm, apply_transition, check_perm
from .rmgc import RmgcSequence, build_rmgc

RMGC_SNAKE_MAX_N = 14  # n=14 materialises 25,436,880 codewords; its window maps 778 MB


@dataclass(frozen=True)
class SizeTable:
    """Snake sizes reachable at a given n, next to the hard upper bound.

    m0: the even-front construction with the shorter front Gray code.
    m1: ``snake_from_rmgc`` (defined for n >= 6).
    m2: ``snake_from_ksnake`` fed with the best known Kendall snakes
        (defined for n = 4k+1 or 4k-1, k >= 2).
    bound: no snake can exceed n! / 2^floor(n/2).
    """

    n: int
    m0: int
    m1: int | None
    m2: int | None
    bound: int


def snake_upper_bound(n: int) -> int:
    """The packing bound n! / 2^floor(n/2) on any Chebyshev snake size."""
    return math.factorial(n) // 2 ** (n // 2)


def size_table(n: int) -> SizeTable:
    if n < 4:
        raise ValueError(f"size table starts at n=4, got {n}")
    p, q = -(-n // 2), n // 2
    m0 = math.factorial(p) * (q + math.factorial(q - 1))
    m1 = math.factorial(p) * (q + math.factorial(q)) if n >= 6 else None
    m2 = None
    if n % 4 == 1 and (n - 1) // 4 >= 2:
        k = (n - 1) // 4
        m2 = (math.factorial(2 * k + 1) // 2 - 2 * k + 1) * math.factorial(2 * k + 1)
    elif n % 4 == 3 and (n + 1) // 4 >= 2:
        k = (n + 1) // 4
        m2 = (math.factorial(2 * k + 1) // 2 - 2 * k + 1) * math.factorial(2 * k - 1)
    return SizeTable(n, m0, m1, m2, snake_upper_bound(n))


def rmgc_snake_start(n: int) -> Perm:
    """Canonical start [1, 4, 6, ..., 2q-2, 2, 2q, 3, 5, ..., 2p-1].

    Below n = 4 the 2 and 2q coincide or vanish, and the start is the identity.
    """
    p, q = -(-n // 2), n // 2
    evens = list(range(4, 2 * q - 1, 2)) + [2, 2 * q][:q]
    odds = list(range(3, 2 * p, 2))
    return check_perm([1] + evens + odds)


def _chain_blocks(
    start: Perm, tail_code: RmgcSequence, shift: int, block: Callable[[Perm, int], GrayCode]
) -> GrayCode:
    """Chain one block and one boundary push t_{idx+shift} per tail transition t_idx.

    ``block(cur, boundary)`` builds the block from the round's start; the
    rounds must return the word to start.  Each round is the block's pushes
    and the boundary push, one byte each (n <= 19, since the tail's RMGC has
    at most MAX_N symbols), and the code's pushes are their join.
    """
    rounds: list[bytes] = []
    cur = start
    for idx in tail_code.seq:
        boundary = idx + shift
        code = block(cur, boundary)
        rounds.append(code.pushes + bytes((boundary,)))
        cur = apply_transition(code.end, boundary)
    if cur != start:
        raise AssertionError("boundary Gray code failed to close")
    return GrayCode(len(start), start, b"".join(rounds), cyclic=True, metric_tag=METRIC_LINF)


def snake_from_rmgc(n: int) -> GrayCode:
    """Cyclic snake of size p!(q + q!) with p = ceil(n/2), q = floor(n/2).

    Each round appends one even-front block and one boundary push of an
    odd value; the boundary pushes enact a complete cyclic p-RMGC on the
    odd tail.  The block variant is chosen so that the even value left at
    position q+1 (always 2q or 2) stays at distance >= 2 from the odd
    value the next boundary pushes in front of it.
    """
    if n < 6:
        raise ValueError(f"the RMGC-block construction needs n >= 6, got {n}")
    if n > RMGC_SNAKE_MAX_N:
        raise ValueError(f"n={n} exceeds the size cap {RMGC_SNAKE_MAX_N}")
    p, q = -(-n // 2), n // 2

    def block(cur: Perm, boundary: int) -> GrayCode:
        pushed, at_q1 = cur[boundary - 1], cur[q]
        if at_q1 not in (2 * q, 2):
            raise AssertionError(f"position {q + 1} holds {at_q1}")
        if abs(pushed - 2 * q) != 1:
            return rmgc_block(cur, 1 if at_q1 == 2 * q else 2)
        return rmgc_block(cur, 1 if at_q1 == 2 else 2)

    return _chain_blocks(rmgc_snake_start(n), build_rmgc(p), q, block)


def ksnake_snake_start(n: int) -> Perm:
    """Canonical start for ``snake_from_ksnake`` at n = 4k+1 or 4k+3."""
    if n % 4 == 1:
        k = (n - 1) // 4
        return check_perm([1] + list(range(2, 4 * k + 1, 2)) + list(range(3, 4 * k + 2, 2)))
    if n % 4 == 3:
        k = (n - 3) // 4
        return check_perm([2, 1] + list(range(3, 4 * k + 4, 2)) + list(range(4, 4 * k + 3, 2)))
    raise ValueError(f"n={n} is not of the form 4k+1 or 4k+3")


def snake_from_ksnake(n: int, snake: GrayCode) -> GrayCode:
    """Cyclic snake of size snake.size * (2k+1)! built from a Kendall snake.

    For n = 4k+1 the snake must cover 2k+1 symbols (the 2k even values
    plus one odd in front); for n = 4k+3 it must cover 2k+3 (the 2k+2 odd
    values plus one even).  Its last transition must push the whole front
    segment, and the boundary pushes run a complete (2k+1)-RMGC over the
    remaining 2k+1 tail values.
    """
    start = ksnake_snake_start(n)  # raises unless n = 4k+1 or 4k+3
    k = (n - 1) // 4  # the k of both forms
    if k < 1:
        raise ValueError(f"n={n} is too small for the Kendall-snake construction")
    front = n - 2 * k
    if snake.n != front:
        raise ValueError(
            f"need a Kendall snake over {front} symbols for n={n}, got {snake.n}"
        )
    if snake.pushes[-1] != front:
        raise ValueError(
            f"the snake's last transition must be t_{front}, got t_{snake.pushes[-1]}"
        )
    return _chain_blocks(
        start, build_rmgc(2 * k + 1), front - 1, lambda cur, _: ksnake_block(cur, snake.pushes)
    )
