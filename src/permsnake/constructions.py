"""The two cyclic snake constructions and the size and bound formulas.

Both constructions share one pattern: a noncyclic block rearranges a
front segment of the word while the tail stays parked, then a single
boundary push pulls one tail value to the front.  The boundary pushes
follow a complete cyclic Gray code over the tail values, so after all of
its steps the tail has seen every arrangement and the word returns to
the start.

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

from .blocks import ksnake_block, rmgc_block
from .perm import METRIC_LINF, GrayCode, Perm, apply_transition, check_perm
from .rmgc import build_rmgc

RMGC_SNAKE_MAX_N = 12  # n=12 already materialises 522,720 codewords


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
    """Canonical start [1, 4, 6, ..., 2q-2, 2, 2q, 3, 5, ..., 2p-1]."""
    p, q = -(-n // 2), n // 2
    evens = list(range(4, 2 * q - 1, 2)) + [2, 2 * q]
    odds = list(range(3, 2 * p, 2))
    return check_perm([1] + evens + odds)


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
    sigma0 = rmgc_snake_start(n)
    tail_code = build_rmgc(p)
    transitions: list[int] = []
    cur = sigma0
    for idx in tail_code.seq:
        pushed = cur[idx + q - 1]  # odd value the next boundary will push
        at_q1 = cur[q]
        if at_q1 not in (2 * q, 2):
            raise AssertionError(f"position {q + 1} holds {at_q1}")
        if abs(pushed - 2 * q) != 1:
            variant = 1 if at_q1 == 2 * q else 2
        else:
            variant = 1 if at_q1 == 2 else 2
        block = rmgc_block(cur, variant)
        transitions.extend(block.transitions)
        boundary = idx + q
        transitions.append(boundary)
        cur = apply_transition(block.end, boundary)
    if cur != sigma0:
        raise AssertionError("boundary Gray code failed to close")
    return GrayCode(n, sigma0, tuple(transitions), cyclic=True, metric_tag=METRIC_LINF)


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
    if n % 4 == 1:
        k = (n - 1) // 4
        front = 2 * k + 1
        shift = 2 * k
    elif n % 4 == 3:
        k = (n - 3) // 4
        front = 2 * k + 3
        shift = 2 * k + 2
    else:
        raise ValueError(f"n={n} is not of the form 4k+1 or 4k+3")
    if k < 1:
        raise ValueError(f"n={n} is too small for the Kendall-snake construction")
    if snake.n != front:
        raise ValueError(
            f"need a Kendall snake over {front} symbols for n={n}, got {snake.n}"
        )
    if snake.transitions[-1] != front:
        raise ValueError(
            f"the snake's last transition must be t_{front}, got t_{snake.transitions[-1]}"
        )
    sigma0 = ksnake_snake_start(n)
    tail_code = build_rmgc(2 * k + 1)
    transitions: list[int] = []
    cur = sigma0
    for idx in tail_code.seq:
        block = ksnake_block(cur, snake.transitions)
        transitions.extend(block.transitions)
        boundary = idx + shift
        transitions.append(boundary)
        cur = apply_transition(block.end, boundary)
    if cur != sigma0:
        raise AssertionError("boundary Gray code failed to close")
    return GrayCode(n, sigma0, tuple(transitions), cyclic=True, metric_tag=METRIC_LINF)
