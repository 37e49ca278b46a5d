"""Kendall snakes: cyclic Gray codes with pairwise Kendall distance >= 2.

All snakes handled here live inside a single coset of the alternating
group: every codeword has the same parity.  Within such a coset the
Kendall condition comes for free (two same-parity permutations are never
at Kendall distance 1), so a coset snake is exactly a vertex-distinct
cycle through parity-preserving push-to-the-top moves, i.e. moves t_i
with odd i.  Construction paths never trust this reasoning, though:
every snake returned by this module is a cyclic Kendall-tagged
``GrayCode`` that ``build_ksnake`` has fully re-verified.

The embedded 5-symbol snake of size 57 = 5!/2 - 3 is three repeats of a
19-transition core using only t_3 and t_5; its last transition is t_5,
which is what the block builders downstream require.  The ksnake text
format is read and written in ``documents``; ``parse_ksnake`` and
``load_ksnake`` add the verification.
"""
from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, Sequence

from .documents import format_ksnake, parse_ksnake_fields  # re-exported
from .errors import VerificationError
from .perm import (
    METRIC_KENDALL,
    GrayCode,
    Perm,
    apply_transition,
    check_perm,
    identity,
    reachable_table,
    undo_transition,
)
from .verify import SnakeReport, verify_code

EMBEDDED_CORE = (3, 3, 5, 3, 3, 5, 3, 5, 5, 3, 3, 5, 3, 3, 5, 3, 5, 5, 5)

# The largest n `search ksnake` accepts.  Ranks would certify codes up to
# n = 20, but n > 16 exits 2 with a one-line error, and exit codes are fixed.
MAX_SEARCH_N = 16
# The search numbers cosets up to 8!/2 (n <= 8): t_3, t_5 and t_7 reach at
# most 7!/2 = 2,520 of their vertices.  At n = 9 the table would hold 181,440.
_NUMBERED_COSET = math.factorial(8) // 2


def build_ksnake(n: int, start: Sequence[int], transitions: Sequence[int]) -> GrayCode:
    """A verified cyclic Kendall snake; raises VerificationError otherwise."""
    start = check_perm(start)
    if len(start) != n:
        raise VerificationError(f"start has length {len(start)}, expected n={n}")
    snake = GrayCode(n, start, transitions, cyclic=True, metric_tag=METRIC_KENDALL)
    verify_snake(snake)
    return snake


def verify_snake(snake: GrayCode) -> SnakeReport:
    """Kendall-snake acceptance: an exact ``verify_code``, then parity.

    Raises VerificationError naming the first failure (closure, duplicate,
    distance, parity, in that order); returns the passing report.
    """
    if not snake.pushes:
        raise VerificationError("a cyclic snake needs at least one transition")
    report = verify_code(snake)
    if not report.cyclic_ok:
        raise VerificationError(
            f"sequence does not close: ends at {list(snake.end)}, "
            f"started at {list(snake.start)}"
        )
    if not report.valid:
        (i, j), d = report.violations[0]
        what = "coincide" if not report.distinct else f"are at Kendall distance {d} < 2"
        raise VerificationError(f"codewords {i} and {j} {what}")
    check_parity(snake)
    return report


def check_parity(snake: GrayCode) -> None:
    """Raise VerificationError naming the first codeword outside the start's coset."""
    # t_i is an i-cycle on positions, so only an even i flips the parity.
    for idx, i in enumerate(snake.pushes[: snake.size - 1], start=1):
        if i % 2 == 0:
            raise VerificationError(f"codeword {idx} breaks the uniform parity")


def embedded_a5_snake() -> GrayCode:
    """The 5-symbol snake of size 57, anchored at the identity start."""
    return build_ksnake(5, identity(5), EMBEDDED_CORE * 3)


def transport(snake: GrayCode, new_start: Sequence[int]) -> GrayCode:
    """Re-anchor a snake at a different start permutation.

    The Kendall metric is right invariant, so the same transition sequence
    gives a snake of equal size and equal pairwise distances from any
    start; the result is verified anyway.
    """
    return build_ksnake(snake.n, new_start, snake.pushes)


def parse_ksnake(text: str) -> GrayCode:
    """Parse and fully verify the ksnake text format.

    Malformed text raises ParseError; a well-formed file whose sequence is
    not a Kendall snake raises VerificationError naming the first failure.
    """
    snake = parse_ksnake_fields(text)
    verify_snake(snake)
    return snake


def load_ksnake(path: str) -> GrayCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ksnake(fh.read())


def search_ksnake(
    n: int,
    target: int,
    budget: int = 1_000_000,
    stats: dict | None = None,
) -> GrayCode | None:
    """Depth-first search for a cyclic Kendall snake of size >= target.

    The start is pinned to the identity (right invariance makes the start
    irrelevant) and only parity-preserving moves are explored, since the
    snakes this package consumes live in one alternating coset.  The
    budget counts search-tree nodes; None is returned when it runs out or
    the space is exhausted.  ``stats``, if given, receives the node count
    and whether the space was exhausted.

    With m = n - 1 + n % 2 (the largest odd m <= n), the moves t_3, t_5,
    ..., t_m generate the alternating group on positions 1..m and never
    move a position above m, so no path reaches more than m!/2 vertices.
    A target above m!/2 is unreachable: it returns None after 0 nodes,
    exhausted.

    Cosets of at most _NUMBERED_COSET = 8!/2 permutations (n <= 8) are
    numbered once by ``perm.reachable_table`` and searched over integer
    ids; larger cosets (n >= 9) keep tuple vertices, and a frame makes
    each child only when it is tried.  The vertex kind changes neither
    node order nor node count.  The path is one dict from each vertex to
    the move that reached it, in path order.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if n > MAX_SEARCH_N:
        raise ValueError(f"search capped at n={MAX_SEARCH_N}, got n={n}")
    if target < 2:
        raise ValueError(f"need target >= 2, got {target}")
    if budget < 0:
        raise ValueError(f"need a budget >= 0, got {budget}")
    moves = tuple(i for i in range(3, n + 1, 2))
    start = identity(n)
    if target > math.factorial(n - 1 + n % 2) // 2:
        if stats is not None:
            stats["nodes"] = 0
            stats["exhausted"] = True
        return None

    # Vertices that can close the cycle: preimages of the start.
    closers = {undo_transition(start, i): i for i in moves}
    if math.factorial(n) // 2 <= _NUMBERED_COSET:
        ids, succ = reachable_table(start, moves)
        closers = {ids[p]: i for p, i in closers.items()}
        root: Perm | int = 0

        def children(v: int) -> Iterator[tuple[int, int]]:
            return iter(succ[v])

    else:
        root = start

        def children(p: Perm) -> Iterator[tuple[int, Perm]]:
            return zip(moves, map(apply_transition, repeat(p), moves))

    nodes = 0
    exhausted = True
    path: dict[Perm | int, int] = {root: 0}  # vertex -> the move to it (none for the root)
    found: list[int] | None = None

    # Iterative DFS; each stack frame yields the still-untried (move, child)
    # pairs of the path vertex at the same depth, in move order.
    stack = [children(root)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            path.popitem()
            continue
        move, child = step
        if child in path:
            continue
        nodes += 1
        if nodes > budget:
            exhausted = False
            break
        if len(path) + 1 >= target and child in closers:
            found = [*path.values(), move, closers[child]][1:]
            break
        path[child] = move
        stack.append(children(child))

    if stats is not None:
        stats["nodes"] = nodes
        stats["exhausted"] = exhausted and found is None
    if found is None:
        return None
    return build_ksnake(n, start, found)
