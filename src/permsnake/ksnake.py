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
which is what the block builders downstream require.
"""
from __future__ import annotations

import math
from typing import Sequence

from .errors import ParseError, VerificationError
from .perm import (
    METRIC_KENDALL,
    GrayCode,
    Perm,
    apply_transition,
    check_perm,
    format_perm,
    format_transitions,
    identity,
    parity,
    parse_perm,
    parse_transitions,
)
from .verify import MODE_EXHAUSTIVE, SnakeReport, verify_code

EMBEDDED_CORE = (3, 3, 5, 3, 3, 5, 3, 5, 5, 3, 3, 5, 3, 3, 5, 3, 5, 5, 5)


def build_ksnake(n: int, start: Sequence[int], transitions: Sequence[int]) -> GrayCode:
    """A verified cyclic Kendall snake; raises VerificationError otherwise."""
    start = check_perm(start)
    if len(start) != n:
        raise VerificationError(f"start has length {len(start)}, expected n={n}")
    snake = GrayCode(n, start, tuple(transitions), cyclic=True, metric_tag=METRIC_KENDALL)
    verify_snake(snake)
    return snake


def verify_snake(snake: GrayCode) -> SnakeReport:
    """Kendall-snake acceptance: an exhaustive ``verify_code``, then parity.

    Raises VerificationError naming the first failure (closure, duplicate,
    distance, parity, in that order); returns the passing report.
    """
    if not snake.transitions:
        raise VerificationError("a cyclic snake needs at least one transition")
    report = verify_code(snake, MODE_EXHAUSTIVE)
    if not report.cyclic_ok:
        raise VerificationError(
            f"sequence does not close: ends at {list(snake.end)}, "
            f"started at {list(snake.start)}"
        )
    if not report.valid:
        (i, j), d = report.violations[0]
        what = "coincide" if not report.distinct else f"are at Kendall distance {d} < 2"
        raise VerificationError(f"codewords {i} and {j} {what}")
    p0 = parity(snake.start)
    for idx, c in enumerate(snake.codewords()):
        if parity(c) != p0:
            raise VerificationError(f"codeword {idx} breaks the uniform parity")
    return report


def embedded_a5_snake() -> GrayCode:
    """The 5-symbol snake of size 57, anchored at the identity start."""
    return build_ksnake(5, identity(5), EMBEDDED_CORE * 3)


def transport(snake: GrayCode, new_start: Sequence[int]) -> GrayCode:
    """Re-anchor a snake at a different start permutation.

    The Kendall metric is right invariant, so the same transition sequence
    gives a snake of equal size and equal pairwise distances from any
    start; the result is verified anyway.
    """
    return build_ksnake(snake.n, new_start, snake.transitions)


def format_ksnake(snake: GrayCode) -> str:
    """Text form: header, start permutation, one line of transitions."""
    return (
        f"ksnake n={snake.n} size={snake.size}\n"
        f"{format_perm(snake.start)}\n"
        f"{format_transitions(snake.transitions)}\n"
    )


def parse_ksnake_fields(text: str) -> GrayCode:
    """Parse the ksnake text format into a snake whose properties are unverified."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty ksnake file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "ksnake":
        raise ParseError(f"bad ksnake header: {lines[0]!r}")
    try:
        fields = dict(part.split("=", 1) for part in head[1:])
        n = int(fields["n"])
        size = int(fields["size"])
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad ksnake header: {lines[0]!r}") from exc
    if len(lines) < 3:
        raise ParseError("ksnake file needs a start line and a transition line")
    try:
        start = parse_perm(lines[1])
        transitions = parse_transitions(" ".join(lines[2:]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if len(start) != n:
        raise ParseError(f"start has {len(start)} values but header says n={n}")
    if len(transitions) != size:
        raise ParseError(
            f"header says size={size} but {len(transitions)} transitions follow"
        )
    return GrayCode(n, start, transitions, cyclic=True, metric_tag=METRIC_KENDALL)


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
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if target < 2:
        raise ValueError(f"need target >= 2, got {target}")
    moves = tuple(i for i in range(3, n + 1, 2))
    start = identity(n)
    coset_size = math.factorial(n) // 2
    if target > coset_size:
        if stats is not None:
            stats["nodes"] = 0
            stats["exhausted"] = True
        return None

    # Vertices that can close the cycle: preimages of the start.
    closers = {}
    for i in moves:
        pre = start[1:i] + (start[0],) + start[i:]
        closers[pre] = i

    nodes = 0
    exhausted = True
    path: list[Perm] = [start]
    trail: list[int] = []
    visited = {start}
    found: list[int] | None = None

    def candidates(p: Perm) -> list[tuple[int, Perm]]:
        return [(i, apply_transition(p, i)) for i in moves]

    # Iterative DFS; each stack frame holds the still-unexplored moves of
    # the permutation at the matching depth of `path`.
    stack: list[list[tuple[int, Perm]]] = [candidates(start)]
    while stack:
        frame = stack[-1]
        if not frame:
            stack.pop()
            if trail:
                visited.discard(path.pop())
                trail.pop()
            continue
        move, child = frame.pop(0)
        if child in visited:
            continue
        nodes += 1
        if nodes > budget:
            exhausted = False
            break
        path.append(child)
        trail.append(move)
        visited.add(child)
        if len(path) >= target and child in closers:
            found = trail + [closers[child]]
            break
        # Prune when the unvisited vertices reachable from here cannot
        # extend this prefix up to the target size.
        if len(path) + _reachable_upper_bound(child, visited, moves, coset_size) < target:
            visited.discard(path.pop())
            trail.pop()
            continue
        stack.append(candidates(child))

    if stats is not None:
        stats["nodes"] = nodes
        stats["exhausted"] = exhausted and found is None
    if found is None:
        return None
    return build_ksnake(n, start, found)


def _reachable_upper_bound(
    head: Perm, visited: set[Perm], moves: tuple[int, ...], coset_size: int
) -> int:
    """How many unvisited vertices are reachable from head, at most.

    Exact breadth-first count for small cosets; for larger spaces the
    coset size itself is returned (the bound then never prunes).
    """
    if coset_size > 512:
        return coset_size
    seen = {head}
    frontier = [head]
    count = 0
    while frontier:
        nxt = []
        for p in frontier:
            for i in moves:
                q = apply_transition(p, i)
                if q in seen or q in visited:
                    continue
                seen.add(q)
                nxt.append(q)
                count += 1
        frontier = nxt
    return count
