"""Ground-truth validation of Gray codes and an exhaustive search oracle.

``verify_code`` recomputes everything from the transition sequence:
distinctness by hashing, cyclic closure by applying the final transition,
and the exact minimum distance over all pairs under the code's metric.
The distance certificate looks up every codeword's radius-1 ball (see
``_pairdist``), so it is exact at every size; no verdict rests on a
sample.

``exhaustive_max_snake`` is an independent oracle for tiny n: a full
depth-first enumeration of snakes over push-to-the-top moves, used to
confront the constructions and the packing bound with exact numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _pairdist
from .constructions import snake_upper_bound
from .perm import (
    METRIC_KENDALL,
    METRIC_LINF,
    GrayCode,
    Perm,
    apply_transition,
    identity,
    kendall_distance,
    linf_distance,
)

MODE_EXHAUSTIVE = "exhaustive"
# Modes verify_code accepts; "sampled" is an alias of exhaustive.
_MODES = (None, MODE_EXHAUSTIVE, "sampled")


@dataclass
class SnakeReport:
    """Verification verdict for one Gray code."""

    size: int
    distinct: bool
    cyclic_ok: bool | None  # None when the code does not claim cyclicity
    min_distance: int | None  # None when fewer than two codewords
    metric_tag: str
    bound: int
    mode: str
    pairs_checked: int
    violations: list[_pairdist.Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return (
            self.distinct
            and self.cyclic_ok is not False
            and (self.min_distance is None or self.min_distance >= 2)
        )

    def summary_line(self) -> str:
        min_d = "na" if self.min_distance is None else str(self.min_distance)
        return (
            f"valid={str(self.valid).lower()} size={self.size} min_d={min_d} "
            f"metric={self.metric_tag} bound={self.bound} mode={self.mode}"
        )

    def render(self) -> str:
        lines = [
            f"size:         {self.size}",
            f"distinct:     {self.distinct}",
            f"cyclic:       {'n/a' if self.cyclic_ok is None else self.cyclic_ok}",
            f"min distance: {'n/a' if self.min_distance is None else self.min_distance}"
            f" ({self.metric_tag})",
            f"size bound:   {self.bound}",
            f"mode:         {self.mode} ({self.pairs_checked} pairs)",
            f"verdict:      {'VALID' if self.valid else 'INVALID'}",
        ]
        for (i, j), d in self.violations:
            lines.append(f"violation:    codewords {i} and {j} at distance {d}")
        return "\n".join(lines)


def _metric_bound(n: int, metric_tag: str) -> int:
    # Chebyshev snakes obey the packing bound; for Kendall snakes the
    # informational ceiling is the coset size n!/2.
    if metric_tag == METRIC_KENDALL:
        return math.factorial(n) // 2
    return snake_upper_bound(n)


def verify_code(code: GrayCode, mode: str | None = None) -> SnakeReport:
    """Verify a Gray code; every defect of the code lands in the report.

    Duplicates, a failed or missing closure (an empty cyclic code) and
    close pairs are reported, not raised.  Input that does not describe a
    code raises: an unknown mode raises ValueError, and a transition
    outside 2..n raises InvalidTransitionError while the codewords are
    derived.

    Every mode runs the exact certificate over all m(m-1)/2 pairs and
    reports mode=exhaustive; "sampled" and None are accepted as aliases.
    """
    codewords = code.codewords()
    m = len(codewords)
    if mode not in _MODES:
        raise ValueError(f"unknown verification mode {mode!r}")

    violations: list[_pairdist.Violation] = []
    dup = _pairdist.find_duplicate(codewords)
    distinct = dup is None
    if dup is not None:
        violations.append((dup, 0))

    cyclic_ok: bool | None = None
    if code.cyclic:
        # An empty cyclic code has no closing transition to apply.
        cyclic_ok = m > 0 and (
            apply_transition(codewords[-1], code.transitions[-1]) == codewords[0]
        )

    kernel = (
        _pairdist.min_pairwise_linf
        if code.metric_tag == METRIC_LINF
        else _pairdist.min_pairwise_kendall
    )
    min_d, pair_violations, checked = kernel(codewords)
    violations.extend(v for v in pair_violations if v not in violations)

    return SnakeReport(
        size=m,
        distinct=distinct,
        cyclic_ok=cyclic_ok,
        min_distance=min_d,
        metric_tag=code.metric_tag,
        bound=_metric_bound(code.n, code.metric_tag),
        mode=MODE_EXHAUSTIVE,
        pairs_checked=checked,
        violations=violations,
    )


def exhaustive_max_snake(
    n: int,
    metric: str = METRIC_LINF,
    cyclic: bool = True,
    node_budget: int | None = None,
) -> tuple[int, GrayCode | None]:
    """Exact maximum snake size for tiny n, plus one witness.

    Full DFS over push-to-the-top moves keeping all pairwise distances
    >= 2.  Kendall searches start only from the identity (right
    invariance); Chebyshev searches try every start, since that metric is
    not right invariant.  n=5 under Chebyshev is only practical with a
    node budget, in which case the result is a best-effort lower bound.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > 5:
        raise ValueError(f"oracle capped at n=5, got {n}")
    if metric not in (METRIC_LINF, METRIC_KENDALL):
        raise ValueError(f"unknown metric {metric!r}")
    dist = linf_distance if metric == METRIC_LINF else kendall_distance
    moves = tuple(range(2, n + 1))

    if metric == METRIC_KENDALL:
        starts = [identity(n)]
    else:
        starts = [p for p in _all_perms(n)]

    best_size = 0
    best_witness: GrayCode | None = None
    nodes = 0

    for start in starts:
        path = [start]
        trail: list[int] = []
        visited = {start}
        stack = [[(i, apply_transition(start, i)) for i in moves]]
        if not cyclic and best_size < 1:
            best_size, best_witness = 1, GrayCode(n, start, (), False, metric)
        while stack:
            frame = stack[-1]
            if not frame:
                stack.pop()
                if trail:
                    visited.discard(path.pop())
                    trail.pop()
                continue
            move, child = frame.pop(0)
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return best_size, best_witness
            if child in visited:
                continue
            if any(dist(child, p) < 2 for p in path):
                continue
            path.append(child)
            trail.append(move)
            visited.add(child)
            if cyclic:
                close = _closing_move(path[-1], start, moves)
                if close is not None and len(path) > best_size and len(path) >= 2:
                    best_size = len(path)
                    best_witness = GrayCode(
                        n, start, tuple(trail + [close]), True, metric
                    )
            else:
                if len(path) > best_size:
                    best_size = len(path)
                    best_witness = GrayCode(n, start, tuple(trail), False, metric)
            stack.append([(i, apply_transition(child, i)) for i in moves])
    return best_size, best_witness


def _closing_move(last: Perm, first: Perm, moves: tuple[int, ...]) -> int | None:
    for i in moves:
        if apply_transition(last, i) == first:
            return i
    return None


def _all_perms(n: int) -> list[Perm]:
    import itertools

    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]
