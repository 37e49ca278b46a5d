"""Ground-truth validation of Gray codes and an exhaustive search oracle.

``verify_code`` recomputes everything from the transition sequence:
cyclic closure from the last codeword of the walk that gives the
codewords, and distinctness and the exact minimum distance over all
pairs under the code's metric.  A code over at most five symbols has at
most 5! = 120 distinct codewords; one of at most that many is walked as
tuples and every pair compared in pure Python (``_pairscan.scan_words``),
so certifying it loads no numpy.  Every other code takes one certificate
(see ``_pairdist``) over that walk: it sorts the codewords' Lehmer
ranks, which also yields the first repeated codeword, and looks up every
codeword's radius-1 ball.  Both are exact at every size; no verdict
rests on a sample.

``exhaustive_max_snake`` is an independent oracle for tiny n: a full
depth-first enumeration of snakes over push-to-the-top moves, used to
confront the constructions and the packing bound with exact numbers.
It numbers the at most 120 permutations of S_n, n <= 5, with
``perm.reachable_table`` and masks their radius-1 balls by looking each
neighbour up in that numbering (``_ball_masks``), which a test pins
against the distance functions: a child is admissible iff no path
word's radius-1 ball holds it, one bit test of the path's blocked mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from . import _pairdist
from ._numpy import np
from ._pairscan import find_duplicate, scan_words
from .constructions import snake_upper_bound
from .perm import (
    _SEGMENT,
    METRIC_KENDALL,
    METRIC_LINF,
    GrayCode,
    Perm,
    apply_sequence,
    apply_transition,
    identity,
    reachable_table,
    undo_transition,
)

# A code over at most _PURE_N symbols with at most _PURE_N! codewords is
# certified in pure Python: its pairs cost less than importing numpy.
_PURE_N = 5
_PURE_M = math.factorial(_PURE_N)


@dataclass
class SnakeReport:
    """Verification verdict for one Gray code."""

    size: int
    cyclic_ok: bool | None  # None when the code does not claim cyclicity
    min_distance: int | None  # None when fewer than two codewords
    metric_tag: str
    bound: int
    pairs_checked: int
    violations: list[_pairdist.Violation] = field(default_factory=list)
    mode = "exhaustive"  # every verdict is exact

    @property
    def distinct(self) -> bool:
        return self.min_distance != 0

    @property
    def valid(self) -> bool:
        return self.cyclic_ok is not False and (self.min_distance is None or self.min_distance >= 2)

    @cached_property
    def _bound_text(self) -> str:
        return _decimal(self.bound)

    def summary_line(self) -> str:
        min_d = "na" if self.min_distance is None else str(self.min_distance)
        return (
            f"valid={str(self.valid).lower()} size={self.size} min_d={min_d} "
            f"metric={self.metric_tag} bound={self._bound_text} mode={self.mode}"
        )

    def render(self) -> str:
        lines = [
            f"size:         {self.size}",
            f"distinct:     {self.distinct}",
            f"cyclic:       {'n/a' if self.cyclic_ok is None else self.cyclic_ok}",
            f"min distance: {'n/a' if self.min_distance is None else self.min_distance}"
            f" ({self.metric_tag})",
            f"size bound:   {self._bound_text}",
            f"mode:         {self.mode} ({self.pairs_checked} pairs)",
            f"verdict:      {'VALID' if self.valid else 'INVALID'}",
        ]
        for (i, j), d in self.violations:
            lines.append(f"violation:    codewords {i} and {j} at distance {d}")
        return "\n".join(lines)


def _decimal(x: int) -> str:
    """x >= 0 in decimal, 1,000 digits at a time: str() refuses ints of over 4,300."""
    chunks = []
    while x >= 10**1000:
        x, low = divmod(x, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(x) + "".join(reversed(chunks))


def _metric_bound(n: int, metric_tag: str) -> int:
    # Chebyshev snakes obey the packing bound; for Kendall snakes the
    # informational ceiling is the coset size n!/2.
    if metric_tag == METRIC_KENDALL:
        return math.factorial(n) // 2
    return snake_upper_bound(n)


def verify_code(code: GrayCode) -> SnakeReport:
    """Verify a Gray code; every defect of the code lands in the report.

    Duplicates, a failed or missing closure (an empty cyclic code) and
    close pairs are reported, not raised.  A transition outside 2..n does
    not describe a code: ``GrayCode`` raises InvalidTransitionError when
    the code is made, so none reaches here.  The exact certificate runs
    over all m(m-1)/2 pairs, and the report says mode=exhaustive.

    A code over at most ``_PURE_N`` = 5 symbols with at most 5! = 120
    codewords is walked as tuples by ``perm.apply_sequence`` and every
    pair compared by ``_pairscan.scan_words``, in pure Python: no numpy
    loads, and the certificate equals the one ``_pairdist`` gives.  Any
    other code of at most one walk segment (``perm._SEGMENT`` pushes) is
    walked whole into ``code._codewords``, which costs no more than the
    segment, and the array certificate takes it.  A longer one is
    certified from ``code.blocks()``, one segment at a time, and the same
    pass keeps the last codeword for the closure check; no codeword array
    is made.  The segmented path gives the same certificate at every
    size: the one-segment array path exists only for perfbench's trace
    counters, which span ``GrayCode._codewords`` and ``min_pairwise_*``,
    and goes when the tracer does.
    """
    m = code.size
    kendall = code.metric_tag == METRIC_KENDALL
    last = code.start  # the last codeword walked; the start if none is

    def blocks() -> Iterator[np.ndarray]:
        nonlocal last
        for rows in code.blocks():
            if len(rows):
                last = tuple(rows[-1].tolist())
            yield rows

    if code.n <= _PURE_N and m <= _PURE_M:
        words = apply_sequence(code.start, code.pushes)[:m]
        best, close = scan_words(words, kendall)
        repeat = find_duplicate(words) if best == 0 else None
        cert = _pairdist.Certificate(best, _pairdist._repeat_first(repeat, close), m * (m - 1) // 2)
        last = words[-1] if m else last
    elif m > _SEGMENT:
        cert = _pairdist._certify(blocks, m, code.n, kendall)
    else:
        words = code._codewords
        cert = (_pairdist.min_pairwise_kendall if kendall else _pairdist.min_pairwise_linf)(words)
        last = tuple(words[-1].tolist()) if m else last

    cyclic_ok: bool | None = None
    if code.cyclic:
        # An empty cyclic code has no closing push; a closing one takes the
        # last codeword to the start.
        cyclic_ok = m > 0 and apply_transition(last, code.pushes[-1]) == code.start

    return SnakeReport(
        size=m,
        cyclic_ok=cyclic_ok,
        min_distance=cert.min_distance,
        metric_tag=code.metric_tag,
        bound=_metric_bound(code.n, code.metric_tag),
        pairs_checked=cert.pairs_checked,
        violations=cert.violations,
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

    S_n has at most 120 vertices here, so each call numbers them once
    (``perm.reachable_table``) and masks every radius-1 ball (the ids at
    distance < 2, the vertex itself included, by ``_ball_masks``).  The
    DFS keeps one blocked mask per path depth, the union of the path
    words' balls; a child is admissible iff its bit is clear, which rules
    out a revisit and a close pair in one test.  The witness is then
    certified in pure Python, so the oracle loads no numpy.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > 5:
        raise ValueError(f"oracle capped at n=5, got {n}")
    if metric not in (METRIC_LINF, METRIC_KENDALL):
        raise ValueError(f"unknown metric {metric!r}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"need a node budget >= 0, got {node_budget}")
    # succ[v] lists (move, id) by moves 2, 3, ..., n, the order children are tried in.
    ids, succ = reachable_table(identity(n), range(2, n + 1))
    perms = list(ids)
    ball = _ball_masks(perms, metric == METRIC_KENDALL)
    # The identity is id 0; Chebyshev tries every start in lexicographic order.
    starts = [0] if metric == METRIC_KENDALL else sorted(ids.values(), key=perms.__getitem__)

    best_size = 0
    best_witness: GrayCode | None = None
    nodes = 0

    for s in starts:
        trail: list[int] = []
        # blocked[d]: the ball union of the first d+1 path words, as a bitmask.
        blocked = [ball[s]]
        # The vertices one move away from closing the cycle, by that move.
        closers = {ids[undo_transition(perms[s], i)]: i for i in range(2, n + 1)}
        stack = [iter(succ[s])]
        if not cyclic and best_size < 1:
            best_size, best_witness = 1, GrayCode(n, perms[s], (), False, metric)
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                blocked.pop()
                if trail:
                    trail.pop()
                continue
            move, child = step
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return best_size, best_witness
            if blocked[-1] >> child & 1:
                continue
            trail.append(move)
            blocked.append(blocked[-1] | ball[child])
            size = len(blocked)
            if cyclic:
                close = closers.get(child)
                if close is not None and size > best_size and size >= 2:
                    best_size = size
                    best_witness = GrayCode(
                        n, perms[s], tuple(trail + [close]), True, metric
                    )
            elif size > best_size:
                best_size = size
                best_witness = GrayCode(n, perms[s], tuple(trail), False, metric)
            stack.append(iter(succ[child]))
    return best_size, best_witness


def _ball_masks(perms: list[Perm], kendall: bool) -> list[int]:
    """Each permutation's radius-1 ball, itself included, as a bitmask of indices into perms.

    perms must be all of S_n, as the moves 2..n reach it, so every
    neighbour is looked up in their numbering, with no distance computed.
    A Chebyshev neighbour relabels the values by a value-swap matching of
    1..n, a nonempty set of disjoint swaps of v and v+1; a Kendall one
    swaps two adjacent positions.  At n = 5: 0.54 ms (Chebyshev) and 0.27
    ms (Kendall), against 15.5 and 43.7 ms for the 14,400 distance calls
    of a brute-force build (best of 5, 2-core x86-64 VM).
    """
    n = len(perms[0])
    ids = {p: u for u, p in enumerate(perms)}
    # Each value-swap matching as a relabelling table: bit v-1 of pairs swaps v and v+1.
    tables = []
    for pairs in range(1, 1 << (n - 1)):
        if not pairs & pairs >> 1:  # no two swaps share a value
            table = list(range(n + 1))
            for v in range(1, n):
                if pairs >> (v - 1) & 1:
                    table[v : v + 2] = v + 1, v
            tables.append(table)
    ball = []
    for u, p in enumerate(perms):
        if kendall:
            near = [p[:a] + (p[a + 1], p[a]) + p[a + 2 :] for a in range(n - 1)]
        else:
            near = [tuple(map(table.__getitem__, p)) for table in tables]
        ball.append(sum((1 << ids[q] for q in near), 1 << u))
    return ball
