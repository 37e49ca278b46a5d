"""Permutations over {1, ..., n} and the push-to-the-top operation.

Conventions used everywhere in this package:

- A permutation is a tuple of the values 1..n in one-line notation, so
  ``p[i-1]`` is the value at position i.  Positions and values are both
  1-based; only raw tuple indexing is 0-based.
- ``apply_transition(p, i)`` is the push-to-the-top move: the value at
  position i (2 <= i <= n) is moved to the front and the prefix shifts
  right by one.
- ``compose(p, q)`` returns the permutation r with r(i) = q(p(i)).  Note
  the order: p acts first on the position, q relabels.  This is the
  opposite of usual function composition and tests pin it explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from ._numpy import np
from .errors import InvalidTransitionError

Perm = tuple[int, ...]

METRIC_LINF = "linf"
METRIC_KENDALL = "kendall"
# Pushes walked at a time by walk_segments.  Larger segments make fewer
# numpy calls but take no less wall time, and they raise the peak: verify
# of a 9-RMGC peaks at 34.6 MB in process with 1 << 16, 40.3 MB with
# 1 << 18 and 43.6 MB with 1 << 20, above the 36.4 MB of construct rmgc
# --n 10 that sets the peak of perfbench's rmgc workload (10-RMGC: 67.7,
# 69.1 and 87.5 MB).
_SEGMENT = 1 << 16


def identity(n: int) -> Perm:
    """The identity permutation [1, 2, ..., n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


def is_perm(seq: Sequence[int]) -> bool:
    """True if seq is a permutation of 1..len(seq)."""
    n = len(seq)
    return sorted(seq) == list(range(1, n + 1))


def check_perm(seq: Iterable[int]) -> Perm:
    """Validate and normalise to a tuple; raises ValueError if not a bijection."""
    p = tuple(seq)
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {list(p)}")
    return p


def apply_transition(p: Perm, i: int) -> Perm:
    """Push the value at position i to the front.

    >>> apply_transition((1, 2, 3), 2)
    (2, 1, 3)
    >>> apply_transition((1, 4, 2, 6, 3, 5), 3)
    (2, 1, 4, 6, 3, 5)
    """
    n = len(p)
    if not 2 <= i <= n:
        raise InvalidTransitionError(f"transition index {i} outside 2..{n}")
    return (p[i - 1],) + p[: i - 1] + p[i:]


def undo_transition(p: Perm, i: int) -> Perm:
    """The permutation that apply_transition(., i) maps to p.

    >>> undo_transition((2, 1, 4, 6, 3, 5), 3)
    (1, 4, 2, 6, 3, 5)
    """
    return p[1:i] + (p[0],) + p[i:]


def reachable_table(
    start: Perm, moves: Sequence[int]
) -> tuple[dict[Perm, int], list[tuple[tuple[int, int], ...]]]:
    """Number the permutations reachable from start by moves, breadth first.

    start is id 0 and ``ids`` keeps insertion order, so ``list(ids)`` maps
    an id back to its permutation.  ``succ[v]`` lists v's (move, successor
    id) pairs in the order of ``moves``.

    >>> ids, succ = reachable_table(identity(3), (3, 2))
    >>> len(ids), ids[(1, 2, 3)]
    (6, 0)
    >>> succ[0]
    ((3, 1), (2, 2))
    >>> list(ids)[1], list(ids)[2]
    ((3, 1, 2), (2, 1, 3))
    """
    ids = {start: 0}
    order = [start]
    succ = []
    for p in order:  # grows while it is walked: a breadth-first numbering
        out = []
        for i in moves:
            q = apply_transition(p, i)
            if q not in ids:
                ids[q] = len(order)
                order.append(q)
            out.append((i, ids[q]))
        succ.append(tuple(out))
    return ids, succ


def apply_sequence(p: Perm, transitions: Sequence[int]) -> list[Perm]:
    """Apply a transition sequence, returning all len(transitions)+1 states.

    The first entry is p itself; entry j is the result after j transitions.
    """
    out = [tuple(p)]
    cur = out[0]
    for i in transitions:
        cur = apply_transition(cur, i)
        out.append(cur)
    return out


def pack_pushes(pushes: Sequence[int], n: int) -> bytes | tuple[int, ...]:
    """Pushes checked against 2..n and packed: bytes up to n = 255, else a tuple of ints.

    Raises InvalidTransitionError naming the first push outside 2..n.
    Bytes are kept, a uint8 array is copied to bytes through its buffer and
    ints in 0..255 go through ``bytes()``; ``translate`` then deletes the
    pushes in 2..n a _SEGMENT at a time, leaving the bad ones in order: 3.7
    ms for the 10! pushes of a 10-RMGC on a 2-core x86-64 VM, with no int
    per push.  Other ints, and any pushes above n = 255, form a tuple; an
    array of them is read an int at a time, never held as a list.

    >>> pack_pushes([3, 3, 2], 3)
    b'\\x03\\x03\\x02'
    >>> pack_pushes((3, 300), 300)
    (3, 300)
    """
    values = pushes
    if not isinstance(pushes, bytes):
        try:
            view = memoryview(pushes)
        except TypeError:  # a list or tuple of ints
            pass
        else:  # an array: through a one-byte buffer, else an int at a time, never as a list
            values = view.tobytes() if view.format == "B" else view
        if n <= 255 and not isinstance(values, bytes):
            try:
                values = bytes(iter(values))
            except ValueError:  # an int past 0..255
                pass
    if isinstance(values, bytes):
        for c0 in range(0, len(values), _SEGMENT):  # a piece at a time: no second copy
            bad = values[c0 : c0 + _SEGMENT].translate(None, bytes(range(2, min(n, 255) + 1)))
            if bad:
                raise InvalidTransitionError(f"transition index {bad[0]} outside 2..{n}")
        return values if n <= 255 else tuple(values)
    for i in values:
        if not 2 <= i <= n:
            raise InvalidTransitionError(f"transition index {i} outside 2..{n}")
    return tuple(values)


def _walk(start: Perm, pushes: bytes | tuple[int, ...]) -> np.ndarray:
    """Every word a push-to-the-top walk visits, start first, as one integer array.

    The pushes are packed ones, checked against 2..n when their code was
    made, so the walk does not check them again.  The rows are the
    narrowest unsigned type that holds n: uint8 up to n = 255, uint16 up
    to 65,535, uint32 above.  A push acts on positions, so the m pushes
    are cut into about sqrt(m) chunks, and each chunk's position map,
    relative to its first word, moves forward one push per numpy gather
    in lockstep with the others, written straight into the chunk's rows
    of the (m + 1, n) result.  Each chunk is then relabelled by its first
    word, the last word of the chunk before.  No Python object is made
    per word, and no temporary but the move table, at most (m + 1) * n,
    is larger than O(sqrt(m) * n).
    """
    n = len(start)
    dtype = np.min_scalar_type(n)
    m = len(pushes)
    chain = np.empty((m + 1, n), dtype=dtype)
    chain[0] = start
    if not m:
        return chain
    pushes = np.frombuffer(pushes, dtype=np.uint8) if isinstance(pushes, bytes) else np.asarray(pushes)
    step = math.isqrt(m - 1) + 1  # pushes per chunk, ceil(sqrt(m))
    chunks = -(-m // step)
    last = m - (chunks - 1) * step  # pushes in the last chunk
    # moves[r][k]: the position whose value lands at position k under push
    # values[r]; below n pushes, rows only for the values that occur
    values = range(n + 1)
    if m < n:
        values, pushes = np.unique(pushes, return_inverse=True)
    moves = np.tile(np.arange(n), (len(values), 1))
    for r, i in enumerate(values):
        moves[r, :i] = np.roll(moves[r, :i], 1)
    offsets = np.arange(chunks)[:, None] * n  # each chunk's row in the flat maps
    maps = np.tile(np.arange(n, dtype=dtype), (chunks, 1))
    for t in range(step):
        k = chunks if t < last else chunks - 1
        at = slice(t, t + (k - 1) * step + 1, step)  # push t of each chunk
        maps = maps[:k].reshape(-1)[moves[pushes[at]] + offsets[:k]]
        chain[1:][at] = maps
    for c0 in range(0, m, step):
        rows = chain[1 + c0 : 1 + c0 + step]
        rows[...] = chain[c0][rows]
    return chain


def walk_segments(start: Perm, pushes: bytes | tuple[int, ...]) -> Iterator[np.ndarray]:
    """The walk of ``_walk``, _SEGMENT pushes at a time.

    Each (k + 1, n) segment starts at the last word of the one before, so
    only one segment is held at a time, and the last row of the last
    segment is the word after every push.  No pushes give one segment of
    the start alone.
    """
    word = start
    for c0 in range(0, len(pushes) or 1, _SEGMENT):
        segment = _walk(word, pushes[c0 : c0 + _SEGMENT])
        yield segment
        word = tuple(segment[-1].tolist())


@lru_cache(maxsize=16)
def _end_positions(n: int, pushes: bytes | tuple[int, ...]) -> tuple[int, ...]:
    """Which start position each position of a walk's last word holds the value of."""
    for segment in walk_segments(tuple(range(n)), pushes):  # not the whole walk at once
        pass
    return tuple(segment[-1].tolist())


@dataclass(frozen=True)
class GrayCode:
    """A Gray code given by start, pushes and a cyclic flag.

    Codewords are always derived from the pushes, never stored as the
    source of truth.  For a cyclic code the final push maps the last
    codeword back to the start; a noncyclic code has size len(pushes) + 1.
    Snake blocks are noncyclic Gray codes and Kendall snakes are cyclic
    ones tagged with the Kendall metric.  The start must be a permutation
    of 1..n and the metric linf or kendall, or construction raises
    ValueError, so every codeword is a permutation.

    ``start`` is kept as a tuple and ``pushes`` packed by
    ``pack_pushes``: bytes, one per push, up to n = 255, and a tuple of
    ints above, whatever sequence they are given as, so codes equal as
    sequences compare and hash equal.  A push outside 2..n raises
    InvalidTransitionError when the code is made, after the checks on
    start and metric, so every code's pushes are valid.
    ``transitions`` is the pushes as a tuple of ints, built only when
    asked for; no construct, verify or write path asks.

    ``blocks()`` gives the codewords as rows of one walk segment at a
    time, uint8 up to n = 255; ``_codewords`` joins them into one array
    and ``codewords()`` is a list-of-tuples view of that.  Moves act
    on positions, not values, so ``end`` is the start relabelled by one
    position map, which is walked once per distinct push sequence: blocks
    of one shape from many starts share that walk.

    >>> code = GrayCode(3, (1, 2, 3), (3, 3, 3), True, METRIC_LINF)
    >>> code.codewords(), code.end, code.pushes
    ([(1, 2, 3), (3, 1, 2), (2, 3, 1)], (1, 2, 3), b'\\x03\\x03\\x03')
    >>> GrayCode(3, (1, 2, 3), (3, 2), False, METRIC_LINF).end
    (1, 3, 2)
    """

    n: int
    start: Perm
    pushes: bytes | tuple[int, ...]
    cyclic: bool
    metric_tag: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", tuple(self.start))
        if len(self.start) != self.n or not is_perm(self.start):
            raise ValueError(f"start {list(self.start)} is not a permutation of 1..{self.n}")
        if self.metric_tag not in (METRIC_LINF, METRIC_KENDALL):
            raise ValueError(f"unknown metric {self.metric_tag!r}")
        object.__setattr__(self, "pushes", pack_pushes(self.pushes, self.n))

    @property
    def size(self) -> int:
        return len(self.pushes) if self.cyclic else len(self.pushes) + 1

    @cached_property
    def transitions(self) -> tuple[int, ...]:
        return tuple(self.pushes)

    @property
    def end(self) -> Perm:
        """The word reached after every push; a cyclic code closes iff it is start."""
        return tuple(self.start[j] for j in _end_positions(len(self.start), self.pushes))

    @cached_property
    def _codewords(self) -> np.ndarray:
        return np.concatenate(list(self.blocks()))

    def blocks(self) -> Iterator[np.ndarray]:
        """The codewords in index order, as the rows of one walk segment at a time."""
        for segment in walk_segments(self.start, self.pushes):
            yield segment[:-1]
        if not self.cyclic:
            yield segment[-1:]

    def codewords(self) -> list[Perm]:
        cols = self._codewords.T.tolist()
        # Zipping the columns makes each tuple directly, with no list per row.
        return list(zip(*cols)) if cols else [()] * self.size


def compose(p: Perm, q: Perm) -> Perm:
    """r with r(i) = q(p(i)); p picks the position, q relabels.

    >>> compose((2, 3, 1), (3, 1, 2))
    (1, 2, 3)
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return tuple(q[v - 1] for v in p)


def inverse(p: Perm) -> Perm:
    """The group inverse: compose(p, inverse(p)) == identity.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(p)
    for pos, v in enumerate(p, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def parity(p: Perm) -> int:
    """0 for even permutations, 1 for odd, via cycle decomposition."""
    n = len(p)
    seen = [False] * (n + 1)
    transpositions = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v - 1]
            length += 1
        transpositions += length - 1
    return transpositions % 2


def linf_distance(p: Perm, q: Perm) -> int:
    """Chebyshev distance: the largest per-position value difference.

    >>> linf_distance((1, 4, 2, 6, 3, 5), (2, 1, 4, 6, 3, 5))
    3
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return max(abs(a - b) for a, b in zip(p, q))


def kendall_distance(p: Perm, q: Perm) -> int:
    """Kendall tau distance: the number of value pairs ordered oppositely.

    Equals the inversion count of the relative permutation that maps the
    order of p onto the order of q.

    >>> kendall_distance((1, 2, 3), (3, 2, 1))
    3
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    qinv = inverse(q)
    rel = [qinv[v - 1] for v in p]
    n = len(rel)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if rel[i] > rel[j]
    )


def parse_perm(text: str) -> Perm:
    """Parse one-line notation, e.g. "1 4 2 6 3 5"."""
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"bad permutation text {text!r}") from exc
    return check_perm(values)


def format_perm(p: Perm) -> str:
    """One-line notation with single spaces: "1 4 2 6 3 5"."""
    return " ".join(str(v) for v in p)


def parse_transitions(text: str) -> tuple[int, ...]:
    """Parse a transition sequence; tokens may be bare ints or t-prefixed.

    >>> parse_transitions("t3 t3 t2")
    (3, 3, 2)
    >>> parse_transitions("3 3 2")
    (3, 3, 2)
    """
    out = []
    for tok in text.split():
        raw = tok[1:] if tok.startswith("t") else tok
        try:
            out.append(int(raw))
        except ValueError as exc:
            raise ValueError(f"bad transition token {tok!r}") from exc
    return tuple(out)
