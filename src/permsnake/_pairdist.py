"""Exact minimum-distance certificates shared by verification and snake validation.

A code has minimum distance >= 2 iff no codeword lies in the radius-1
ball of another, so the certificate looks balls up instead of comparing
all m(m-1)/2 pairs.  It reads the codewords as blocks of rows in index
order, slices of one (m, n) array or the segments of a code's walk.

- Every row is a permutation of 1..n (``GrayCode`` checks its start).
- The metric is the certificate's one switch.  It picks which of p and
  p⁻¹ keys a codeword p (Chebyshev keys p, Kendall p⁻¹) and whether a
  radius-1 ball is the matchings or the single steps of that key.
- Each codeword is keyed by the Lehmer rank of its key.  Ranks fit an
  int64 for every n <= 20.  The certificate keeps only the sorted ranks,
  and no row of the code: up to n = 14 4 bytes per codeword, each
  rank's low 32 bits in buckets of 2**32 ranks (``_words``), and above,
  the 8-byte ranks.  Equal-rank runs are the distance-0 pairs.  Each
  batch of sorted ranks is read back as int64 and unranked into keys.
  Only when some codeword is near does a second pass over the blocks
  find the near codewords' indices, and with them the close pairs and
  the first repeat.
- Swapping the values v and v+1 of a key changes exactly one Lehmer
  digit, the one at the smaller of their two positions a, by +1 when v
  comes first and -1 otherwise: a rank step of ±(n-1-a)!.
- Chebyshev: q is within distance 1 of p iff q is p with the values of
  some nonempty set of disjoint pairs {v, v+1} swapped, F(n+1) - 1
  neighbours (F the Fibonacci numbers), each rank the sum of its steps.
- Kendall: a swap of adjacent positions in p is a swap of adjacent
  values in p⁻¹, so the n - 1 neighbours are single steps of p⁻¹.
- One walk marks both codewords of each distance-1 pair and equal-rank
  run as near.  Slab s holds the ranks whose key leads with the value
  s.  Only pairs s-1 and s move that value, so a pair inside slab s
  swaps neither, and one across the edge of slabs s and s+1 swaps pair
  s.  Up to n = 14 the walk looks slab by slab in one reused bitmap,
  (n-1)! bits (778 MB of address space at n = 14, of which only the
  pages written count); above, one pass in all sorted ranks.
  Each pair is looked up from one end only.

Both codewords of every close pair are near, so the first VIOLATION_CAP
close pairs are listed from the first 2·VIOLATION_CAP near codewords by
index alone.  With no codeword near the minimum is at least 2, and
exactly 2 as soon as one consecutive pair is at distance 2.  The codes
the ranks cannot certify, those with n > 20 and those with no codeword
near and no consecutive pair at distance 2, take the scan of every pair
in ``_pairscan`` over the rows, read whole, which computes the exact
minimum.  Only when that scan finds distance 0 is the first repeat read,
from a dict of the rows.
"""
from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from ._numpy import np
from ._pairscan import (
    VIOLATION_CAP,
    Violation,
    _kendall_dist,
    _linf_dist,
    _order_bitmaps,
    _pairwise_scan,
    find_duplicate,
)
from .perm import _SEGMENT

if TYPE_CHECKING:
    from ._words import SortedRanks

_MAX_RANK_N = 20  # 20! < 2**63: every rank fits an int64
_BITMAP_N = 14  # the largest n whose lookup is a rank window
_CHUNK = 1 << 12  # codewords per batch of ball lookups
_CELLS = 1 << 15  # neighbour ranks per table


@cache
def _fact() -> np.ndarray:
    """k! for k = 0.._MAX_RANK_N as int64, made on first use: importing loads no numpy."""
    return np.array([math.factorial(k) for k in range(_MAX_RANK_N + 1)], dtype=np.int64)


class Certificate(NamedTuple):
    """The exact pairwise verdict on one list of codewords.

    min_distance is None when there are fewer than two codewords, and 0
    iff some codeword repeats.  violations are the lexicographically first
    VIOLATION_CAP pairs (i, j), i < j, at distance < 2, after the first
    repeat, as ``find_duplicate`` gives it, if there is one.  Every pair
    is certified, so pairs_checked is m(m-1)/2.
    """

    min_distance: int | None
    violations: list[Violation]
    pairs_checked: int


def min_pairwise_linf(codewords: np.ndarray) -> Certificate:
    """Exact Chebyshev minimum over all pairs of rows of an (m, n) array."""
    return _certify_rows(np.asarray(codewords), False)


def min_pairwise_kendall(codewords: np.ndarray) -> Certificate:
    """Exact Kendall minimum over all pairs of rows of an (m, n) array."""
    return _certify_rows(np.asarray(codewords), True)


def _certify_rows(arr: np.ndarray, kendall: bool) -> Certificate:
    def blocks() -> Iterator[np.ndarray]:
        return (arr[c0 : c0 + _SEGMENT] for c0 in range(0, len(arr), _SEGMENT))

    return _certify(blocks, len(arr), arr.shape[-1], kendall)


def _certify(
    blocks: Callable[[], Iterable[np.ndarray]], m: int, n: int, kendall: bool
) -> Certificate:
    """The exact verdict on m codewords of length n, read from blocks() in index order.

    One pass ranks every codeword and notes whether a consecutive pair is
    at distance 2.  blocks() is called again only when some codeword is
    near, or to scan every pair.
    """
    if m < 2:
        return Certificate(None, [], 0)
    if n > _MAX_RANK_N:
        return _scan(np.concatenate(list(blocks())), kendall)
    pairs = m * (m - 1) // 2
    sranks, two = _sorted_ranks(blocks(), m, n, kendall)
    near = _near(sranks, n, kendall)
    if len(near):
        ranks, index = _near_indices(sranks.read(near), blocks(), kendall)
        violations = _close_pairs(ranks, index, n, kendall)
        runs = np.flatnonzero(ranks[1:] == ranks[:-1])
        if not len(runs):
            return Certificate(1, violations, pairs)
        # Equal-rank runs keep index order, so the smallest repeating index
        # is the second of its run, right after its first occurrence.
        t = int(runs[np.argmin(index[runs + 1])])
        duplicate = (int(index[t]), int(index[t + 1]))
        return Certificate(0, _repeat_first(duplicate, violations), pairs)
    if two:
        return Certificate(2, [], pairs)
    return _scan(np.concatenate(list(blocks())), kendall)


def _sorted_ranks(
    blocks: Iterable[np.ndarray], m: int, n: int, kendall: bool
) -> tuple[SortedRanks, bool]:
    """The sorted ranks of m codewords, and whether a consecutive pair is at distance 2."""
    from ._words import RankWords  # like numpy and mmap, loaded with the first certificate

    words = RankWords(m, n)
    last, two = None, False
    for rows in blocks:
        words.put(_ranks(_key(rows, kendall)))
        if not two and len(rows):
            two = _consecutive_at_two(rows if last is None else np.concatenate((last, rows)), kendall)
            last = rows[-1:]
    return words.sort(), two


def _near_indices(
    want: np.ndarray, blocks: Iterable[np.ndarray], kendall: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The ranks in want, sorted, and the index of the codeword each belongs to.

    Every codeword whose rank is in want is found, so equal ranks keep
    index order, as a stable sort of all the ranks orders them.
    """
    if not len(want):
        return want, np.zeros(0, dtype=np.int64)
    ranks, index, at = [], [], 0
    for rows in blocks:
        k = _ranks(_key(rows, kendall))
        slot = np.minimum(np.searchsorted(want, k), len(want) - 1)  # want is sorted
        hit = np.flatnonzero(want[slot] == k)
        ranks.append(k[hit])
        index.append(at + hit)
        at += len(rows)
    ranks, index = np.concatenate(ranks), np.concatenate(index)
    order = np.argsort(ranks, kind="stable")
    return ranks[order], index[order]


def _scan(rows: np.ndarray, kendall: bool) -> Certificate:
    """The verdict of one chunked scan of every pair of rows."""
    m = len(rows)
    x, dist = (_order_bitmaps(rows), _kendall_dist) if kendall else (rows, _linf_dist)
    best, violations = _pairwise_scan(x, dist)
    duplicate = find_duplicate(map(tuple, rows.tolist())) if best == 0 else None
    return Certificate(best, _repeat_first(duplicate, violations), m * (m - 1) // 2)


def _repeat_first(repeat: tuple[int, int] | None, close: list[Violation]) -> list[Violation]:
    """The close pairs led by the first repeat, which they then hold only once."""
    if repeat is None:
        return close
    return [(repeat, 0), *(v for v in close if v != (repeat, 0))]


def _key(rows: np.ndarray, inverse: bool) -> np.ndarray:
    """rows as 0-based (n, m) int8 permutations, or their inverses.

    ``_key(rows, kendall)`` is the key, ``_key(rows, not kendall)`` its inverse.
    """
    p = rows.T.astype(np.int8) - 1
    return _inverse(p) if inverse else p


def _inverse(p: np.ndarray) -> np.ndarray:
    """The inverse of each column of a 0-based (n, m) int8 permutation array."""
    inv = np.empty_like(p)
    inv[p, np.arange(p.shape[1])] = np.arange(len(p), dtype=np.int8)[:, None]
    return inv


def _ranks(p: np.ndarray) -> np.ndarray:
    """The Lehmer rank of each column of a 0-based (n, m) permutation array."""
    n = len(p)
    rank = np.zeros(p.shape[1], dtype=np.int64)
    for a in range(n - 1):
        # Digit a: how many later values are smaller than the one at a.
        digit = np.zeros(p.shape[1], dtype=np.int8)
        for b in range(a + 1, n):
            digit += p[b] < p[a]
        rank += digit * _fact()[n - 1 - a]
    return rank


def _unrank(k: np.ndarray, n: int) -> np.ndarray:
    """The 0-based (n, m) int8 permutations whose Lehmer ranks are k.

    Digit a is k // (n-1-a)! % (n-a).  From the right, each value is its
    digit, and the later values at or above it move up by one, which
    keeps the suffix a permutation: n - 1 numpy steps, no table.
    """
    p = np.zeros((n, len(k)), dtype=np.int8)
    for a in range(n - 1):
        p[a] = k // _fact()[n - 1 - a] % (n - a)
    for a in reversed(range(n - 1)):
        p[a + 1 :] += p[a + 1 :] >= p[a]
    return p


def _ball(
    inv: np.ndarray, k: np.ndarray, kendall: bool, avoid=(), lead=None, both=False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The radius-1 balls of keys ranked k, as tables (cols, q).

    inv holds the keys' inverses, as ``_key(rows, not kendall)`` gives them.

    Column j of q holds neighbours of row cols[j].  Step v swaps the
    values v and v+1 (pair v): ±(n-1-a)!, a the smaller of their
    positions, + when pair v ascends.  Kendall neighbours are steps.
    Chebyshev group v is k + step v + each matching sum S(v+2) of the
    pairs above v+1, grown in place: S(u) is S(u+1), then step u +
    S(u+2), its prefix.  A matching's swap reverses its lowest pair, so
    only rows where pair v ascends probe group v, unless both.  Nothing
    swaps a pair in avoid; lead is one group, all that swap pair lead.
    A table holds about _CELLS ranks at most.
    """
    a = np.arange(n := len(inv))
    # Signed steps by the positions of a pair.
    signed = _fact()[n - 1 - np.minimum.outer(a, a)] * np.sign(a - a[:, None])
    step = signed.ravel()[inv[:-1] * np.int16(n) + inv[1:]]
    groups = [(v, v + 2) for v in range(n - 1) if v not in avoid]
    if lead is not None:
        groups, avoid, both = [(lead, 0)], (lead - 1, lead, lead + 1), True
    for v, low in groups:
        # (u, rows of S(u+2), rows so far) per pair u added, top down.
        plan, size, prev = [], 1, 1
        for u in reversed(range(low, n - 1)):
            free = not kendall and u not in avoid
            plan += [(u, prev, size)] * free
            size, prev = size + prev * free, size
        cols = np.flatnonzero(both | (step[v] > 0))
        for c in np.array_split(cols, len(cols) * size // _CELLS + 1):
            st = step.take(c, 1)
            q = np.empty((size, len(c)), k.dtype)
            q[0] = k[c] + st[v]
            for u, p, at in plan:
                np.add(q[:p], st[u], out=q[at : at + p])
            yield c, q.ravel()


def _near(sranks: SortedRanks, n: int, kendall: bool) -> np.ndarray:
    """The sorted positions, in rank order, of every codeword within distance 1 of another.

    Each batch of sorted ranks is unranked into its keys.  Up to n = 14
    pass s looks up neighbours in slab s: its own, and across each edge
    those of the smaller slab; above, one pass looks up whole balls.  The
    window is filled and cleared a batch at a time.  The walk never stops
    early; a valid code marks nothing, so the m flags are made only at
    the first mark.
    """
    m = len(sranks.words)
    near: np.ndarray | None = None
    bit = np.array([1 << b for b in range(8)], dtype=np.uint8)  # bit b of a bitmap byte

    def mark(positions: np.ndarray) -> None:
        nonlocal near
        if near is None:
            near = np.zeros(m, dtype=bool)
        near[positions] = True

    def batches(c0: int, c1: int) -> Iterator[tuple[int, np.ndarray]]:
        # The ranks of sorted codewords [c0, c1), a batch at a time.
        for b0 in range(c0, c1, _CHUNK):
            yield b0, sranks.read(slice(b0, min(b0 + _CHUNK, c1)))

    def bytes_first(q: np.ndarray) -> np.ndarray:
        # Most bytes of a sparse window are zero: bit-test only the others.
        byte = bits[q >> 3]
        at = np.flatnonzero(byte)
        return at[byte[at] & bit[q[at] & 7] != 0]

    def probe(c0: int, c1: int, lo: int, member: Callable = bytes_first, avoid=(), lead=None) -> None:
        # Sorted codewords [c0, c1) probe with their ranks less lo.
        for b0, k in batches(c0, c1):
            for cols, q in _ball(_inverse(_unrank(k, n)), k - lo, kendall, avoid, lead):
                if len(hit := member(q)):
                    mark(b0 + cols[hit % len(cols)])
                    mark(sranks.find(q[hit] + lo))

    if len(runs := sranks.runs()):
        mark(np.concatenate([runs, runs + 1]))
    if n > _BITMAP_N:
        probe(0, m, 0, lambda q: np.flatnonzero(sranks.read(np.minimum(sranks.find(q), m - 1)) == q))
    else:
        slab = math.factorial(n - 1)
        # An anonymous map kept off huge pages: numpy asks for huge pages
        # for arrays of 4 MB and up, and one bit set in a 2-MB frame of this
        # sparse window would then commit the whole frame.  The map is
        # private, so a page that probes only read maps the zero page and
        # only written pages count; a shared map is shmem, where each page
        # read is a real one.  Like numpy, mmap loads with the first array
        # work, not with every command.
        import mmap

        private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
        window = mmap.mmap(-1, -(-slab // 8), **private)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            window.madvise(mmap.MADV_NOHUGEPAGE)
        bits = np.frombuffer(window, dtype=np.uint8)
        edges = sranks.find(slab * np.arange(n + 1)).tolist()  # first codeword of each slab
        size = np.diff(edges)
        for s in np.flatnonzero(size).tolist():
            lo = s * slab
            for _, x in batches(edges[s], edges[s + 1]):
                x -= lo
                np.bitwise_or.at(bits, x >> 3, bit[x & 7])
            probe(edges[s], edges[s + 1], lo, avoid=(s - 1, s))
            # Across each edge, from the smaller slab.
            if s and size[s - 1] <= size[s]:
                probe(edges[s - 1], edges[s], lo, lead=s - 1)
            if s < n - 1 and size[s + 1] < size[s]:
                probe(edges[s + 1], edges[s + 2], lo, lead=s)
            for _, x in batches(edges[s], edges[s + 1]):
                bits[(x - lo) >> 3] = 0
    return np.flatnonzero(near) if near is not None else np.empty(0, dtype=np.int64)


def _close_pairs(ranks: np.ndarray, index: np.ndarray, n: int, kendall: bool) -> list[Violation]:
    """The lexicographically first VIOLATION_CAP pairs at distance 0 or 1.

    ranks are the near codewords' sorted ranks and index their indices.
    Both ends of every close pair are near.  Each of the first
    2·VIOLATION_CAP near codewords by index starts a pair or ends one that
    an earlier one starts, so they start at least VIOLATION_CAP pairs, and
    every later pair sorts after those.  Only they are looked up, each
    with its own rank (distance 0) and its whole ball (distance 1), in
    the near ranks alone.  Equal ranks keep index order, so the partners
    j > i are a tail of each run.
    """
    at = np.argsort(index)[: 2 * VIOLATION_CAP]
    rows, k = index[at], ranks[at]
    found: list[Violation] = []
    balls = _ball(_inverse(_unrank(k, n)), k, kendall, both=True)
    for d, cols, q in ((0, np.arange(len(k)), k), *((1, *x) for x in balls)):
        left = np.searchsorted(ranks, q, "left")
        right = np.searchsorted(ranks, q, "right")
        # A codeword's own rank always finds its own run.
        for t in np.flatnonzero(right - left > (d == 0)):
            i = int(rows[cols[t % len(cols)]])
            js = index[left[t] : right[t]]
            found.extend(((i, int(j)), d) for j in js[js > i][:VIOLATION_CAP])
    return sorted(found)[:VIOLATION_CAP]


def _consecutive_at_two(rows: np.ndarray, kendall: bool) -> bool:
    """True if some consecutive pair of rows is at distance exactly 2."""
    for c0 in range(0, len(rows) - 1, _CHUNK):
        x = rows[c0 : c0 + _CHUNK + 1]
        x, dist = (_order_bitmaps(x), _kendall_dist) if kendall else (x, _linf_dist)
        if (dist(x[1:], x[:-1]) == 2).any():
            return True
    return False
