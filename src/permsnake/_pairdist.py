"""Exact minimum-distance certificates shared by verification and snake validation.

A code has minimum distance >= 2 iff no codeword lies in the radius-1
ball of another, so the certificate looks balls up instead of comparing
all m(m-1)/2 pairs.  It takes the codewords as one (m, n) array.

- Every row is a permutation of 1..n (``GrayCode`` checks its start).
- The metric is the certificate's one switch.  It picks which of p and
  p⁻¹ keys a codeword p (Chebyshev keys p, Kendall p⁻¹) and whether a
  radius-1 ball is the matchings or the single steps of that key.
- Each codeword is keyed by the Lehmer rank of its key.  Ranks fit an
  int64 for every n <= 20.  The ranks are sorted once (stably), and
  equal-rank runs are the distance-0 pairs; the first repeated codeword
  is read off them too.  The certificate keeps only the sort order
  (int32) and the sorted ranks, 12 bytes per codeword.
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
  s.  Up to n = 13 the walk looks slab by slab in one reused bitmap,
  (n-1)! bits (60 MB at n = 13); above, one pass in all sorted ranks.
  Each pair is looked up from one end only.

Both codewords of every close pair are near, so the first VIOLATION_CAP
close pairs are listed from the first 2·VIOLATION_CAP near codewords by
index alone.  With no codeword near the minimum is at least 2, and
exactly 2 as soon as one consecutive pair is at distance 2.  The codes
the ranks cannot certify, those with n > 20 and those with no codeword
near and no consecutive pair at distance 2, take one chunked scan of
every pair, which computes the exact minimum.  Only when that scan finds
distance 0 is the first repeat read, from a dict of the rows.  Kendall
distances in the scan are popcounts of XORed order bitmaps: bit (u, v),
u < v, records whether u precedes v.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .perm import Perm

Violation = tuple[tuple[int, int], int]

VIOLATION_CAP = 50

_MAX_RANK_N = 20  # 20! < 2**63: every rank fits an int64
_BITMAP_N = 13  # the largest n whose lookup is a rank window
_BIT = np.array([1 << b for b in range(8)], dtype=np.uint8)  # bit b of a bitmap byte
_FACT = np.array([math.factorial(k) for k in range(_MAX_RANK_N + 1)], dtype=np.int64)
_CHUNK = 1 << 12  # codewords per batch of ball lookups
_CELLS = 1 << 15  # neighbour ranks per table

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


def find_duplicate(codewords: Iterable[Perm]) -> tuple[int, int] | None:
    """(i, j) for the smallest j repeating an earlier codeword i, else None."""
    seen: dict[Perm, int] = {}
    for j, c in enumerate(codewords):
        if c in seen:
            return (seen[c], j)
        seen[c] = j
    return None


def min_pairwise_linf(codewords: np.ndarray) -> Certificate:
    """Exact Chebyshev minimum over all pairs of rows of an (m, n) array."""
    return _certify(codewords, False)


def min_pairwise_kendall(codewords: np.ndarray) -> Certificate:
    """Exact Kendall minimum over all pairs of rows of an (m, n) array."""
    return _certify(codewords, True)


def _certify(codewords: np.ndarray, kendall: bool) -> Certificate:
    arr = np.asarray(codewords)
    m = len(arr)
    if m < 2:
        return Certificate(None, [], 0)
    pairs = m * (m - 1) // 2
    ranked = arr.shape[1] <= _MAX_RANK_N
    if ranked:
        order, sranks = _sorted_ranks(arr, kendall)
        runs = np.flatnonzero(sranks[1:] == sranks[:-1])
        near = _near(arr, order, sranks, runs, kendall)
        if len(near):
            violations = _close_pairs(arr, order, sranks, near, kendall)
            if not len(runs):
                return Certificate(1, violations, pairs)
            # Equal-rank runs keep index order, so the smallest repeating index
            # is the second of its run, right after its first occurrence.
            t = int(runs[np.argmin(order[runs + 1])])
            duplicate = (int(order[t]), int(order[t + 1]))
            return Certificate(0, _repeat_first(duplicate, violations), pairs)
    x, dist = (_order_bitmaps(arr), _kendall_dist) if kendall else (arr, _linf_dist)
    if ranked and _consecutive_at_two(x, dist):
        return Certificate(2, [], pairs)
    best, violations = _pairwise_scan(x, dist)
    duplicate = find_duplicate(map(tuple, arr.tolist())) if best == 0 else None
    return Certificate(best, _repeat_first(duplicate, violations), pairs)


def _sorted_ranks(arr: np.ndarray, kendall: bool) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of the codewords' ranks, and the sorted ranks.

    The ranks in index order die here: the codeword at position t of the
    sorted ranks is order[t], with rank sranks[t].  order is int32 whenever
    m fits.
    """
    m = len(arr)
    ranks = np.concatenate([_ranks(_key(arr[c0 : c0 + _CHUNK], kendall)) for c0 in range(0, m, _CHUNK)])
    order = np.argsort(ranks, kind="stable").astype(np.int32 if m < 2**31 else np.int64)
    return order, ranks[order]


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
    if not inverse:
        return p
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
        rank += digit * _FACT[n - 1 - a]
    return rank


def _ball(
    rows: np.ndarray, k: np.ndarray, kendall: bool, avoid=(), lead=None, both=False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The radius-1 balls of rows, whose keys rank k, as tables (cols, q).

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
    inv = _key(rows, not kendall)
    a = np.arange(n := len(inv))
    # Signed steps by the positions of a pair.
    signed = _FACT[n - 1 - np.minimum.outer(a, a)] * np.sign(a - a[:, None])
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


def _near(
    arr: np.ndarray, order: np.ndarray, sranks: np.ndarray, runs: np.ndarray, kendall: bool
) -> np.ndarray:
    """The sorted positions, in rank order, of every codeword within distance 1 of another.

    Up to n = 13 pass s looks up neighbours in slab s: its own, and
    across each edge those of the smaller slab; above, one pass looks up
    whole balls.  The window is filled and cleared a batch at a time.
    The walk never stops early; a valid code marks nothing, so the m
    flags are made only at the first mark.
    """
    near: np.ndarray | None = None

    def mark(positions: np.ndarray) -> None:
        nonlocal near
        if near is None:
            near = np.zeros(len(sranks), dtype=bool)
        near[positions] = True

    def bytes_first(q: np.ndarray) -> np.ndarray:
        # Most bytes of a sparse window are zero: bit-test only the others.
        byte = bits[q >> 3]
        at = np.flatnonzero(byte)
        return at[byte[at] & _BIT[q[at] & 7] != 0]

    def probe(c0: int, c1: int, lo: int, member: Callable = bytes_first, avoid=(), lead=None) -> None:
        # Sorted codewords [c0, c1) probe with their ranks less lo.
        for b0 in range(c0, c1, _CHUNK):
            b1 = min(b0 + _CHUNK, c1)
            for cols, q in _ball(arr.take(order[b0:b1], 0), sranks[b0:b1] - lo, kendall, avoid, lead):
                if len(hit := member(q)):
                    mark(b0 + cols[hit % len(cols)])
                    mark(np.searchsorted(sranks, q[hit] + lo))

    if len(runs):
        mark(np.concatenate([runs, runs + 1]))
    n = arr.shape[1]
    if n > _BITMAP_N:
        probe(0, len(sranks), 0, lambda q: np.flatnonzero(sranks[sranks.searchsorted(q, "right") - 1] == q))
    else:
        slab = math.factorial(n - 1)
        bits = np.zeros(-(-slab // 8), dtype=np.uint8)
        edges = np.searchsorted(sranks, slab * np.arange(n + 1))  # first codeword of each slab
        size = np.diff(edges)
        for s in np.flatnonzero(size).tolist():
            lo = s * slab
            held = np.array_split(sranks[edges[s] : edges[s + 1]], size[s] // _CHUNK + 1)
            for x in held:
                x = x - lo
                np.bitwise_or.at(bits, x >> 3, _BIT[x & 7])
            probe(edges[s], edges[s + 1], lo, avoid=(s - 1, s))
            # Across each edge, from the smaller slab.
            if s and size[s - 1] <= size[s]:
                probe(edges[s - 1], edges[s], lo, lead=s - 1)
            if s < n - 1 and size[s + 1] < size[s]:
                probe(edges[s + 1], edges[s + 2], lo, lead=s)
            for x in held:
                bits[(x - lo) >> 3] = 0
    return np.flatnonzero(near) if near is not None else np.empty(0, dtype=np.int64)


def _close_pairs(
    arr: np.ndarray, order: np.ndarray, sranks: np.ndarray, near: np.ndarray, kendall: bool
) -> list[Violation]:
    """The lexicographically first VIOLATION_CAP pairs at distance 0 or 1.

    Both ends of every close pair are near.  Each of the first 2·VIOLATION_CAP
    near codewords by index starts a pair or ends one that an earlier one
    starts, so they start at least VIOLATION_CAP pairs, and every later
    pair sorts after those.  Only they are looked up, each with its own
    rank (distance 0) and its whole ball (distance 1).  A stable sort
    keeps every equal-rank run in index order, so the partners j > i are
    a tail of each run.
    """
    at = near[np.argsort(order[near])[: 2 * VIOLATION_CAP]]
    rows, k = order[at], sranks[at]
    found: list[Violation] = []
    for d, cols, q in ((0, np.arange(len(k)), k), *((1, *x) for x in _ball(arr[rows], k, kendall, both=True))):
        left = np.searchsorted(sranks, q, "left")
        right = np.searchsorted(sranks, q, "right")
        # A codeword's own rank always finds its own run.
        for t in np.flatnonzero(right - left > (d == 0)):
            i = int(rows[cols[t % len(cols)]])
            js = order[left[t] : right[t]]
            found.extend(((i, int(j)), d) for j in js[js > i][:VIOLATION_CAP])
    return sorted(found)[:VIOLATION_CAP]


def _consecutive_at_two(x: np.ndarray, dist: Callable[..., np.ndarray]) -> bool:
    """True if some consecutive pair of rows is at distance exactly 2."""
    for c0 in range(0, len(x) - 1, _CHUNK):
        c1 = min(c0 + _CHUNK, len(x) - 1)
        if (dist(x[c0 + 1 : c1 + 1], x[c0:c1]) == 2).any():
            return True
    return False


def _linf_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Codewords are unsigned: subtract them as signed values.
    return np.abs(x.astype(np.int32) - y).max(axis=-1)


def _kendall_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x ^ y).sum(axis=-1, dtype=np.int64)


def _order_bitmaps(arr: np.ndarray) -> np.ndarray:
    """(m, words) uint64 order bitmaps: bit (u, v) set when rank u precedes rank v."""
    m, n = arr.shape
    pos = np.argsort(arr, axis=1)
    pairs = n * (n - 1) // 2
    bits = np.zeros((m, 8 * max(1, -(-pairs // 64))), dtype=np.uint8)
    rows = max(1, (1 << 22) // max(1, pairs))  # rows per batch of pair comparisons
    for r0 in range(0, m, rows):
        p = pos[r0 : r0 + rows]
        before = np.concatenate([p[:, u, None] < p[:, u + 1 :] for u in range(n)], axis=1)
        packed = np.packbits(before, axis=1, bitorder="little")
        bits[r0 : r0 + rows, : packed.shape[1]] = packed
    return bits.view(np.uint64)


def _pairwise_scan(x: np.ndarray, dist: Callable[..., np.ndarray]) -> tuple[int, list[Violation]]:
    """Exact minimum and first close pairs over every pair of rows of x."""
    m = len(x)
    best: int | None = None
    violations: list[Violation] = []
    block = max(1, 4_000_000 // (m * x.shape[1]))
    for i0 in range(0, m - 1, block):
        i1 = min(i0 + block, m - 1)
        d = dist(x[i0:i1, None], x[None, :])
        upper = np.arange(m)[None, :] > np.arange(i0, i1)[:, None]
        chunk_min = int(d[upper].min())
        if best is None or chunk_min < best:
            best = chunk_min
        if chunk_min < 2 and len(violations) < VIOLATION_CAP:
            bad = np.argwhere(upper & (d < 2))
            for bi, j in bad[: VIOLATION_CAP - len(violations)]:
                violations.append(((int(bi) + i0, int(j)), int(d[bi, j])))
    return best, violations
